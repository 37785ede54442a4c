"""Smoke-size self-test of the benchmark.

    python3 e2ebench/selftest.py

For every workload ``run.py`` offers, at smoke size (one second,
two-operation blocks):

* an untraced and a traced run complete, check their outputs, and emit
  every metric ``BENCHMARK.json`` declares, each with its declared unit;
* a run against a deliberately wrong golden model reports failures
  (``error_rate`` above 0), which proves the check is live.

Finally the benchmark must refuse to run, without printing a result, from a
directory holding only ``BENCHMARK.json`` and the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402

SMOKE = ["--seconds", "1", "--block-ops", "2"]


def _run(workload: str, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "1", *extra], cwd=str(cwd), capture_output=True,
        text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main() -> int:
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc, result = _run(workload, "--trace", trace, *SMOKE)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs wrong: {result}")
            emitted = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if emitted != _declared(section):
                problems.append(f"{label}: emitted {emitted}, declared "
                                f"{_declared(section)}")
        proc, result = _run(workload, "--trace", "0", "--wrong-golden",
                            *SMOKE)
        if result is None or proc.returncode != 1 or result["correct"] \
                or result["failed"] / result["attempted"] <= 0:
            problems.append(f"{workload}: a wrong golden model was not "
                            f"caught (exit {proc.returncode}, {result})")
        print(f"{workload}: checked", flush=True)

    work = ROOT / ".e2ebench-work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=str(work)))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = _run("fuzz-addmult", "--trace", "0", *SMOKE,
                            cwd=bare)
        if proc.returncode == 0 or result is not None:
            problems.append("the benchmark ran without the source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    print("bare directory: checked")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
