"""Command-line front end for the incremental compile pipeline.

Examples::

    # type check only
    python -m repro.compile examples/pipeline.fil --upto check

    # compile to Calyx and print the per-stage timing / cache table
    python -m repro.compile examples/pipeline.fil --upto calyx

    # emit Verilog for a specific entrypoint to a file
    python -m repro.compile examples/pipeline.fil --upto verilog \
        --entry Top --emit build/top.v

    # compile a generator design through the same session machinery
    python -m repro.compile --frontend aetherling conv2d@1/3
    python -m repro.compile --frontend pipelinec aes --upto verilog
    python -m repro.compile --frontend reticle tdot

The entrypoint defaults to the design's *root*: the unique user component
that no other user component instantiates.  With ``--frontend`` other than
``filament``, the positional argument is the generator's design designation
(``kernel[@throughput]`` for Aetherling, ``fpadd``/``aes`` for PipelineC,
``tdot``/``dot9`` for Reticle) and the design enters the pipeline at the
``calyx`` stage through a content-fingerprinted calyx-entry session.  After
compiling, the driver prints the session's per-stage timing and cache-hit
table and its query counters, then emits or prints the artifact.  Every
compile runs in a fresh session, which shares no artifact with any other,
so each stage it runs is a miss the first time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .core.errors import FilamentError
from .core.frontend import FRONTENDS, design_root, frontend_source
from .core.session import STAGES, CompilationSession

#: ``--upto`` choices (parse is implicit: reading the file always parses).
_UPTO = tuple(stage for stage in STAGES if stage != "parse")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compile",
        description="Compile a Filament source file — or a generator "
                    "design — through the staged, incremental pipeline.",
    )
    parser.add_argument("source", metavar="FILE.fil|DESIGN", nargs="?",
                        help="Filament source file; with a generator "
                             "--frontend, the design designation (e.g. "
                             "conv2d@1/3, aes, tdot; defaults per frontend)")
    parser.add_argument("--frontend", choices=FRONTENDS, default="filament",
                        help="design source frontend (default: filament)")
    parser.add_argument("--upto", choices=_UPTO, default="calyx",
                        help="run the pipeline up to this stage "
                             "(default: calyx)")
    parser.add_argument("--entry", metavar="NAME",
                        help="entrypoint component (default: the root of "
                             "the design, i.e. the user component nothing "
                             "else instantiates)")
    parser.add_argument("--emit", metavar="PATH",
                        help="write the final stage's artifact text here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the artifact dump (tables still "
                             "print)")
    return parser


def _pick_entrypoint(program) -> str:
    try:
        return design_root(program)
    except FilamentError as error:
        raise FilamentError(f"{error}; pass --entry") from None


def _stage_table(session: CompilationSession) -> str:
    """The per-stage timing / cache table.

    Rows cover the stages this CLI records — ``frontend``, then the
    pipeline stages in pipeline order — including stages whose *only*
    activity was cache hits: a warm recompile spends no seconds there,
    and the hits column is exactly what the table must still show."""
    seconds = session.stage_seconds()
    stats = session.cache_stats()
    lines = [f"{'stage':10s} {'seconds':>10} {'hits':>6} {'misses':>7}"]
    for stage in ("frontend", *STAGES):
        if stage not in stats and stage not in seconds:
            continue
        bucket = stats.get(stage, {"hits": 0, "misses": 0})
        lines.append(f"{stage:10s} {seconds.get(stage, 0.0):10.6f} "
                     f"{bucket['hits']:6d} {bucket['misses']:7d}")
    return "\n".join(lines)


def _report(args: argparse.Namespace, session: CompilationSession,
            text: str) -> int:
    """The tail both frontends share: the stage table, the query
    counters, then the artifact, written to ``--emit`` or printed."""
    print()
    print(_stage_table(session))
    queries = session.query_stats()
    print(f"\nqueries: {queries['executed']} executed, "
          f"{queries['verified']} verified")
    if args.emit:
        out = Path(args.emit)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + ("\n" if not text.endswith("\n") else ""))
        print(f"\nartifact written to {out}")
    elif not args.quiet:
        print()
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.frontend != "filament":
        return _main_generator(args)
    if args.source is None:
        parser.error("a Filament source file is required")
    path = Path(args.source)
    try:
        source = path.read_text()
    except OSError as error:
        print(f"cannot read {path}: {error}", file=sys.stderr)
        return 2

    session = CompilationSession.from_source(source)
    try:
        program = session.program  # parse (records the parse timing)
        if args.upto == "check":
            # Type checking covers the whole program; no entrypoint needed
            # (multi-root designs check fine without --entry).
            entrypoint = args.entry
            artifact = session.compile(upto="check")
        else:
            entrypoint = args.entry or _pick_entrypoint(program)
            artifact = session.compile(entrypoint, upto=args.upto)
    except FilamentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.upto == "check":
        text = f"// {len(program.user_components())} component(s) type check"
    else:
        text = artifact if isinstance(artifact, str) else str(artifact)

    target = entrypoint if entrypoint is not None else "<program>"
    print(f"{path.name}: compiled {target!r} up to {args.upto}")
    return _report(args, session, text)


def _main_generator(args: argparse.Namespace) -> int:
    """The generator-frontend path: run the generator (the ``frontend``
    stage), enter the pipeline at ``calyx`` through a content-fingerprinted
    session, and print the same tables the Filament path gets."""
    if args.upto == "check":
        print(f"error: the {args.frontend} frontend enters the pipeline at "
              f"the calyx stage; --upto check is a Filament-only stage",
              file=sys.stderr)
        return 1
    upto = args.upto
    try:
        began = time.perf_counter()
        adapter = frontend_source(args.frontend, args.source)
        bundle = adapter.bundle()
        session = bundle.session()
        session._record("frontend", time.perf_counter() - began)
        entrypoint = args.entry or bundle.name
        artifact = session.compile(entrypoint, upto=upto)
    except FilamentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    text = artifact if isinstance(artifact, str) else str(artifact)
    designation = args.source or "<default>"
    print(f"{args.frontend} {designation}: compiled {entrypoint!r} up to "
          f"{upto} (bundle fingerprint {bundle.fingerprint[:12]})")
    return _report(args, session, text)


if __name__ == "__main__":
    sys.exit(main())
