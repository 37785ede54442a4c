"""The golden conformance corpus.

Interesting generated programs are persisted as small JSON files (one per
seed) under ``tests/corpus/`` so CI replays exactly the same programs
deterministically, independent of any future change to the generator's
random choices.  An entry stores the full :class:`ProgramSpec` (the source
of truth), the seed and config that originally produced it, and a digest of
the printed surface text — a replay fails loudly if the builder or printer
ever starts producing different hardware for the same spec.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..core.errors import FilamentError
from .generator import GeneratedProgram, GeneratorConfig, ProgramSpec, build

__all__ = ["CorpusError", "corpus_entry", "write_entry", "load_entries",
           "replay_entry", "CORPUS_VERSION"]

CORPUS_VERSION = 1


class CorpusError(FilamentError):
    """A corrupt or stale corpus entry."""


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def corpus_entry(generated: GeneratedProgram,
                 seed: Optional[int] = None,
                 config: Optional[GeneratorConfig] = None,
                 note: str = "") -> dict:
    """Build the JSON-able corpus entry for one generated program."""
    entry = {
        "version": CORPUS_VERSION,
        "seed": seed,
        "note": note,
        "statements": generated.statements(),
        "digest": text_digest(generated.text()),
        "spec": generated.spec.to_dict(),
    }
    if config is not None:
        entry["config"] = config.to_dict()
    return entry


def write_entry(directory: Union[str, Path], entry: dict) -> Path:
    """Write one entry as ``<name>.json`` in ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = entry["spec"]["name"].lower()
    path = directory / f"{name}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_entries(location: Union[str, Path]) -> List[Tuple[Path, dict]]:
    """The corpus entry in the file ``location``, or every entry in the
    directory ``location``, sorted by file name."""
    location = Path(location)
    entries: List[Tuple[Path, dict]] = []
    for path in ([location] if location.is_file()
                 else sorted(location.glob("*.json"))):
        try:
            entry = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise CorpusError(f"{path}: not valid JSON ({error})") from None
        if entry.get("version") != CORPUS_VERSION:
            raise CorpusError(
                f"{path}: corpus version {entry.get('version')!r} != "
                f"{CORPUS_VERSION}")
        entries.append((path, entry))
    return entries


def replay_entry(entry: dict) -> GeneratedProgram:
    """Rebuild the program recorded by ``entry`` from its spec, verifying
    the surface-text digest so silent builder/printer drift is caught."""
    spec = ProgramSpec.from_dict(entry["spec"])
    generated = build(spec)
    digest = text_digest(generated.text())
    if digest != entry["digest"]:
        raise CorpusError(
            f"corpus entry {spec.name}: digest {digest} != recorded "
            f"{entry['digest']} — the builder or printer changed what this "
            f"spec means; regenerate the corpus deliberately"
        )
    return generated
