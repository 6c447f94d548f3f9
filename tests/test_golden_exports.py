"""Byte-for-byte regression check of every preset system's simulate exports.

``golden_exports.json`` holds the sha256 of ``events.jsonl``, ``summary.csv``
and (when the run switched roles) ``switches.csv`` that ``disaggsim simulate
--preset NAME`` writes for every system of every preset at its preset seed.
Any engine change that alters a single byte of these files fails here.

After a deliberate output change, re-record with::

    PYTHONPATH=src python tests/test_golden_exports.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from disaggsim.cli import EXIT_OK, main
from disaggsim.presets import preset_names

GOLDEN = Path(__file__).with_name("golden_exports.json")
_SUFFIXES = ("events.jsonl", "summary.csv", "switches.csv")


def export_digests(preset: str, out: Path) -> dict[str, str]:
    """Run ``simulate --preset`` into ``out``; sha256 per exported file name."""
    assert main(["--out-dir", str(out), "simulate", "--preset", preset]) == EXIT_OK
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name.endswith(_SUFFIXES)}


@pytest.mark.parametrize("preset", preset_names())
def test_simulate_exports_match_golden(preset, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert export_digests(preset, tmp_path) == golden[preset]


def test_golden_covers_every_preset():
    assert sorted(json.loads(GOLDEN.read_text())) == preset_names()


if __name__ == "__main__":
    digests = {}
    for name in preset_names():
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = export_digests(name, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests for {len(digests)} presets "
          f"to {GOLDEN}", file=sys.stderr)
