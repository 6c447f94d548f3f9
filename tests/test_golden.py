"""Byte-for-byte regression check of every file the CLI writes.

``golden.json`` holds, for each row of ``TABLE``, the sha256 of every file
that ``disaggsim --out-dir out <argv>`` writes when run in an empty
directory. A meta sidecar (``*-meta.json``) is hashed without its
``created`` line; the relative ``--out-dir`` keeps the paths it records the
same in every directory. Any change that alters a single byte of an
artifact fails here.

After a deliberate output change, re-record with::

    PYTHONPATH=src python tests/test_golden.py

which prints every (row, file) whose digest changed, appeared or
disappeared; declare those lines in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from disaggsim.cli import EXIT_OK, build_parser, main
from disaggsim.optimizer import Metric, Strategy
from disaggsim.presets import preset_names

GOLDEN = Path(__file__).with_name("golden.json")
OUT = "out"
# A small two-policy search space, written as ``space.json`` before each
# ``optimize`` row runs.
SPACE = {"gpu_budget": 8, "budget_mode": "at_most", "encode_gpus": [4, 5],
         "prefill_gpus": [1, 2], "decode_gpus": [1, 2], "irp_choices": [True, False],
         "encode_batches": [1], "prefill_batches": [1], "decode_batches": [8],
         "policies": ["fcfs", "least_loaded"]}
_OBJECTIVE_ARGS = {Metric.NEG_MEAN_TTFT: ["--trials", "6"],
                   Metric.GOODPUT: ["--trials", "4", "--rate-grid", "0.5,1"],
                   Metric.THROUGHPUT: ["--trials", "4"]}

TABLE: dict[str, list[str]] = {
    **{f"simulate-{p}": ["simulate", "--preset", p] for p in preset_names()},
    **{f"optimize-{s.value}-{m.value}": [
        "optimize", "--space", "space.json", "--objective", m.value, "--seed", "1",
        "--strategy", s.value, *_OBJECTIVE_ARGS[m]] for m in Metric for s in Strategy},
    **{f"sweep-{p}": ["sweep", "--preset", p]
       for p in ("encode-heavy", "switch-shifted", "ttft-internvl8-4img")},
    "goodput-slo-internvl8-2img": ["goodput", "--preset", "slo-internvl8-2img"],
    **{f"ablate-{w}": ["ablate", w] for w in ("irp", "switch", "offline")},
    "ablate-optimizer": ["ablate", "optimizer", "--trials", "8"],
    "capacity": ["capacity"],
    "workload": ["workload", "--rate", "2", "--num-requests", "20", "--images", "2",
                 "--seed", "3"],
}


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("-meta.json"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b'  "created": '))
    return hashlib.sha256(data).hexdigest()


def row_digests(argv: list[str]) -> dict[str, str]:
    """Run ``argv`` in the current (empty) directory; sha256 per written file."""
    Path("space.json").write_text(json.dumps(SPACE))
    assert main(["--out-dir", OUT, *argv]) == EXIT_OK
    return {path.name: _file_digest(path) for path in sorted(Path(OUT).iterdir())}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_outputs_match_golden(name, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    assert row_digests(TABLE[name]) == golden[name]


def test_golden_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(TABLE)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in TABLE.values()} == set(subparsers.choices)
    assert {argv[2] for argv in TABLE.values() if argv[0] == "simulate"} == set(preset_names())
    searched = {(argv[argv.index("--strategy") + 1], argv[argv.index("--objective") + 1])
                for argv in TABLE.values() if argv[0] == "optimize"}
    assert searched == {(s.value, m.value) for s in Strategy for m in Metric}


def record() -> dict[str, dict[str, str]]:
    digests = {}
    cwd = os.getcwd()
    for name in sorted(TABLE):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(io.StringIO()):  # the commands' reports
                    digests[name] = row_digests(TABLE[name])
            finally:
                os.chdir(cwd)
    return digests


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = record()
    for name in sorted(set(old) | set(new)):
        was, now = old.get(name, {}), new.get(name, {})
        for file in sorted(set(was) | set(now)):
            if file not in now:
                print(f"disappeared {name} {file} {was[file]}")
            elif file not in was:
                print(f"appeared    {name} {file} {now[file]}")
            elif was[file] != now[file]:
                print(f"changed     {name} {file} {was[file]} -> {now[file]}")
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, new.values()))} digests for {len(new)} rows to {GOLDEN}",
          file=sys.stderr)
