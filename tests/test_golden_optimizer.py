"""Byte-for-byte regression check of the optimizer's written outputs.

``golden_optimizer.json`` holds the sha256 of ``optimize-log.csv`` and
``optimize-best.json`` that ``disaggsim optimize`` writes for a small
two-policy search space under each search strategy. Any change to the
enumeration order, the random draws, the candidate columns or the deployed
systems fails here.

After a deliberate output change, re-record with::

    PYTHONPATH=src python tests/test_golden_optimizer.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from disaggsim.cli import EXIT_OK, main
from disaggsim.optimizer import Strategy

GOLDEN = Path(__file__).with_name("golden_optimizer.json")
SPACE = {"gpu_budget": 8, "budget_mode": "at_most", "encode_gpus": [4, 5],
         "prefill_gpus": [1, 2], "decode_gpus": [1, 2], "irp_choices": [True, False],
         "encode_batches": [1], "prefill_batches": [1], "decode_batches": [8],
         "policies": ["fcfs", "least_loaded"]}
STRATEGIES = [s.value for s in Strategy]


def optimize_digests(strategy: str, out: Path) -> dict[str, str]:
    """Run ``optimize`` over ``SPACE`` into ``out``; sha256 per written file."""
    space = out / "space.json"
    space.write_text(json.dumps(SPACE))
    assert main(["--out-dir", str(out), "optimize", "--space", str(space),
                 "--objective", "neg_mean_ttft", "--trials", "6", "--seed", "1",
                 "--strategy", strategy]) == EXIT_OK
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("optimize-log.csv", "optimize-best.json")}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_optimize_outputs_match_golden(strategy, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert optimize_digests(strategy, tmp_path) == golden[strategy]


def test_golden_covers_every_strategy():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(STRATEGIES)


if __name__ == "__main__":
    digests = {}
    for name in STRATEGIES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = optimize_digests(name, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests for {len(digests)} strategies "
          f"to {GOLDEN}", file=sys.stderr)
