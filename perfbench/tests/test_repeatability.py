"""The benchmark's own checks, at small scale.

    python3 -m pytest perfbench/tests -q

Two traced repetitions must give identical count metrics and digests, the
traced digest must equal the untraced one (tracing does not perturb the
simulation), and the coverage check must catch a wrapper that never fires.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from disaggsim import blocks, engine, metrics, trace  # noqa: E402
from perfbench.run import PER_LAYER, consistency_errors, golden_digests, run_rep  # noqa: E402
from perfbench.workloads import (DEFAULT_SEED, SEED_SPACE, WORKLOADS, DecodeSwitch,  # noqa: E402
                                 EncodeOverload, OptimizerSearch, input_seed, input_seeds)

SMALL = {
    "encode-overload": lambda: EncodeOverload(seed=7, num_requests=150),
    "decode-switch": lambda: DecodeSwitch(seed=7, num_requests=100),
    "optimizer-search": lambda: OptimizerSearch(seed=7, trials=4, num_random=2),
}
COUNTS = [metric for metric, unit in PER_LAYER if unit == "count"]


@pytest.fixture(params=sorted(SMALL))
def bench(request):
    workload = SMALL[request.param]()
    workload.setup()
    return workload


def test_traced_repetitions_repeat_counts_and_digests(bench, tmp_path):
    first = run_rep(bench, tmp_path, traced=True)
    second = run_rep(bench, tmp_path, traced=True)
    assert first.errors == [] and second.errors == []
    assert first.layers["missing_spans"] == []
    assert {m: first.layers[m] for m in COUNTS} == {m: second.layers[m] for m in COUNTS}
    assert first.layers["engine.requests"] > 0
    assert first.digest == second.digest
    assert consistency_errors([first, second], None) == (2, [])


def test_tracing_does_not_change_outputs(bench, tmp_path):
    traced = run_rep(bench, tmp_path, traced=True)
    plain = run_rep(bench, tmp_path, traced=False)
    assert plain.errors == []
    assert traced.digest == plain.digest


def test_digest_depends_on_the_seed(tmp_path):
    digests = set()
    for seed in (7, 8):
        workload = EncodeOverload(seed=seed, num_requests=50)
        workload.setup()
        digests.add(run_rep(workload, tmp_path, traced=False).digest)
    assert len(digests) == 2


def test_wrappers_are_removed_after_each_repetition(tmp_path):
    owners = [(engine, "run_simulation"), (engine, "encode_latency"),
              (metrics, "run_simulation"), (blocks.BlockManager, "allocate"),
              (trace.SimTrace, "validate")]
    before = [owner.__dict__[name] for owner, name in owners]
    workload = SMALL["encode-overload"]()
    workload.setup()
    run_rep(workload, tmp_path, traced=True)
    assert [owner.__dict__[name] for owner, name in owners] == before


def test_coverage_check_catches_a_wrapper_that_never_fires(tmp_path):
    workload = EncodeOverload(seed=7, num_requests=50)
    workload.setup()
    workload.required_spans = DecodeSwitch.required_spans   # controller, export
    rep = run_rep(workload, tmp_path, traced=True)
    assert "controller.decide" in rep.layers["missing_spans"]
    _, errors = consistency_errors([rep], None)
    assert any("controller.decide" in error for error in errors)


def test_a_changed_digest_is_an_error(tmp_path):
    workload = SMALL["encode-overload"]()
    workload.setup()
    rep = run_rep(workload, tmp_path, traced=False)
    _, errors = consistency_errors([rep], "0" * 64)
    assert len(errors) == 1 and "digest" in errors[0]


def test_golden_digest_of_the_preset_seed(tmp_path):
    workload = EncodeOverload()
    workload.setup()
    rep = run_rep(workload, tmp_path, traced=False)
    assert [rep.digest] == golden_digests(workload.name, workload.seed)


def test_every_input_seed_has_golden_digests():
    assert input_seed(DEFAULT_SEED) == DEFAULT_SEED
    assert input_seed(SEED_SPACE + 3) == 3
    for name, cls in WORKLOADS.items():
        for seed in input_seeds():
            digests = golden_digests(name, seed)
            assert digests is not None and len(digests) == cls.variants
