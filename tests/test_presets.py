import dataclasses

import pytest

from disaggsim import cli, metrics as metrics_module
from disaggsim.metrics import request_metrics
from disaggsim.engine import run_simulation
from disaggsim.presets import DEFAULT_SEED, SLO_TABLE, get_preset, preset_names, slo_for
from disaggsim.workload import Slo, generate_poisson


def test_slo_table_values():
    assert slo_for("minicpm-v-2.6", 2) == Slo(1.40, 0.04)
    assert slo_for("minicpm-v-2.6", 4) == Slo(2.60, 0.04)
    assert slo_for("internvl2-8b", 8) == Slo(5.00, 0.18)
    assert slo_for("internvl2-26b", 6) == Slo(11.00, 0.95)
    assert len(SLO_TABLE) == 12


def test_unknown_slo_entry_raises():
    with pytest.raises(KeyError):
        slo_for("minicpm-v-2.6", 3)


def test_online_presets_follow_protocol():
    preset = get_preset("slo-minicpm-4img")
    spec = preset.workload
    assert spec.num_requests == 100
    assert spec.output_tokens == 10
    assert spec.prompt_tokens == 22
    assert spec.resolution == (4032, 3024)
    assert spec.images_per_request == 4
    assert preset.slo == slo_for("minicpm-v-2.6", 4)


def test_every_preset_is_well_formed():
    for name in preset_names():
        preset = get_preset(name)
        assert list(preset.rate_grid) == sorted(set(preset.rate_grid)), name
        for label, config in preset.systems.items():
            config.validate()
            assert config.gpu_count <= preset.hardware.num_gpus, (name, label)


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_uses_the_default_seed(name):
    # so that a command without --seed runs every preset, and every ablation, on one seed
    assert get_preset(name).workload.seed == DEFAULT_SEED


@pytest.mark.parametrize("name", preset_names())
def test_a_preset_is_named_as_it_is_looked_up(name):
    # the commands name their files after preset.name
    assert get_preset(name).name == name


def test_preset_systems_use_single_request_batches_for_latency_runs():
    preset = get_preset("slo-minicpm-2img")
    for config in preset.systems.values():
        assert all(inst.max_batch == 1 for inst in config.instances)


def recording(monkeypatch, module) -> list[list]:
    """Record the requests of every ``run_simulation`` call made through ``module``."""
    calls = []

    def run(config, requests, seed=0):
        calls.append(list(requests))
        return run_simulation(config, requests, seed=seed)
    monkeypatch.setattr(module, "run_simulation", run)
    return calls


@pytest.mark.parametrize("name", preset_names())
def test_simulate_runs_the_presets_own_requests(name, monkeypatch, tmp_path):
    preset = get_preset(name)
    calls = recording(monkeypatch, cli)
    args = ["--out-dir", str(tmp_path), "simulate", "--preset", name, "--seed", "5"]
    if preset.systems:
        args += ["--system", sorted(preset.systems)[0]]
    assert cli.main(args) == cli.EXIT_OK
    expected = preset.generate(dataclasses.replace(preset.workload, seed=5))
    assert calls == ([expected] if preset.systems else [])


def test_sweep_of_switch_shifted_simulates_the_shift(monkeypatch, tmp_path):
    calls = recording(monkeypatch, metrics_module)
    assert cli.main(["--out-dir", str(tmp_path), "sweep", "--preset", "switch-shifted"]) == 0
    assert [[r.output_tokens for r in requests] for requests in calls] == [[50] * 10 + [500] * 90]


def test_simulate_of_offline_throughput_submits_everything_at_zero(monkeypatch, tmp_path):
    calls = recording(monkeypatch, cli)
    assert cli.main(["--out-dir", str(tmp_path), "simulate",
                     "--preset", "offline-throughput"]) == 0
    assert len(calls) == 2
    assert all(len(requests) == 200 for requests in calls)
    assert {r.arrival_time for requests in calls for r in requests} == {0.0}


def test_six_and_eight_image_presets_complete():
    # the heavier image-count presets stay feasible end to end
    for name in ("slo-minicpm-8img", "slo-internvl26-6img"):
        preset = get_preset(name)
        spec = dataclasses.replace(preset.workload, num_requests=10,
                                   rate_lambda=preset.rate_grid[0])
        trace = run_simulation(preset.systems["epd"], generate_poisson(spec),
                               seed=preset.workload.seed)
        assert trace.completed_count == 10
        metrics = request_metrics(trace, preset.slo)
        assert all(m.ttft < preset.slo.ttft for m in metrics), name
