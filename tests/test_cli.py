import json
from pathlib import Path

import pytest

from disaggsim import cli, metrics
from disaggsim.engine import run_simulation
from disaggsim.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, main)
from disaggsim.models import builtin_catalog
from disaggsim.presets import get_preset
from disaggsim.simconfig import save_system_config, system_from_dict
from disaggsim.workload import WorkloadSpec, generate_poisson, save_trace


def run(tmp_path, *argv) -> int:
    return main(["--out-dir", str(tmp_path), *argv])


@pytest.fixture
def workload_file(tmp_path) -> Path:
    spec = WorkloadSpec(rate_lambda=1.0, num_requests=3, prompt_tokens=22,
                        images_per_request=1, resolution=(4032, 3024),
                        output_tokens=4, seed=1)
    path = tmp_path / "wl.csv"
    save_trace(path, generate_poisson(spec))
    return path


HARDWARE = {"gpu_memory": 82e9, "intra_node_bandwidth": 300e9,
            "inter_node_bandwidth": 25e9, "num_gpus": 8}
SHAPE_CONFIG = {"model": "minicpm-v-2.6", "hardware": HARDWARE, "shape": "1E1P1D",
                "max_batch": {"D": 8}}


@pytest.fixture
def config_file(tmp_path) -> Path:
    config = system_from_dict(SHAPE_CONFIG, builtin_catalog())
    path = tmp_path / "config.json"
    save_system_config(path, config)
    return path


@pytest.mark.parametrize("option, data, field", [
    ("--config", {**SHAPE_CONFIG, "kv_fraction": "0.3"}, "kv_fraction"),
    ("--config", {**SHAPE_CONFIG, "tp": {"E": 0}}, "tp"),
    ("--config", {**SHAPE_CONFIG, "hardware": {**HARDWARE, "gpu_memory": -1}}, "gpu_memory"),
    ("--config", {**SHAPE_CONFIG, "cost": {"decode_base": float("nan")}}, "decode_base"),
    ("--config", {**SHAPE_CONFIG, "cost": {"decode_base": float("inf")}}, "decode_base"),
    ("--config", {**SHAPE_CONFIG, "cost": {"enc_base": 0}}, "enc_base"),
    ("--config", {**SHAPE_CONFIG, "shape": "1X2P"}, "shape"),
    ("--switch-params", {"monitor_interval": -1}, "monitor_interval"),
    ("--space", {"gpu_budget": "8"}, "gpu_budget"),
    ("--config", {**SHAPE_CONFIG, "role_max_batch": {"D": 0}}, "role_max_batch"),
    ("--config", {**SHAPE_CONFIG, "block_size": 0}, "block_size"),
    ("--config", {**SHAPE_CONFIG, "mm_cache_tokens": -16}, "mm_cache_tokens"),
    ("--config", {**SHAPE_CONFIG, "kv_fraction": 1.5}, "kv_fraction"),
    ("--space", {"gpu_budget": 8, "encode_batches": [0]}, "encode_batches"),
    ("--space", {"gpu_budget": 8, "decode_gpus": []}, "decode_gpus"),
], ids=["kv_fraction", "tp", "gpu_memory", "decode_base-nan", "decode_base-inf", "enc_base-0",
        "shape", "monitor_interval", "gpu_budget", "role_max_batch-0", "block_size-0",
        "mm_cache_tokens-negative", "kv_fraction-1.5", "encode_batches-0", "decode_gpus-empty"])
def test_malformed_value_is_parse_error(tmp_path, workload_file, capsys, option, data, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = {
        "--config": ["simulate", "--config", str(path), "--workload", str(workload_file)],
        "--switch-params": ["simulate", "--preset", "switch-shifted",
                            "--switch-params", str(path)],
        "--space": ["optimize", "--space", str(path), "--trials", "1"],
    }[option]
    assert run(tmp_path, *argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(path) in err and field in err


# Each input flag's command, with ``{path}`` for the file under test.
INPUT_FILE_ARGV = {
    "--config": ["simulate", "--config", "{path}", "--workload", "{workload}"],
    "--workload": ["simulate", "--config", "{config}", "--workload", "{path}"],
    "--catalog": ["simulate", "--catalog", "{path}", "--config", "{config}",
                  "--workload", "{workload}"],
    "capacity --catalog": ["capacity", "--catalog", "{path}"],
    "--switch-params": ["simulate", "--preset", "switch-shifted", "--switch-params", "{path}"],
    "--space": ["optimize", "--space", "{path}", "--trials", "1"],
}


@pytest.mark.parametrize("option, content", [
    *((option, None) for option in INPUT_FILE_ARGV),
    ("--catalog", "encoder_params = 1\n"),
    ("capacity --catalog", "[m]\nencoder_params = x\n"),
], ids=[*(f"missing {option}" for option in INPUT_FILE_ARGV),
        "catalog without section header", "catalog with non-integer field"])
def test_unreadable_input_file_is_parse_error(tmp_path, config_file, workload_file, capsys,
                                              option, content):
    path = tmp_path / "input.file"
    if content is not None:
        path.write_text(content)
    argv = [arg.format(path=path, config=config_file, workload=workload_file)
            for arg in INPUT_FILE_ARGV[option]]
    assert run(tmp_path, *argv) == EXIT_PARSE
    assert str(path) in capsys.readouterr().err


WORKLOAD = ("workload", "--rate", "1", "--num-requests", "5", "--seed", "1")
SWEEP = ("sweep", "--preset", "ttft-minicpm-2img")


@pytest.mark.parametrize("command, flag, value", [
    (("ablate", "optimizer"), "--trials", "0"),
    (("ablate", "optimizer"), "--beta", "-1"),
    (("optimize",), "--trials", "0"),
    (("optimize",), "--beta", "-1"),
    (("optimize",), "--rate-grid", "0.5,-1"),
    (("optimize",), "--rate-grid", "1,1"),
    (SWEEP, "--rate-grid", "0.5,0.25"),
    (SWEEP, "--rate-grid", ","),
    (WORKLOAD, "--num-requests", "-5"),
    (WORKLOAD, "--rate", "-1"),
    (WORKLOAD, "--rate", "inf"),
    (WORKLOAD, "--output-tokens", "0"),
    (WORKLOAD, "--prompt-tokens", "-4"),
    (WORKLOAD, "--images", "-1"),
    (WORKLOAD, "--seed", "-1"),
    (("workload", "--rate", "1", "--num-requests", "5", "--seed", "1", "--images", "1"),
     "--resolution", "0x100"),
    (("simulate", "--preset", "switch-shifted"), "--seed", "-1"),
    (("simulate", "--preset", "switch-shifted"), "--workload-rate", "nan"),
    (("capacity",), "--images", "0"),
    (("capacity",), "--prompt-tokens", "-4"),
    (("capacity",), "--kv-fraction", "1.5"),
    (("capacity",), "--act-bytes", "-1"),
    (SWEEP, "--threshold", "2"),
    (SWEEP, "--threshold", "-1"),
    (SWEEP, "--threshold", "0"),
], ids=lambda case: case if isinstance(case, str) else case[0])
def test_out_of_range_number_is_parse_error(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        run(tmp_path, *command, f"{flag}={value}")
    assert excinfo.value.code == EXIT_PARSE
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir()), "a rejected command wrote output"


@pytest.mark.parametrize("command", [("simulate", "--preset", "switch-shifted"), WORKLOAD],
                         ids=["simulate", "workload"])
def test_slo_flag_is_gone(tmp_path, capsys, command):
    """A workload spec is the only home of an SLO; no command takes one."""
    with pytest.raises(SystemExit) as excinfo:
        run(tmp_path, *command, "--slo", "5.0,0.1")
    assert excinfo.value.code == EXIT_PARSE
    assert "--slo" in capsys.readouterr().err
    assert not any(tmp_path.iterdir()), "a rejected command wrote output"


class TestSimulate:
    def test_single_run_smoke(self, tmp_path, config_file, workload_file):
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(workload_file))
        assert code == EXIT_OK
        summary = (tmp_path / "simulate-run-summary.csv").read_text().splitlines()
        assert summary[0].startswith("rid,")
        assert len(summary) == 4  # header + three requests
        assert (tmp_path / "simulate-run-events.jsonl").exists()
        meta = json.loads((tmp_path / "simulate-meta.json").read_text())
        assert "config_hash" in meta

    def test_preset_run(self, tmp_path):
        code = run(tmp_path, "simulate", "--preset", "ttft-minicpm-2img",
                   "--system", "epd")
        assert code == EXIT_OK
        assert (tmp_path / "simulate-epd-summary.csv").exists()

    def test_infeasible_config_exit_code(self, tmp_path, config_file, workload_file):
        data = json.loads(config_file.read_text())
        data["instances"] = [
            {"role": "E", "tp": 8}, {"role": "P", "tp": 8}, {"role": "D", "tp": 8}]
        bad = config_file.parent / "bad.json"
        bad.write_text(json.dumps(data))
        code = run(tmp_path, "simulate", "--config", str(bad),
                   "--workload", str(workload_file))
        assert code == EXIT_INFEASIBLE

    def test_workload_rate_regenerates_arrivals(self, tmp_path, config_file, workload_file):
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(workload_file),
                   "--workload-rate", "4.0", "--seed", "3")
        assert code == EXIT_OK

    def test_workload_rate_without_seed_is_parse_error(self, tmp_path, config_file,
                                                       workload_file):
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(workload_file),
                   "--workload-rate", "4.0")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("rate", ["0", "-1"])
    def test_non_positive_workload_rate_is_parse_error(self, tmp_path, config_file,
                                                       workload_file, capsys, rate):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "simulate", "--config", str(config_file),
                "--workload", str(workload_file),
                f"--workload-rate={rate}", "--seed", "3")
        assert excinfo.value.code == EXIT_PARSE
        assert "--workload-rate" in capsys.readouterr().err

    def test_malformed_workload_exit_code(self, tmp_path, config_file):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,arrival,prompt_tokens,num_images,width,height,output_tokens\n"
                       "0,zero,22,0,0,0,4\n")
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(bad))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("arrival", ["nan", "inf", "0.25"])
    def test_bad_arrival_is_parse_error_naming_the_line(self, tmp_path, config_file,
                                                        capsys, arrival):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,arrival,prompt_tokens,num_images,width,height,output_tokens\n"
                       "0,0.5,22,0,0,0,4\n"
                       f"1,{arrival},22,0,0,0,4\n"
                       "2,2.0,22,0,0,0,4\n")
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(bad))
        assert code == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err
        # Regenerated arrivals replace an out-of-order one, not a non-finite one.
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(bad),
                   "--workload-rate", "4.0", "--seed", "3")
        assert code == (EXIT_OK if arrival == "0.25" else EXIT_PARSE)

    def test_unknown_preset_is_parse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "simulate", "--preset", "no-such-preset")
        assert excinfo.value.code == EXIT_PARSE

    def test_unknown_system_label_is_parse_error(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--preset", "ttft-minicpm-2img",
                   "--system", "no-such-system")
        assert code == EXIT_PARSE
        assert "unknown system" in capsys.readouterr().err

    def test_unknown_model_in_config_is_parse_error(self, tmp_path, config_file,
                                                    workload_file):
        data = json.loads(config_file.read_text())
        data["model"] = "no-such-model"
        config_file.write_text(json.dumps(data))
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(workload_file))
        assert code == EXIT_PARSE

    def test_unknown_config_key_is_parse_error(self, tmp_path, config_file, workload_file,
                                               capsys):
        data = json.loads(config_file.read_text())
        data["kv_fration"] = 0.3
        config_file.write_text(json.dumps(data))
        code = run(tmp_path, "simulate", "--config", str(config_file),
                   "--workload", str(workload_file))
        assert code == EXIT_PARSE
        assert "kv_fration" in capsys.readouterr().err

    def test_config_hash_covers_inputs_only(self, tmp_path):
        def meta(out, *flags):
            assert run(out, "simulate", "--preset", "switch-shifted", *flags) == EXIT_OK
            return json.loads((out / "simulate-meta.json").read_text())

        first, second = meta(tmp_path / "a"), meta(tmp_path / "b")
        off = meta(tmp_path / "c", "--role-switch", "off")
        assert first["outputs"] != second["outputs"]
        assert first["config_hash"] == second["config_hash"]
        assert off["config_hash"] != first["config_hash"]
        assert first["systems"]["epd"]["role_switch"]["cooldown"] == 4.0
        assert off["systems"]["epd"]["role_switch"] is None

    def test_config_hash_reads_workload_contents_not_paths(self, tmp_path, config_file,
                                                           workload_file):
        copy = tmp_path / "copy.csv"
        copy.write_bytes(workload_file.read_bytes())

        def meta(out, workload, *flags):
            assert run(out, "simulate", "--config", str(config_file), "--workload",
                       str(workload), *flags) == EXIT_OK
            return json.loads((out / "simulate-meta.json").read_text())

        first, moved = meta(tmp_path / "a", workload_file), meta(tmp_path / "b", copy)
        regenerated = meta(tmp_path / "c", workload_file, "--workload-rate", "4.0",
                           "--seed", "0")
        assert first["workload"] != moved["workload"]
        assert first["config_hash"] == moved["config_hash"]
        assert regenerated["config_hash"] != first["config_hash"]

    def test_internal_key_error_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "run_simulation", broken)
        code = run(tmp_path, "simulate", "--preset", "ttft-minicpm-2img", "--system", "epd")
        assert code == EXIT_RUNTIME
        assert "parse error" not in capsys.readouterr().err

    def test_invalid_trace_is_not_exported(self, tmp_path, monkeypatch, capsys):
        simulate = cli.run_simulation

        def broken(*args, **kwargs):
            trace = simulate(*args, **kwargs)
            trace.completed_records()[0].token_times.pop()
            return trace

        monkeypatch.setattr(cli, "run_simulation", broken)
        code = run(tmp_path, "simulate", "--preset", "ttft-minicpm-2img", "--system", "epd")
        assert code == EXIT_RUNTIME
        assert "token times" in capsys.readouterr().err
        assert not (tmp_path / "simulate-epd-summary.csv").exists()
        assert not (tmp_path / "simulate-epd-events.jsonl").exists()


class TestSweep:
    def test_rerun_byte_identical(self, tmp_path):
        args = ("sweep", "--preset", "ttft-minicpm-2img", "--rate-grid", "0.25,0.5")
        assert run(tmp_path / "a", *args) == EXIT_OK
        assert run(tmp_path / "b", *args) == EXIT_OK
        for name in ("sweep-ttft-minicpm-2img-epd.csv",
                     "sweep-ttft-minicpm-2img-distserve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_threshold_of_one_is_accepted(self, tmp_path):
        assert run(tmp_path, "sweep", "--preset", "ttft-minicpm-2img", "--rate-grid", "0.25",
                   "--threshold", "1") == EXIT_OK
        meta = json.loads((tmp_path / "sweep-ttft-minicpm-2img-meta.json").read_text())
        assert meta["attainment_threshold"] == 1.0

    def test_threshold_recorded_in_metadata(self, tmp_path):
        assert run(tmp_path, "goodput", "--preset", "ttft-minicpm-2img",
                   "--rate-grid", "0.25") == EXIT_OK
        meta = json.loads((tmp_path / "goodput-ttft-minicpm-2img-meta.json").read_text())
        assert meta["attainment_threshold"] == 0.9

    def test_csv_shape(self, tmp_path):
        assert run(tmp_path, "sweep", "--preset", "ttft-minicpm-2img",
                   "--rate-grid", "0.25") == EXIT_OK
        rows = (tmp_path / "sweep-ttft-minicpm-2img-epd.csv").read_text().splitlines()
        assert rows[0].split(",")[:5] == ["system", "model", "images_per_request",
                                          "rate_per_gpu", "attainment"]
        assert rows[1].startswith("epd,minicpm-v-2.6,2,")

    @pytest.mark.parametrize("command", ["sweep", "goodput"])
    @pytest.mark.parametrize("grid", [(), ("--rate-grid", "0.5,1,2")], ids=["preset", "flag"])
    def test_preset_without_rate_grid_is_parse_error(self, tmp_path, capsys, command, grid):
        """offline-throughput's requests all arrive at 0 whatever the rate, so
        every grid point would simulate the same trace."""
        assert run(tmp_path, command, "--preset", "offline-throughput", *grid) == EXIT_PARSE
        assert "offline-throughput" in capsys.readouterr().err
        assert not any(tmp_path.iterdir()), "a rejected sweep wrote output"


class TestCapacity:
    def test_capacity_table(self, tmp_path):
        code = run(tmp_path, "capacity", "--model", "internvl2-8b",
                   "--resolution", "4032x3024", "--images", "10")
        assert code == EXIT_OK
        rows = (tmp_path / "capacity.csv").read_text().splitlines()
        assert rows[0] == "model,shape,resolution,metric,value,limiting_factor"
        image_rows = [r for r in rows if "max_images_per_request" in r
                      and r.startswith("internvl2-8b,prefill")]
        assert image_rows and ",19,context_length" in image_rows[0]

    def test_unknown_model_is_parse_error(self, tmp_path):
        assert run(tmp_path, "capacity", "--model", "no-such-model") == EXIT_PARSE


class TestWorkloadCommand:
    def test_generates_loadable_trace(self, tmp_path):
        code = run(tmp_path, "workload", "--rate", "2.0", "--num-requests", "5",
                   "--images", "1", "--resolution", "313x234", "--seed", "9")
        assert code == EXIT_OK
        from disaggsim.workload import load_trace
        requests = load_trace(tmp_path / "workload.csv")
        assert len(requests) == 5

    def test_config_hash_covers_every_parameter(self, tmp_path):
        def meta(out, *flags):
            assert run(out, "workload", "--rate", "2.0", "--num-requests", "5",
                       "--seed", "9", *flags) == EXIT_OK
            return json.loads((out / "workload-meta.json").read_text())

        plain, images = meta(tmp_path / "a"), meta(tmp_path / "b", "--images", "3")
        assert plain["images_per_request"] == 0 and images["images_per_request"] == 3
        assert plain["config_hash"] != images["config_hash"]
        assert "slo" not in plain  # the trace it describes holds none

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "workload", "--rate", "2.0", "--num-requests", "5")
        assert excinfo.value.code == EXIT_PARSE


class TestOptimize:
    def test_goodput_objective_without_rate_grid_is_parse_error(self, tmp_path, capsys):
        assert run(tmp_path, "optimize", "--preset", "offline-throughput",
                   "--trials", "1") == EXIT_PARSE
        assert "--rate-grid" in capsys.readouterr().err
        assert not (tmp_path / "optimize-best.json").exists()

    def test_optimize_writes_config_and_log(self, tmp_path):
        code = run(tmp_path, "optimize", "--trials", "4", "--seed", "1",
                   "--strategy", "random", "--rate-grid", "0.4,0.8")
        assert code == EXIT_OK
        best = json.loads((tmp_path / "optimize-best.json").read_text())
        assert best["model"] == "minicpm-v-2.6"
        log = (tmp_path / "optimize-log.csv").read_text().splitlines()
        assert len(log) == 5  # header + four trials
        catalog = builtin_catalog()
        config = system_from_dict(best, catalog)
        config.validate()

    def test_optimize_scores_the_presets_requests(self, tmp_path, monkeypatch):
        outputs = []

        def recording(config, requests, seed=0):
            outputs.append(sorted({r.output_tokens for r in requests}))
            return run_simulation(config, requests, seed=seed)
        monkeypatch.setattr(metrics, "run_simulation", recording)
        code = run(tmp_path, "optimize", "--preset", "switch-shifted", "--objective",
                   "neg_mean_ttft", "--strategy", "random", "--trials", "2", "--seed", "0")
        assert code == EXIT_OK
        assert outputs and all(tokens == [50, 500] for tokens in outputs), outputs

    def test_optimize_without_seed_simulates_the_presets_workload(self, tmp_path, monkeypatch):
        workloads = []

        def recording(config, requests, seed=0):
            workloads.append((list(requests), seed))
            return run_simulation(config, requests, seed=seed)
        monkeypatch.setattr(metrics, "run_simulation", recording)
        code = run(tmp_path, "optimize", "--preset", "switch-shifted", "--objective",
                   "neg_mean_ttft", "--strategy", "random", "--trials", "1")
        assert code == EXIT_OK
        preset = get_preset("switch-shifted")
        expected = (preset.generate(preset.workload), preset.workload.seed)
        assert workloads and all(w == expected for w in workloads)
        meta = json.loads((tmp_path / "optimize-meta.json").read_text())
        assert meta["seed"] == preset.workload.seed

    def test_optimize_with_space_file(self, tmp_path):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "gpu_budget": 8, "budget_mode": "at_most",
            "encode_gpus": [4], "prefill_gpus": [2], "decode_gpus": [2],
            "irp_choices": [True], "encode_batches": [1], "prefill_batches": [1],
            "decode_batches": [8],
        }))
        code = run(tmp_path, "optimize", "--space", str(space_file),
                   "--strategy", "exhaustive", "--trials", "1", "--seed", "0",
                   "--objective", "neg_mean_ttft")
        assert code == EXIT_OK
        best = json.loads((tmp_path / "optimize-best.json").read_text())
        widths = {(i["role"], i["tp"]) for i in best["instances"]}
        assert ("E", 4) in widths


class TestSwitchArtifacts:
    def test_switch_log_csv_written(self, tmp_path):
        code = run(tmp_path, "simulate", "--preset", "switch-shifted")
        assert code == EXIT_OK
        log = (tmp_path / "simulate-epd-switches.csv").read_text().splitlines()
        assert log[0] == ("time,instance_id,source,target,redistributed,"
                          "offload_done,migration_done,onload_done")
        assert len(log) >= 2

    def test_role_switch_off_flag(self, tmp_path):
        code = run(tmp_path, "simulate", "--preset", "switch-shifted",
                   "--role-switch", "off")
        assert code == EXIT_OK
        assert not (tmp_path / "simulate-epd-switches.csv").exists()

    def test_switch_params_file_overrides(self, tmp_path):
        params = tmp_path / "controller.json"
        params.write_text(json.dumps({
            "monitor_interval": 1.0, "imbalance_threshold": 4.0, "smoothing": 4.0,
            "min_instances_per_stage": 2, "cooldown": 4.0,
            "stage_work_scale": {"E": 10.0, "P": 662.0, "D": 1.0},
        }))
        code = run(tmp_path, "simulate", "--preset", "switch-shifted",
                   "--switch-params", str(params))
        assert code == EXIT_OK
        assert (tmp_path / "simulate-epd-switches.csv").exists()

    def test_unknown_switch_param_is_parse_error(self, tmp_path, capsys):
        params = tmp_path / "controller.json"
        params.write_text(json.dumps({"monitor_interval": 1.0, "no_such_key": 3}))
        code = run(tmp_path, "simulate", "--preset", "switch-shifted",
                   "--switch-params", str(params))
        assert code == EXIT_PARSE
        assert "no_such_key" in capsys.readouterr().err
