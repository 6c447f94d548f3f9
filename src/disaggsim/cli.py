"""Command-line frontend emitting reproducible CSV/JSON artifacts.

Exit codes: 0 success, 1 runtime error, 2 infeasible configuration,
3 parse/usage error (bad arguments, malformed input files, unknown names).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__, ablations, capacity as capacity_mod, metrics as metrics_mod
from .controller import ControllerParams
from .engine import run_simulation
from .models import StageRole, UnknownResolution, builtin_catalog, load_catalog
from .optimizer import (Metric, Objective, Strategy, TrialRecord, load_space, restricted_space,
                        solve)
from .presets import (DEFAULT_SEED, EIGHT_GPU_NODE, HEAVY_ENCODE_ACT_BYTES,
                      HEAVY_PREFILL_ACT_BYTES, get_preset, preset_names)
from .simconfig import (CapacityExceeded, ConfigInfeasible, SystemConfig, disable_irp,
                        from_dict, load_system_config, save_system_config, to_dict)
from .workload import ParseError, WorkloadSpec, generate_poisson, load_trace, save_trace

OUT_DIR_ENV = "DISAGGSIM_OUT_DIR"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3


class InputError(Exception):
    """A user-supplied name or input file the command cannot use."""


def _named(mapping: dict, name: str, what: str):
    try:
        return mapping[name]
    except KeyError:
        raise InputError(f"unknown {what} {name!r}; available: {sorted(mapping)}") from None


def _load_switch_params(path):
    with open(path, "r", encoding="utf-8") as handle:
        return from_dict(ControllerParams, json.load(handle))


def _load_input(loader, path, *args):
    """Read an input file; a file that cannot be read or parsed, a missing key,
    an unknown name or a value of the wrong type or range in it is bad input."""
    try:
        return loader(path, *args)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except KeyError as exc:
        raise InputError(f"{path}: missing or unknown {exc}") from None
    except (TypeError, ValueError, configparser.Error) as exc:
        raise InputError(f"{path}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are parse errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_PARSE)


def _out_dir(args) -> Path:
    path = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _write_meta(path: Path, command: str, inputs: dict, unhashed: Optional[dict] = None) -> None:
    """Write the sidecar: ``inputs`` with their ``config_hash`` (which also
    covers the package version), then ``unhashed`` (results, file locations)."""
    meta = {
        "command": command,
        "config_hash": _digest({**inputs, "version": __version__}),
        "created": datetime.now(timezone.utc).isoformat(),
        **inputs,
        **(unhashed or {}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _write_log(path: Path, log: list[TrialRecord]) -> None:
    """A search log: one row per trial, its candidate's axes sorted by name."""
    fields = ["index", "score", "f_value", "cost_value", "feasible", *sorted(log[0].candidate)]
    _write_csv(path, fields, [{"index": r.index, "score": r.score, "f_value": r.f_value,
                               "cost_value": r.cost_value, "feasible": r.feasible,
                               **r.candidate} for r in log])


def _apply_flags(config, args):
    if getattr(args, "irp", None) == "off":
        config = disable_irp(config)
    if getattr(args, "role_switch", None) == "off":
        config = replace(config, role_switch=None)
    params_file = getattr(args, "switch_params", None)
    if params_file:
        config = replace(config, role_switch=_load_input(_load_switch_params, params_file))
    return config


# --- subcommands --------------------------------------------------------------


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    runs: list[tuple[str, object, list]] = []
    if args.preset:
        preset = get_preset(args.preset)
        seed = args.seed if args.seed is not None else preset.workload.seed
        workload = preset.generate(replace(preset.workload, seed=seed))
        labels = [args.system] if args.system else sorted(preset.systems)
        for label in labels:
            config = _named(preset.systems, label, f"system of preset {args.preset!r}")
            runs.append((label, _apply_flags(config, args), workload))
        inputs = {"preset": args.preset, "seed": seed, "num_requests": len(workload)}
        files = {}
    else:
        if not args.config or not args.workload:
            raise ParseError("--config and --workload required without --preset", 1)
        catalog = _load_input(load_catalog, args.catalog) if args.catalog else builtin_catalog()
        config = _apply_flags(_load_input(load_system_config, args.config, catalog), args)
        if args.workload_rate is not None and args.seed is None:
            raise ParseError("--seed required when regenerating arrivals", 1)
        seed = args.seed or 0
        workload = _load_input(load_trace, args.workload, args.workload_rate, seed)
        runs.append(("run", config, workload))
        inputs = {"seed": seed}
        files = {"config": args.config, "workload": args.workload}
    inputs["systems"] = {label: to_dict(config) for label, config, _ in runs}
    inputs["workload_sha256"] = _digest(to_dict(workload))

    summary_paths = []
    for label, config, workload in runs:
        trace = run_simulation(config, workload, seed=seed)
        trace.validate()
        trace.write_events(out / f"simulate-{label}-events.jsonl")
        trace.write_summary(out / f"simulate-{label}-summary.csv")
        summary_paths.append(str(out / f"simulate-{label}-summary.csv"))
        if trace.switches:
            rows = [to_dict(record) for record in trace.switches]
            _write_csv(out / f"simulate-{label}-switches.csv", list(rows[0].keys()), rows)
        print(f"{label}: completed={trace.completed_count} rejected={trace.rejected_count} "
              f"horizon={trace.horizon:.3f}s switches={len(trace.switches)}")
    _write_meta(out / "simulate-meta.json", "simulate", inputs,
                {**files, "outputs": summary_paths})
    return EXIT_OK


def cmd_sweep(args) -> int:
    preset = get_preset(args.preset)
    if not preset.rate_grid:
        raise InputError(f"preset {preset.name!r} is not rate-swept: "
                         "its requests do not depend on the arrival rate")
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else preset.workload.seed
    spec = replace(preset.workload, seed=seed)
    rate_grid = args.rate_grid or list(preset.rate_grid)
    threshold = args.threshold
    goodputs = {}
    for label in sorted(preset.systems):
        config = _apply_flags(preset.systems[label], args)
        points = metrics_mod.sweep(config, spec, rate_grid, preset.generate)
        rows = [{"system": label, "model": preset.model.name,
                 "images_per_request": spec.images_per_request,
                 "rate_per_gpu": p.rate / preset.hardware.num_gpus,
                 "attainment": p.score.attainment, "mean_ttft": p.score.mean_ttft,
                 "p99_ttft": p.score.p99_ttft, "mean_tpot": p.score.mean_tpot}
                for p in points]
        _write_csv(out / f"{args.command}-{preset.name}-{label}.csv", list(rows[0].keys()), rows)
        goodputs[label] = metrics_mod.goodput_from_sweep(points, threshold)
        print(f"{label}: goodput={goodputs[label]} r/s "
              f"(threshold {threshold:.0%}, grid {rate_grid})")
    _write_meta(out / f"{args.command}-{preset.name}-meta.json", args.command, {
        "preset": preset.name, "seed": seed, "rate_grid": rate_grid,
        "attainment_threshold": threshold,
        "systems": {label: to_dict(_apply_flags(preset.systems[label], args))
                    for label in sorted(preset.systems)},
    }, {"goodput": goodputs})
    return EXIT_OK


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    inputs = {"seed": seed}
    if args.which == "irp":
        rows = ablations.irp_ablation(seed=seed)
        path = out / "ablate-irp.csv"
        _write_csv(path, list(rows[0].keys()), rows)
        for row in rows:
            print(f"images={row['images_per_request']}: ratio={row['ratio']:.2f}")
        results = {"rows": len(rows)}
    elif args.which == "optimizer":
        result = ablations.optimizer_ablation(trials=args.trials, seed=seed, beta=args.beta)
        path = out / "ablate-optimizer.csv"
        rows = [{"kind": "solver", "goodput": result["solver_goodput"],
                 **result["solver_candidate"]}]
        rows += [{"kind": f"random-{r['index']}", "goodput": r["goodput"],
                  **r["candidate"]} for r in result["random_rows"]]
        _write_csv(path, list(rows[0].keys()), rows)
        _write_log(out / "ablate-optimizer-log.csv", result["search_log"])
        print(f"solver goodput={result['solver_goodput']} "
              f"random mean={result['random_mean_goodput']}")
        inputs.update(trials=args.trials, beta=args.beta)
        results = {"solver_goodput": result["solver_goodput"],
                   "random_mean_goodput": result["random_mean_goodput"]}
    elif args.which == "switch":
        result = ablations.switch_ablation(seed=seed)
        path = out / "ablate-switch.csv"
        rows = [
            {"variant": "with_switch", **result["with_switch"]},
            {"variant": "without_switch", **result["without_switch"]},
        ]
        _write_csv(path, list(rows[0].keys()), rows)
        print(f"makespan ratio (switch/no-switch)={result['makespan_ratio']:.3f}")
        results = {"makespan_ratio": result["makespan_ratio"]}
    else:  # offline
        rows = ablations.offline_throughput(seed=seed)
        path = out / "ablate-offline.csv"
        _write_csv(path, list(rows[0].keys()), rows)
        for row in rows:
            if row["sweep"] == "preset":
                print(f"{row['system']}: {row['throughput']:.3f} r/s")
        results = {"rows": len(rows)}
    _write_meta(out / f"ablate-{args.which}-meta.json", f"ablate-{args.which}", inputs,
                results)
    return EXIT_OK


def cmd_capacity(args) -> int:
    out = _out_dir(args)
    catalog = _load_input(load_catalog, args.catalog) if args.catalog else builtin_catalog()
    models = [_named(catalog, args.model, "model")] if args.model else list(catalog.values())
    resolution = args.resolution
    rows = []
    shapes = {
        "aggregated": capacity_mod.DeploymentShape(
            role=StageRole.ENCODE_PREFILL, kv_fraction=args.kv_fraction,
            act_bytes_per_token=args.act_bytes, enc_act_bytes_per_token=args.enc_act_bytes),
        "encode": capacity_mod.DeploymentShape(
            role=StageRole.ENCODE, kv_fraction=args.kv_fraction,
            enc_act_bytes_per_token=args.enc_act_bytes),
        "prefill": capacity_mod.DeploymentShape(
            role=StageRole.PREFILL, kv_fraction=args.kv_fraction,
            act_bytes_per_token=args.act_bytes),
    }
    for model in models:
        for shape_name, shape in shapes.items():
            reports = [
                capacity_mod.max_images_per_request(model, EIGHT_GPU_NODE, shape, resolution,
                                                    prompt_tokens=args.prompt_tokens),
                capacity_mod.max_batch(model, EIGHT_GPU_NODE, shape, args.images, resolution,
                                       prompt_tokens=args.prompt_tokens),
                capacity_mod.max_kv_fraction(model, EIGHT_GPU_NODE, shape, args.images,
                                             resolution, prompt_tokens=args.prompt_tokens),
            ]
            for report in reports:
                rows.append({
                    "model": model.name, "shape": shape_name,
                    "resolution": f"{resolution[0]}x{resolution[1]}",
                    "metric": report.metric, "value": report.label,
                    "limiting_factor": report.limiting_factor.value,
                })
    path = out / "capacity.csv"
    _write_csv(path, ["model", "shape", "resolution", "metric", "value", "limiting_factor"], rows)
    for row in rows:
        print(f"{row['model']} {row['shape']} {row['metric']}: {row['value']} "
              f"({row['limiting_factor']})")
    _write_meta(out / "capacity-meta.json", "capacity", {
        "models": [m.name for m in models],
        "resolution": list(resolution), "images": args.images,
        "kv_fraction": args.kv_fraction,
    })
    return EXIT_OK


def cmd_optimize(args) -> int:
    out = _out_dir(args)
    preset = get_preset(args.preset)
    space = (_load_input(load_space, args.space) if args.space
             else restricted_space(preset.hardware.num_gpus))
    objective = Objective(metric=Metric(args.objective), beta=args.beta)
    rate_grid = args.rate_grid or list(preset.rate_grid)
    if objective.metric is Metric.GOODPUT and not rate_grid:
        raise InputError(f"preset {preset.name!r} has no rate grid for the goodput "
                         "objective; give --rate-grid")
    base = SystemConfig(instances=(), hardware=preset.hardware, model=preset.model,
                        cost=preset.cost)
    seed = args.seed if args.seed is not None else preset.workload.seed
    result = solve(space, replace(preset.workload, seed=seed), objective, base,
                   strategy=Strategy(args.strategy), trials=args.trials, seed=seed,
                   rate_grid=rate_grid, generate=preset.generate)
    best_path = out / "optimize-best.json"
    save_system_config(best_path, result.best_config)
    _write_log(out / "optimize-log.csv", result.log)
    print(f"best score={result.best_score} candidate={result.best_candidate.describe()}")
    _write_meta(out / "optimize-meta.json", "optimize", {
        "preset": preset.name, "objective": args.objective, "beta": args.beta,
        "trials": args.trials, "seed": seed, "strategy": args.strategy,
        "rate_grid": rate_grid, "space": to_dict(space),
    }, {"best_score": result.best_score, "best_config": to_dict(result.best_config)})
    return EXIT_OK


def cmd_workload(args) -> int:
    out = _out_dir(args)
    spec = WorkloadSpec(
        rate_lambda=args.rate, num_requests=args.num_requests,
        prompt_tokens=args.prompt_tokens, images_per_request=args.images,
        resolution=args.resolution if args.images else None,
        output_tokens=args.output_tokens, seed=args.seed)
    requests = generate_poisson(spec)
    path = out / (args.name or "workload.csv")
    save_trace(path, requests)
    print(f"wrote {len(requests)} requests to {path}")
    inputs = to_dict(spec)
    del inputs["slo"]  # the file holds no SLO
    _write_meta(out / "workload-meta.json", "workload", inputs)
    return EXIT_OK


# --- argument plumbing ------------------------------------------------------------


def _ranged(convert, rule: str, accept):
    """An argparse type: ``convert`` the text and require ``accept`` of the
    value, so that a number out of range is a usage error naming its flag."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" wording
    return parse


_AT_LEAST_ONE = _ranged(int, "an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE_INT = _ranged(int, "an integer >= 0", lambda v: v >= 0)
_POSITIVE = _ranged(float, "a finite number > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = _ranged(float, "a finite number >= 0", lambda v: 0 <= v < math.inf)
_FRACTION = _ranged(float, "in (0, 1]", lambda v: 0 < v <= 1)
_UNIT_INTERVAL = _ranged(float, "in [0, 1]", lambda v: 0 <= v <= 1)


def _resolution(text: str) -> tuple[int, int]:
    w, h = text.lower().split("x")
    return _AT_LEAST_ONE(w), _AT_LEAST_ONE(h)


def _rate_grid(text: str) -> list[float]:
    rates = [_POSITIVE(part) for part in text.split(",") if part.strip()]
    if not rates or any(b <= a for a, b in zip(rates, rates[1:])):
        raise argparse.ArgumentTypeError(f"{text!r} is not a strictly increasing list")
    return rates


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disaggsim",
                     description="Simulate and optimize disaggregated multimodal serving")
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (or ${OUT_DIR_ENV}, default ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one preset or config+workload")
    sim.add_argument("--preset", choices=preset_names())
    sim.add_argument("--system", help="restrict a preset to one system label")
    sim.add_argument("--config", help="system config JSON (without --preset)")
    sim.add_argument("--workload", help="workload trace CSV (without --preset)")
    sim.add_argument("--workload-rate", dest="workload_rate", type=_POSITIVE,
                     help="regenerate trace arrivals at this rate (needs --seed)")
    sim.add_argument("--catalog", help="model catalog file")
    sim.add_argument("--seed", type=_NON_NEGATIVE_INT)
    sim.add_argument("--irp", choices=("on", "off"), default="on")
    sim.add_argument("--role-switch", dest="role_switch", choices=("on", "off"), default="on")
    sim.add_argument("--switch-params", dest="switch_params",
                     help="controller parameter JSON overriding the preset")
    sim.set_defaults(func=cmd_simulate)

    for name in ("sweep", "goodput"):
        swp = sub.add_parser(name, help="rate sweep with SLO attainment per system")
        swp.add_argument("--preset", required=True, choices=preset_names())
        swp.add_argument("--rate-grid", type=_rate_grid)
        swp.add_argument("--threshold", type=_FRACTION, default=0.9)
        swp.add_argument("--seed", type=_NON_NEGATIVE_INT)
        swp.add_argument("--irp", choices=("on", "off"), default="on")
        swp.add_argument("--role-switch", dest="role_switch", choices=("on", "off"),
                         default="on")
        swp.set_defaults(func=cmd_sweep)

    abl = sub.add_parser("ablate", help="paired feature on/off comparisons")
    abl.add_argument("which", choices=("irp", "optimizer", "switch", "offline"))
    abl.add_argument("--seed", type=_NON_NEGATIVE_INT)
    abl.add_argument("--trials", type=_AT_LEAST_ONE, default=24)
    abl.add_argument("--beta", type=_NON_NEGATIVE, default=0.075)
    abl.set_defaults(func=cmd_ablate)

    cap = sub.add_parser("capacity", help="feasibility table for deployment shapes")
    cap.add_argument("--model", help="catalog model name (default: all)")
    cap.add_argument("--catalog")
    cap.add_argument("--resolution", type=_resolution, default=(4032, 3024))
    cap.add_argument("--images", type=_AT_LEAST_ONE, default=10)
    cap.add_argument("--prompt-tokens", type=_NON_NEGATIVE_INT, default=22)
    cap.add_argument("--kv-fraction", dest="kv_fraction", type=_UNIT_INTERVAL, default=0.8)
    cap.add_argument("--act-bytes", type=_NON_NEGATIVE, default=HEAVY_PREFILL_ACT_BYTES,
                     help="activation bytes per prefill token")
    cap.add_argument("--enc-act-bytes", type=_NON_NEGATIVE, default=HEAVY_ENCODE_ACT_BYTES,
                     help="activation bytes per multimodal token on encode workers")
    cap.set_defaults(func=cmd_capacity)

    opt = sub.add_parser("optimize", help="search deployment configurations")
    opt.add_argument("--preset", default="optimizer-restricted", choices=preset_names())
    opt.add_argument("--space", help="search-space JSON file (default: restricted preset)")
    opt.add_argument("--objective", default="goodput",
                     choices=[m.value for m in Metric])
    opt.add_argument("--beta", type=_NON_NEGATIVE, default=0.075)
    opt.add_argument("--trials", type=_AT_LEAST_ONE, default=24)
    opt.add_argument("--seed", type=_NON_NEGATIVE_INT)
    opt.add_argument("--strategy", default="surrogate",
                     choices=[s.value for s in Strategy])
    opt.add_argument("--rate-grid", type=_rate_grid)
    opt.set_defaults(func=cmd_optimize)

    wl = sub.add_parser("workload", help="generate and export a Poisson workload")
    wl.add_argument("--rate", type=_POSITIVE, required=True)
    wl.add_argument("--num-requests", type=_AT_LEAST_ONE, required=True)
    wl.add_argument("--images", type=_NON_NEGATIVE_INT, default=0)
    wl.add_argument("--resolution", type=_resolution, default=(4032, 3024))
    wl.add_argument("--prompt-tokens", type=_NON_NEGATIVE_INT, default=22)
    wl.add_argument("--output-tokens", type=_AT_LEAST_ONE, default=10)
    wl.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    wl.add_argument("--name")
    wl.set_defaults(func=cmd_workload)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError, InputError, UnknownResolution) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigInfeasible, CapacityExceeded) as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
