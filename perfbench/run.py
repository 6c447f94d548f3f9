"""Host-time benchmark of the disaggsim simulator.

    python3 perfbench/run.py --workload encode-overload --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the simulator is imported from
``src/`` of that checkout. One run sets up one workload, then repeats its
timed phase until ``--seconds`` are used up and reports medians over the
repetitions. Every repetition is also a correctness check: each trace must
pass ``SimTrace.validate()``, and the digest of the simulated outputs must
equal the one recorded in ``golden.json`` for the run's input seed and
input variant. ``--seed`` gives the input seed: the preset seed is used as
it is, any other seed modulo ``workloads.SEED_SPACE``, so every input a run
can be given has its digests recorded.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced repetitions and prints the per-layer metrics, taken from the
traced repetitions only, and the tracing overhead. The last line of output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_PROBES = 5
REFERENCE_SAMPLES = 3   # timings of the reference task on each side of a measurement
REFERENCE_S = 0.1       # the reference task on the 2-core host it was tuned on

# Run in a fresh interpreter: imports disaggsim and sets one workload up.
_SETUP_PROBE = """
import sys
from time import perf_counter
sys.path[:0] = [{src!r}, {root!r}]
start = perf_counter()
from perfbench.workloads import WORKLOADS
WORKLOADS[{name!r}]({seed!r}).setup()
print(perf_counter() - start)
"""

# (name, unit) of every metric in BENCHMARK.json, in the order they are printed.
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("sim_us_per_request", "us"),
    ("sim_call_p50_ms", "ms"), ("peak_rss_mb", "MB"),
]
# Printed with the end-to-end metrics but left out of the result line: only
# optimizer-search makes enough run_simulation calls for a 95th percentile
# (about 900 a run); on the others it is the slowest of 10 to 40 calls.
PRINTED_ONLY = [("sim_call_p95_ms", "ms"), ("sim_calls", "count")]
PER_LAYER = [
    ("engine.run_s", "s"), ("engine.run_s.epd", "s"), ("engine.run_s.distserve", "s"),
    ("engine.run_s.monolithic", "s"), ("engine.self_s", "s"),
    ("engine.requests", "count"), ("engine.rejected", "count"),
    ("engine.output_tokens", "count"), ("engine.encode_runs", "count"),
    ("engine.prefill_batches", "count"), ("engine.decode_steps", "count"),
    ("engine.transfers", "count"), ("engine.sim_ops", "count"),
    ("engine.sim_ops_per_s", "1/s"),
    ("blocks.allocate_calls", "count"), ("blocks.allocate_s", "s"),
    ("blocks.free_calls", "count"), ("blocks.free_s", "s"),
    ("blocks.can_allocate_calls", "count"), ("blocks.can_allocate_s", "s"),
    ("blocks.can_allocate_ok_ratio", "ratio"), ("blocks.blocks_allocated", "count"),
    ("costs.calls", "count"), ("costs.s", "s"),
    ("controller.decide_calls", "count"), ("controller.decide_s", "s"),
    ("controller.switches", "count"),
    ("trace.validate_s", "s"), ("trace.write_events_s", "s"),
    ("trace.write_summary_s", "s"), ("trace.event_rows", "count"),
    ("trace.export_mb", "MB"), ("trace.export_rss_growth_mb", "MB"),
    ("metrics.request_metrics_s", "s"), ("metrics.sweep_calls", "count"),
    ("metrics.sweep_s", "s"),
    ("workload.generate_calls", "count"), ("workload.generate_s", "s"),
    ("simconfig.validate_calls", "count"), ("simconfig.validate_s", "s"),
    ("optimizer.evaluate_calls", "count"), ("optimizer.evaluate_s", "s"),
    ("optimizer.self_s", "s"), ("optimizer.unique_ratio", "ratio"),
    ("tracing.overhead_frac", "ratio"),
]
# Layer times printed by traced runs but left out of the result line. Each
# is 0 on every run of a workload that does not call the layer, and a time
# in the result line must not read the same on every run. The call counts
# of these layers stay in the result line.
PRINTED_ONLY_LAYER = {
    "engine.run_s.distserve", "engine.run_s.monolithic", "controller.decide_s",
    "trace.validate_s", "trace.write_events_s", "trace.write_summary_s",
    "metrics.request_metrics_s", "metrics.sweep_s", "workload.generate_s",
    "optimizer.evaluate_s", "optimizer.self_s",
}


class Yardstick:
    """Times a fixed pure-Python task, to scale host times by host speed.

    The host's speed drifts by tens of percent within seconds to minutes.
    The task is timed ``REFERENCE_SAMPLES`` times when the yardstick is made
    and at each call of ``scale``, and each end-to-end host time is
    multiplied by ``REFERENCE_S`` over the median of the timings just before
    and just after it. One timing of the task is noisier than a repetition
    of any workload, so it takes several timings on each side to follow the
    drift without adding noise. All timings are kept in ``samples`` for the
    provenance record. The task builds, sorts and JSON-encodes small dicts,
    much as the simulator and its export do, but calls no disaggsim code, so
    a change to disaggsim cannot move it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = self._measure()

    def scale(self) -> float:
        """The scale of whatever ran since the last call (or since creation)."""
        before, self._last = self._last, self._measure()
        return REFERENCE_S / statistics.median(before + self._last)

    def _measure(self) -> list[float]:
        times = []
        for _ in range(REFERENCE_SAMPLES):
            start = perf_counter()
            rows = [{"id": i, "t": (i * 7919) % 10007 * 0.001, "tag": "x"}
                    for i in range(20_000)]
            rows.sort(key=lambda row: (row["t"], row["id"]))
            sum(len(json.dumps(row)) for row in rows)
            times.append(perf_counter() - start)
        self.samples += times
        return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(name: str, seed: int, yardstick: Yardstick) -> tuple[list[float], list[float]]:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters, import included:
    (raw seconds, scale of each)."""
    code = _SETUP_PROBE.format(src=str(SRC), root=str(ROOT), name=name, seed=seed)
    times, scales = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        scales.append(yardstick.scale())
    return times, scales


def provenance(bench, seed: int, reps: list, refs: list[float], setup: list[float]) -> dict:
    """Where a result came from, and the unscaled times behind it."""
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "disaggsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            source.update(path.read_bytes())
    return {
        "workload": bench.name, "seed": seed, "input_seed": bench.seed,
        "params": bench.params(),
        "git_sha": git_sha(), "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "reference_loop_s": refs,
        "raw_setup_s": setup,
        "raw_wall_s": [rep.wall for rep in reps],
        "raw_sim_us_per_request": [rep.sim_us_per_request() for rep in reps],
        "raw_call_p50_ms": [rep.call_p50_ms() for rep in reps],
        "traced": [rep.layers is not None for rep in reps],
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def golden_digests(name: str, seed: int) -> Optional[list[str]]:
    """Recorded digests of each input variant of this input seed, or None."""
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))


@dataclasses.dataclass
class Rep:
    """One repetition of a workload's timed phase and its check."""

    wall: float                          # seconds, probe check time excluded
    calls: list                          # layers.SimCall per simulation
    digest: str
    attempted: int
    errors: list[str]
    layers: Optional[dict]               # per-layer metrics; None if untraced
    variant: int = 0                     # which of the workload's inputs ran
    scale: float = 1.0                   # see Yardstick

    def sim_us_per_request(self) -> float:
        return sum(c.seconds for c in self.calls) / sum(c.requests for c in self.calls) * 1e6

    def call_p50_ms(self) -> float:
        return percentile([c.seconds for c in self.calls], 0.50) * 1e3


def run_rep(bench, out_dir: Path, traced: bool, variant: int = 0) -> Rep:
    """Time ``bench.run`` once under the probe (and tracer), then check it.

    Operations counted: every simulation, every validation of its trace,
    the digest comparison, and whatever ``bench.operations`` reports
    (validate, export and evaluate calls the timed phase made itself).
    """
    from perfbench import layers

    probe = layers.SimProbe()
    tracer = layers.Tracer(probe.paused) if traced else None
    replacements = tracer.replacements(probe) if traced else layers.untraced(probe)
    gc.collect()
    with layers.patched(replacements):
        start = perf_counter()
        result = bench.run(out_dir, variant)
        wall = perf_counter() - start - probe.paused[0]
    checked = bench.check(result, out_dir)
    digest = layers.Digest()
    digest.add([checked.digest, probe.digests])
    attempted = 2 * len(probe.calls) + 1 + bench.operations(result)
    summary = layer_metrics(bench, tracer, probe.calls, result, checked) if traced else None
    return Rep(wall, probe.calls, digest.hexdigest(), attempted,
               probe.errors + checked.errors, summary, variant)


def layer_metrics(bench, tracer, calls, result, checked) -> dict:
    """Per-layer metrics of one traced repetition."""
    t = tracer
    out: dict[str, float] = {}
    out["engine.run_s"] = t.total["engine.run"]
    for label in ("epd", "distserve", "monolithic"):
        out[f"engine.run_s.{label}"] = sum(c.seconds for c in calls if c.system == label)
    out["engine.self_s"] = t.self_time["engine.run"]
    out["engine.requests"] = sum(c.requests for c in calls)
    out["engine.rejected"] = sum(c.rejected for c in calls)
    out["engine.output_tokens"] = sum(c.output_tokens for c in calls)
    out["engine.encode_runs"] = t.calls["costs.encode_latency"]
    out["engine.prefill_batches"] = t.calls["costs.prefill_latency"]
    out["engine.decode_steps"] = t.calls["costs.decode_step_latency"]
    out["engine.transfers"] = t.calls["costs.transfer_latency"]
    out["engine.sim_ops"] = sum(out[k] for k in (
        "engine.requests", "engine.encode_runs", "engine.prefill_batches",
        "engine.decode_steps", "engine.transfers"))
    out["engine.sim_ops_per_s"] = (out["engine.sim_ops"] / out["engine.run_s"]
                                   if out["engine.run_s"] else 0.0)
    for op in ("allocate", "free", "can_allocate"):
        out[f"blocks.{op}_calls"] = t.calls[f"blocks.{op}"]
        out[f"blocks.{op}_s"] = t.total[f"blocks.{op}"]
    probes = t.calls["blocks.can_allocate"]
    out["blocks.can_allocate_ok_ratio"] = (t.counters["can_allocate_granted"] / probes
                                           if probes else 0.0)
    out["blocks.blocks_allocated"] = t.counters["blocks_allocated"]
    out["costs.calls"], out["costs.s"] = t.layer_total("costs.")
    out["controller.decide_calls"] = t.calls["controller.decide"]
    out["controller.decide_s"] = t.total["controller.decide"]
    out["controller.switches"] = sum(c.switches for c in calls)
    for op in ("validate", "write_events", "write_summary"):
        out[f"trace.{op}_s"] = t.total[f"trace.{op}"]
    out["trace.event_rows"] = checked.event_rows
    out["trace.export_mb"] = checked.export_bytes / 1e6
    out["trace.export_rss_growth_mb"] = t.counters["export_rss_growth_kb"] / 1024.0
    out["metrics.request_metrics_s"] = t.total["metrics.request_metrics"]
    out["metrics.sweep_calls"] = t.calls["metrics.sweep"]
    out["metrics.sweep_s"] = t.total["metrics.sweep"]
    out["workload.generate_calls"] = t.calls["workload.generate"]
    out["workload.generate_s"] = t.total["workload.generate"]
    out["simconfig.validate_calls"] = t.calls["simconfig.validate"]
    out["simconfig.validate_s"] = t.total["simconfig.validate"]
    out["optimizer.evaluate_calls"] = t.calls["optimizer.evaluate"]
    out["optimizer.evaluate_s"] = t.total["optimizer.evaluate"]
    out["optimizer.self_s"] = t.self_time["optimizer.solve"]
    log = result.get("search_log", []) if isinstance(result, dict) else []
    distinct = {json.dumps(rec.candidate, sort_keys=True) for rec in log}
    out["optimizer.unique_ratio"] = len(distinct) / len(log) if log else 0.0
    out["missing_spans"] = [name for name in bench.required_spans if not t.calls[name]]
    return out


def summarize(reps: list[Rep], setup: list[float], trace: bool) -> dict[str, float]:
    """The metrics of one run: medians over its repetitions.

    End-to-end host times are multiplied by their scale (see ``Yardstick``),
    so a host that runs slower for a while slows the reference task too and
    the reported time stays put. ``setup`` holds scaled set-up times.
    Per-layer times are left unscaled.
    """
    plain = [rep for rep in reps if rep.layers is None]
    wall = statistics.median(rep.wall * rep.scale for rep in plain)
    if not trace:
        calls = [call.seconds * rep.scale for rep in plain for call in rep.calls]
        # Per repetition first: encode-overload's calls come from three
        # systems of different cost, and a median pooled over all of them
        # jumps between the systems from run to run.
        return {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "sim_us_per_request": statistics.median(
                rep.sim_us_per_request() * rep.scale for rep in plain),
            "sim_call_p50_ms": statistics.median(rep.call_p50_ms() * rep.scale for rep in plain),
            "peak_rss_mb": peak_rss_mb(),
            "sim_call_p95_ms": percentile(calls, 0.95) * 1e3,
            "sim_calls": len(calls),
        }
    traced = [rep for rep in reps if rep.layers is not None]
    out = {}
    for metric, unit in PER_LAYER[:-1]:
        values = [rep.layers[metric] for rep in traced]
        if unit == "count":             # repeats exactly; consistency_errors checks
            out[metric] = values[0]
        elif metric == "trace.export_rss_growth_mb":
            # The peak only rises in the first traced repetition, which runs
            # before any untraced one; later ones add nothing.
            out[metric] = max(values)
        else:
            out[metric] = statistics.median(values)
    out["tracing.overhead_frac"] = (
        statistics.median(rep.wall * rep.scale for rep in traced) / wall - 1.0)
    return out


def consistency_errors(reps: list[Rep], expected: Optional[list[str]]) -> tuple[int, list[str]]:
    """Checks across repetitions: (checks made, failures).

    Every digest must equal the golden one of its input variant, or, when
    ``expected`` is None, the first digest of that variant in the run.
    Count metrics must repeat exactly between traced repetitions, and
    every wrapper the workload should fire must have recorded calls. The
    digest checks are already counted per repetition in ``Rep.attempted``.
    """
    errors = []
    reference = dict(enumerate(expected or []))
    for i, rep in enumerate(reps):
        reference.setdefault(rep.variant, rep.digest)
        if rep.digest != reference[rep.variant]:
            errors.append(f"repetition {i} (variant {rep.variant}): digest {rep.digest} "
                          f"!= {reference[rep.variant]}")
    traced = [rep for rep in reps if rep.layers is not None]
    counts = [metric for metric, unit in PER_LAYER if unit == "count"]
    for rep in traced[1:]:
        changed = [m for m in counts if rep.layers[m] != traced[0].layers[m]]
        if changed:
            errors.append(f"count metrics changed between traced repetitions: {changed}")
    if traced and traced[0].layers["missing_spans"]:
        errors.append(f"wrappers recorded no calls: {traced[0].layers['missing_spans']}")
    return len(traced), errors


def measure(bench, seconds: float, trace: bool, out_dir: Path,
            yardstick: Yardstick) -> tuple[list[Rep], list[str]]:
    """Repeat the timed phase until ``seconds`` are used up.

    ``yardstick`` times its task after each repetition.
    Untraced runs cycle through the workload's input variants; traced runs
    alternate traced and untraced repetitions of variant 0, traced first.
    Returns the repetitions and the error of a repetition that raised.
    """
    reps: list[Rep] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        for traced in ((True, False) if trace else (False,)):
            # Traced runs keep to variant 0, so their counts repeat exactly.
            variant = 0 if trace else len(reps) % bench.variants
            try:
                rep = run_rep(bench, out_dir, traced, variant)
            except Exception:  # reported as a failed operation, not a crash
                return reps, [traceback.format_exc()]
            rep.scale = yardstick.scale()
            reps.append(rep)
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return reps, []


def import_checkout() -> None:
    """Import disaggsim from this checkout's ``src/``, and nothing else."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import disaggsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import disaggsim from {SRC}: {exc}")
    if Path(disaggsim.__file__).resolve().parent != SRC / "disaggsim":
        raise SystemExit(f"perfbench: imported disaggsim from {disaggsim.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_checkout()
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, input_seed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    bench = WORKLOADS[args.workload](input_seed(seed))
    bench.setup()
    yardstick = Yardstick()
    setup, setup_scales = ([], []) if args.trace else setup_seconds(bench.name, bench.seed,
                                                                     yardstick)

    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    out_dir.mkdir(parents=True)
    try:
        reps, crash = measure(bench, args.seconds, bool(args.trace), out_dir, yardstick)
    finally:
        shutil.rmtree(out_dir)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()

    errors = [error for rep in reps for error in rep.errors] + crash
    attempted = sum(rep.attempted for rep in reps) + len(crash)
    expected = golden_digests(bench.name, bench.seed)
    if expected is None:
        errors.append(f"golden.json holds no digests for input seed {bench.seed}")
    if reps:
        checks, failures = consistency_errors(reps, expected)
        attempted += checks
        errors += failures
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    scaled_setup = [t * scale for t, scale in zip(setup, setup_scales)]
    values = summarize(reps, scaled_setup, bool(args.trace)) if reps and not crash else {}

    units = ({metric: unit for metric, unit in PER_LAYER if metric not in PRINTED_ONLY_LAYER}
             if args.trace else dict(END_TO_END))
    printed_units = dict(PER_LAYER + END_TO_END + PRINTED_ONLY)
    for metric, value in values.items():
        print(f"{metric:30s} {value:14.6g} {printed_units[metric]}")
    print(f"{'failed_frac':30s} {len(errors) / attempted:14.6g} ratio "
          f"({len(errors)} of {attempted} operations)")
    if reps:
        digests = sorted({(rep.variant, rep.digest) for rep in reps})
        golden = ("no golden digests recorded" if expected is None else
                  "each variant matches golden.json" if all(
                      digest == dict(enumerate(expected)).get(v) for v, digest in digests) else
                  "differs from golden.json")
        print(f"digests {[digest[:16] for _, digest in digests]} ({golden}); "
              f"{len(reps)} repetitions")
    record = provenance(bench, seed, reps, yardstick.samples, setup)
    print("provenance " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not errors and bool(values),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items() if metric in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
