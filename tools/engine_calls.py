"""Python calls and heap events per simulated request, and a run whose
requests share no shape.

    python3 tools/engine_calls.py [--checkout DIR] [--seed 3]
    python3 tools/engine_calls.py --parent HEAD --pairs 10 --out BENCH_name.json

The first form reports, for the checkout DIR (by default the one this file is
in), two things, one JSON object per line:

* ``calls``: for one repetition of variant 0 of each perfbench workload, the
  Python calls made inside ``run_simulation`` per simulated request. A
  ``cProfile`` profiler is on only while each ``run_simulation`` call runs,
  so set-up, scoring and export are not counted. The count repeats exactly
  from run to run. Beside it, ``events_per_request``: from a second,
  unprofiled repetition, the events the engine pushes onto its heap per
  simulated request, by deployment family (``epd``, ``distserve``,
  ``monolithic``) and event kind. A subclass of the engine's ``_Sim``
  counts its pushes; every pushed event pops once, as the heap drains.
* ``distinct``: host µs per request and peak RSS of one ``epd`` run of the
  encode-heavy preset, 2·10^4 Poisson requests at 2 r/s in which every
  request has its own (prompt, output) pair, so that no work done once per
  request shape is shared. It runs in a fresh interpreter, so that its peak
  RSS is its own.

The second form extracts ``--parent`` with ``git archive`` (as
``tools/bench_pairs.py`` does), reports ``calls`` for both sides, and runs
the distinct-shape run ``--pairs`` times per side, alternating which side
goes first. The result is stored under the key ``engine_calls`` of ``--out``;
the rest of that file is kept.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import pstats
import resource
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DISTINCT_REQUESTS = 20_000
DISTINCT_RATE = 2.0


def run_workload(cls, seed: int, run_simulation) -> None:
    """One repetition of variant 0 of a perfbench workload, with
    ``run_simulation`` in place of the engine's wherever it is called."""
    from perfbench.layers import _SIM_CONSUMERS, patched

    bench = cls(seed)
    bench.setup()
    with tempfile.TemporaryDirectory() as tmp, \
            patched([(module, "run_simulation", run_simulation) for module in _SIM_CONSUMERS]):
        bench.run(Path(tmp), 0)


def calls_per_request(seed: int) -> dict:
    """Per perfbench workload: profiled calls and requests inside
    ``run_simulation``, and heap events per request."""
    from disaggsim import engine
    from perfbench.workloads import WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        profile, requests = cProfile.Profile(), [0]

        def run_simulation(config, workload, seed=0, run=engine.run_simulation):
            profile.enable()
            try:
                sim = run(config, workload, seed=seed)
            finally:
                profile.disable()
            requests[0] += len(sim.requests)
            return sim

        run_workload(cls, seed, run_simulation)
        calls = pstats.Stats(profile).total_calls
        out[name] = {"calls": calls, "requests": requests[0],
                     "calls_per_request": round(calls / requests[0], 1),
                     "events_per_request": events_per_request(cls, seed)}
    return out


def events_per_request(cls, seed: int) -> dict:
    """Heap events pushed per simulated request by one repetition of ``cls``,
    per deployment family: in all, and by kind."""
    from disaggsim import engine
    from perfbench.layers import system_label

    pushed, requests = defaultdict(Counter), Counter()

    class CountingSim(engine._Sim):
        kinds: Counter  # this run's family's pushes, by kind

        def _push(self, t, kind, data):
            super()._push(t, kind, data)
            self.kinds[kind] += 1

        def _push_step_end(self, inst, end):
            super()._push_step_end(inst, end)
            self.kinds[engine._STEP_END] += 1

    def run_simulation(config, workload, seed=0):
        sim = CountingSim(config, workload, seed)
        sim.kinds = pushed[system_label(config)]
        trace = sim.run()
        requests[system_label(config)] += len(trace.requests)
        return trace

    run_workload(cls, seed, run_simulation)
    return {label: {"all": round(sum(kinds.values()) / requests[label], 3),
                    **{kind: round(n / requests[label], 3) for kind, n in sorted(kinds.items())}}
            for label, kinds in sorted(pushed.items())}


def distinct_run() -> dict:
    """One encode-heavy ``epd`` run in which no two requests share a shape."""
    from disaggsim import engine, presets, workload

    preset = presets.encode_heavy_preset()
    spec = dataclasses.replace(preset.workload, num_requests=DISTINCT_REQUESTS,
                               rate_lambda=DISTINCT_RATE)
    requests = [dataclasses.replace(r, prompt_tokens=r.prompt_tokens + i % 1000,
                                    output_tokens=r.output_tokens + i // 1000)
                for i, r in enumerate(workload.generate_poisson(spec))]
    start = perf_counter()
    sim = engine.run_simulation(preset.systems["epd"], requests)
    seconds = perf_counter() - start
    shapes = {(r.images, r.prompt_tokens, r.output_tokens) for r in requests}
    return {"requests": len(requests), "distinct_shapes": len(shapes),
            "completed": sim.completed_count,
            "sim_us_per_request": round(seconds / len(requests) * 1e6, 2),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)}


def run_side(checkout: Path, part: str, seed: int) -> dict:
    """``part`` of this tool's report on ``checkout``, from a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, "--checkout", str(checkout),
                           "--seed", str(seed), "--part", part],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{part} failed in {checkout}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])[part]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 2), "q1": round(float(q1), 2),
            "q3": round(float(q3), 2)}


def compare(parent_ref: str, pairs: int, seed: int, out: Path) -> None:
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_pairs import extract

    report = json.loads(out.read_text()) if out.exists() else {}
    section = report["engine_calls"] = {
        "harness": f"python3 tools/engine_calls.py --parent {parent_ref} --pairs {pairs}; "
                   f"calls at seed {seed}; distinct-shape runs alternate, parent first "
                   "on even pairs",
        "calls": {}, "distinct": {"runs": []}}

    def write() -> None:
        out.write_text(json.dumps(report, indent=1) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": extract(parent_ref, Path(tmp) / "parent"), "change": ROOT}
        for side, checkout in sides.items():
            section["calls"][side] = run_side(checkout, "calls", seed)
            write()
        runs = section["distinct"]["runs"]
        for k in range(pairs):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs.append({"side": side, "pair": k,
                             **run_side(sides[side], "distinct", seed)})
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
                write()
    for metric in ("sim_us_per_request", "peak_rss_mb"):
        values = {side: [run[metric] for run in runs if run["side"] == side]
                  for side in sides}
        section["distinct"][metric] = {
            **{side: quartiles(v) for side, v in values.items()},
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": pairs}
    write()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to measure (default: this one)")
    parser.add_argument("--seed", type=int, default=3, help="perfbench input seed")
    parser.add_argument("--part", choices=("calls", "distinct"), default=None,
                        help="report only this part, in this interpreter")
    parser.add_argument("--parent", default=None, help="git ref to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.parent is not None:
        if args.out is None:
            parser.error("--parent needs --out")
        compare(args.parent, args.pairs, args.seed, args.out)
        return 0
    if args.part is None:
        for part in ("calls", "distinct"):
            print(json.dumps({part: run_side(args.checkout, part, args.seed)}))
        return 0
    sys.path[:0] = [str(args.checkout / "src"), str(args.checkout)]
    result = calls_per_request(args.seed) if args.part == "calls" else distinct_run()
    print(json.dumps({args.part: result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
