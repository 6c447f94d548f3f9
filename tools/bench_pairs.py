"""Alternating parent/change runs of perfbench, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_name.json \\
        --claim decode-switch:sim_us_per_request:0.4 --what "one line"

The parent ref is extracted with ``git archive`` into a temporary directory
(the repository's own ``.git`` is left untouched); the change is this
checkout's working tree. For each workload and seeds 2 to 11 the two sides run
``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds``, one
after the other, the parent first on even seeds and the change first on odd
ones, so that host drift does not favour either side. Then each side runs
once more with ``--trace 1`` at seed 3 for the per-layer counts.

Per workload and end-to-end metric the output holds each side's median and
quartiles (``numpy.percentile``, linear), the pairs the change won, the
median's relative change and whether it is within the metric's bound in
``BENCHMARK.json``; every run's row is kept too. Per workload the traced
section also holds ``counts_equal``, whether every ``count``-unit metric of
``BENCHMARK.json`` is the same on both sides, and ``counts_differ``, the
names of those that are not: a change that claims the same work shows it
there, and so does a counter whose meaning changed. The file is rewritten
after every run, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 3
SEEDS = range(2, 12)


def extract(ref: str, dest: Path) -> Path:
    """The committed files of ``ref``, written under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``: its result line, decoded."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} ({workload}, seed {seed}): "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def summarise(runs: list[dict], workload: str, metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and pairs won on one workload."""
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [sides for sides in by_seed.values() if len(sides) == 2]
    out: dict = {}
    if not pairs:
        return out
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_mid, c_mid = float(np.median(parent)), float(np.median(change))
        frac = (c_mid - p_mid) / p_mid if p_mid else 0.0
        out[name] = {"parent": quartiles(parent), "change": quartiles(change),
                     "change_wins": int(wins), "pairs": len(pairs),
                     "median_change_frac": round(frac, 4),
                     "within_bound": (frac if lower else -frac) <= metric["bound"]}
    out["runs_correct"] = all(side["correct"] for p in pairs for side in p.values())
    out["operations"] = {
        side: {"attempted": sum(p[side]["attempted"] for p in pairs),
               "failed": sum(p[side]["failed"] for p in pairs)}
        for side in ("parent", "change")}
    return out


def claim_result(summary: dict, workload: str, metric: str, fall: float) -> dict:
    """Whether ``metric`` on ``workload`` fell by ``fall`` or more in the
    median, won 9 pairs in 10, and moved by more than the parent's spread."""
    entry = summary.get(workload, {}).get(metric)
    if entry is None:
        return {"met": False}
    parent, change = entry["parent"], entry["change"]
    difference = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    return {"parent_median": parent["median"], "change_median": change["median"],
            "pairs_won": f"{entry['change_wins']}/{entry['pairs']}",
            "median_difference": round(difference, 4), "parent_iqr": round(iqr, 4),
            "fall_frac": round(difference / parent["median"], 4),
            "met": (difference >= fall * parent["median"]
                    and entry["change_wins"] >= 0.9 * entry["pairs"] and difference > iqr)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC:FALL, a lower-is-better metric that "
                             "should fall by the fraction FALL")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    parent_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                                check=True, capture_output=True, text=True).stdout.strip()
    report: dict = {
        "what": args.what, "parent": parent_sha, "change": "working tree",
        "host": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores, "
                f"Python {platform.python_version()}",
        "harness": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0, each side from its own files, one run at a time, "
                   "even seeds parent first, odd seeds change first; traced: --seed "
                   f"{TRACE_SEED} --trace 1, one run per side and workload",
        "seeds": list(SEEDS),
        "quartiles": "numpy.percentile, linear interpolation, over each side's runs",
        "summary": {}, "traced": {}, "runs": [],
    }

    def write() -> None:
        for workload in workloads:
            report["summary"][workload] = summarise(report["runs"], workload, metrics)
        if args.claim:
            workload, metric, fall = args.claim.split(":")
            report["claim"] = {"workload": workload, "metric": metric,
                               "target": f"falls by >= {float(fall):.0%}, >= 9/10 pairs won, "
                                         "median difference above the parent's "
                                         "interquartile spread",
                               "result": claim_result(report["summary"], workload, metric,
                                                      float(fall))}
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": extract(parent_sha, Path(tmp) / "parent"), "change": ROOT}
        for workload in workloads:
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                for side in order:
                    result = perfbench(sides[side], workload, seed, seconds, 0)
                    row = {"side": side, "workload": workload, "seed": seed,
                           "correct": result["correct"], "attempted": result["attempted"],
                           "failed": result["failed"]}
                    row.update({k: round(v["value"], 4) for k, v in result["metrics"].items()})
                    report["runs"].append(row)
                    print(json.dumps(row), file=sys.stderr, flush=True)
                    write()
            traced = report["traced"].setdefault(workload, {})
            for side in ("parent", "change"):
                result = perfbench(sides[side], workload, TRACE_SEED, seconds, 1)
                traced[side] = {
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    **{k: round(v["value"], 6) for k, v in result["metrics"].items()}}
                write()
            differ = [name for name in counts
                      if traced["parent"].get(name) != traced["change"].get(name)]
            traced.update(counts_equal=not differ, counts_differ=differ)
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
