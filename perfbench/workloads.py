"""The benchmark's three workloads.

Each workload splits into ``setup`` (untimed: presets, configs, requests),
``run`` (the timed phase, calling only disaggsim's public API) and ``check``
(untimed: digests what the run returned or wrote; the probe in ``layers``
validates and digests every trace). The simulator is deterministic, so one
input gives one digest on every repetition, traced or not, and a pure
speed-up leaves it unchanged.

A workload may hold several input *variants*, generated from seeds derived
from the run's seed; untraced repetitions cycle through them. How much
simulated work a trace makes depends on its seed: on ``decode-switch`` the
decode step count and the host time per request move from one seed to the
next. A run's median over several variants is far less sensitive to the
seed than one trace is. Variant 0 always uses the run's seed itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

from disaggsim import ablations, engine, metrics, presets, workload

from perfbench.layers import Digest

DEFAULT_SEED = 20260808
# A run's inputs come from the preset seed or from ``seed % SEED_SPACE``, so
# golden.json can hold the digests of every input a run can be given.
SEED_SPACE = 16
_VARIANT_STRIDE = 7919

# Spans (see ``layers.Tracer``) that must record calls in a traced
# repetition, so a renamed or re-imported entry point cannot silently zero
# a layer.
_ENGINE_SPANS = ("engine.run", "simconfig.validate", "blocks.allocate", "blocks.free",
                 "blocks.can_allocate", "costs.encode_latency", "costs.prefill_latency",
                 "costs.decode_step_latency", "costs.transfer_latency",
                 "costs.parallel_factor")


@dataclasses.dataclass
class Checked:
    """Digest of what one repetition returned or wrote, besides its traces."""

    digest: str
    errors: list[str] = dataclasses.field(default_factory=list)
    event_rows: int = 0                  # lines of the exported events file
    export_bytes: int = 0                # bytes of every exported file


def input_seed(seed: int) -> int:
    """The seed a run's inputs are made from, given its ``--seed``."""
    return seed if seed == DEFAULT_SEED else seed % SEED_SPACE


def input_seeds() -> list[int]:
    """Every value ``input_seed`` can return."""
    return [DEFAULT_SEED, *range(SEED_SPACE)]


class Workload:
    name = ""
    variants = 1
    required_spans = _ENGINE_SPANS

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self.variant_seeds = [seed + j * _VARIANT_STRIDE for j in range(self.variants)]

    def operations(self, result) -> int:
        """Validate, export and evaluate calls the timed phase made itself."""
        return 0


class EncodeOverload(Workload):
    """One Poisson trace of the encode-heavy preset at about twice epd's SLO
    knee, simulated on epd, distserve and monolithic and scored per request.

    Queues grow without bound, so engine dispatch, per-arrival load rescans
    and block accounting dominate; decode and export barely register. The
    simulated work hardly depends on the seed, so one variant is enough.
    """

    name = "encode-overload"
    systems = ("epd", "distserve", "monolithic")
    rate = 2.0                                   # requests/s, about twice epd's knee
    required_spans = _ENGINE_SPANS + ("metrics.request_metrics",)

    def __init__(self, seed: int = DEFAULT_SEED, num_requests: int = 4000) -> None:
        super().__init__(seed)
        self.num_requests = num_requests

    def params(self) -> dict:
        return {"preset": "encode-heavy", "systems": list(self.systems),
                "num_requests": self.num_requests, "rate": self.rate,
                "variant_seeds": self.variant_seeds}

    def setup(self) -> None:
        self.preset = presets.encode_heavy_preset(self.seed)
        self.inputs = [workload.generate_poisson(dataclasses.replace(
            self.preset.workload, rate_lambda=self.rate, num_requests=self.num_requests,
            seed=seed)) for seed in self.variant_seeds]

    def run(self, out_dir: Path, variant: int) -> list:
        scored = []
        for label in self.systems:
            sim = engine.run_simulation(self.preset.systems[label], self.inputs[variant],
                                        seed=self.variant_seeds[variant])
            scored.append(metrics.request_metrics(sim, self.preset.slo))
        return scored

    def check(self, scored: list, out_dir: Path) -> Checked:
        digest = Digest()
        digest.add(scored)
        return Checked(digest.hexdigest())


class DecodeSwitch(Workload):
    """The switch-shifted preset scaled up, role-switch controller on, then
    exported the way ``disaggsim simulate`` does.

    Decode steps and per-token records dominate the engine, the controller
    makes several offload/migrate/onload switches, and the export is the
    write side of the trace layer, which the other workloads only read.
    """

    name = "decode-switch"
    variants = 8
    short_share = 0.1                            # of requests, with 50 output tokens
    required_spans = _ENGINE_SPANS + (
        "controller.decide", "controller.migration", "trace.validate",
        "trace.write_events", "trace.write_summary")

    def __init__(self, seed: int = DEFAULT_SEED, num_requests: int = 500) -> None:
        super().__init__(seed)
        self.num_requests = num_requests
        short = int(num_requests * self.short_share)
        self.split = ((short, 50), (num_requests - short, 500))

    def params(self) -> dict:
        return {"preset": "switch-shifted", "role_switch": True,
                "num_requests": self.num_requests,
                "rate": self.preset.workload.rate_lambda,
                "split": [list(part) for part in self.split],
                "variant_seeds": self.variant_seeds}

    def setup(self) -> None:
        self.preset = presets.switch_preset(self.seed, role_switch=True)
        self.inputs = [workload.generate_shifted(dataclasses.replace(
            self.preset.workload, num_requests=self.num_requests, seed=seed), *self.split)
            for seed in self.variant_seeds]

    def run(self, out_dir: Path, variant: int) -> int:
        sim = engine.run_simulation(self.preset.systems["epd"], self.inputs[variant],
                                    seed=self.variant_seeds[variant])
        sim.validate()
        sim.write_events(out_dir / "events.jsonl")
        sim.write_summary(out_dir / "summary.csv")
        return len(sim.switches)

    def operations(self, switches: int) -> int:
        return 3                                 # validate and the two exports

    def check(self, switches: int, out_dir: Path) -> Checked:
        digest = Digest()
        checked = Checked("", [] if switches else ["the controller made no role switch"])
        for name in ("events.jsonl", "summary.csv"):
            path = out_dir / name
            data = path.read_bytes()
            path.unlink()
            digest.add([name, hashlib.sha256(data).hexdigest()])
            checked.export_bytes += len(data)
            if name == "events.jsonl":
                checked.event_rows = data.count(b"\n")
        checked.digest = digest.hexdigest()
        return checked


class OptimizerSearch(Workload):
    """The optimizer ablation: a surrogate search plus random candidates, each
    scored by a goodput sweep of short traces.

    Queues stay short, so per-call fixed costs dominate: config validation,
    simulator construction, scoring and the optimizer's own proposals. The
    candidates, and so the work, depend on the seed.
    """

    name = "optimizer-search"
    variants = 3
    required_spans = _ENGINE_SPANS + (
        "metrics.request_metrics", "metrics.sweep", "workload.generate",
        "optimizer.evaluate", "optimizer.solve")

    def __init__(self, seed: int = DEFAULT_SEED, trials: int = 12,
                 num_random: int = 4) -> None:
        super().__init__(seed)
        self.trials, self.num_random = trials, num_random

    def params(self) -> dict:
        return {"preset": "optimizer-restricted", "trials": self.trials,
                "num_random": self.num_random, "beta": 0.075,
                "variant_seeds": self.variant_seeds}

    def setup(self) -> None:
        self.inputs = [presets.optimizer_preset(seed) for seed in self.variant_seeds]

    def run(self, out_dir: Path, variant: int) -> dict:
        return ablations.optimizer_ablation(
            trials=self.trials, num_random=self.num_random, beta=0.075,
            seed=self.variant_seeds[variant], preset=self.inputs[variant])

    def operations(self, result: dict) -> int:
        return len(result["search_log"]) + len(result["random_rows"])   # evaluate calls

    def check(self, result: dict, out_dir: Path) -> Checked:
        digest = Digest()
        for key in ("solver_candidate", "solver_goodput", "random_mean_goodput",
                    "random_rows", "search_log"):
            digest.add(result[key])
        return Checked(digest.hexdigest())


WORKLOADS = {cls.name: cls for cls in (EncodeOverload, DecodeSwitch, OptimizerSearch)}
