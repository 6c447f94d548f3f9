"""Spans and counters around the public entry points of each disaggsim layer.

The package binds most entry points by value (``from .costs import
encode_latency``), so a wrapper has to replace the name in every consumer's
namespace, not only in the module that defines it. Methods are wrapped on
their class. Every replacement is undone when the ``with`` block exits.

Two instruments exist:

* :class:`SimProbe` times every ``run_simulation`` call and checks its trace,
  so the benchmark can report host time per simulated request and validate
  traces that library code creates internally. It is installed in every run.
* :class:`Tracer` records a span per call of each wrapped entry point, plus
  counters taken from the arguments. It is installed only in traced runs,
  because it slows the program down.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import json
import math
import resource
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator

from disaggsim import (ablations, blocks, controller, costs, engine, metrics,
                       optimizer, simconfig, trace, workload)
from disaggsim.models import StageRole

# Modules that bind run_simulation by name; ``engine`` is listed because the
# benchmark itself calls ``engine.run_simulation``.
_SIM_CONSUMERS = (engine, metrics, optimizer, ablations)
# Modules that bind generate_poisson and request_metrics by name.
_SCORING_CONSUMERS = (metrics, optimizer, ablations)
_COST_FUNCTIONS = ("encode_latency", "prefill_latency", "decode_step_latency",
                   "transfer_latency", "parallel_factor")


def system_label(config: simconfig.SystemConfig) -> str:
    """Name the deployment family of ``config`` by the roles it uses."""
    roles = {inst.role for inst in config.instances}
    if StageRole.MONOLITHIC in roles:
        return "monolithic"
    if StageRole.ENCODE_PREFILL in roles:
        return "distserve"
    return "epd"


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each ``owner.name`` to its replacement; restore all on exit."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Digest:
    """sha256 over a stream of JSON-encoded values; floats keep every digit."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        self._hash.update(json.dumps(value, sort_keys=True, default=_plain).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


@dataclasses.dataclass(frozen=True)
class SimCall:
    """One ``run_simulation`` call: host time and the size of its result."""

    seconds: float
    system: str
    requests: int
    rejected: int
    output_tokens: int
    switches: int


class SimProbe:
    """Times every ``run_simulation`` call and checks its trace at once.

    Each trace is validated and digested (summary rows and switch records)
    as soon as the call returns, then dropped, so checking holds no traces
    in memory. The check time is added to ``paused``: the benchmark
    subtracts it from the repetition's wall time and the tracer from every
    span open around it.
    """

    def __init__(self) -> None:
        self.calls: list[SimCall] = []
        self.digests: list[str] = []
        self.errors: list[str] = []
        self.paused = [0.0]
        # Bound now: a traced run replaces the method on the class.
        self._validate = trace.SimTrace.validate

    def wrap(self, run: Callable) -> Callable:
        @functools.wraps(run)
        def run_simulation(config, requests, seed=0):
            start = perf_counter()
            result = run(config, requests, seed=seed)
            done = perf_counter()
            self._check(config, result, done - start)
            self.paused[0] += perf_counter() - done
            return result
        return run_simulation

    def _check(self, config, sim: trace.SimTrace, seconds: float) -> None:
        self.calls.append(SimCall(
            seconds=seconds, system=system_label(config), requests=len(sim.requests),
            rejected=sim.rejected_count, switches=len(sim.switches),
            output_tokens=sum(len(r.token_times) for r in sim.requests.values())))
        try:
            self._validate(sim)
        except trace.TraceInvariantError as exc:
            self.errors.append(f"simulation {len(self.calls)}: {exc}")
        digest = Digest()
        digest.add(sim.summary_rows())
        digest.add(sim.switches)
        self.digests.append(digest.hexdigest())


class Tracer:
    """Calls, total time and self time per span name, plus named counters.

    A span's self time is its duration minus the time spent in spans opened
    while it was open. Spans nest through ``_children``: one accumulator of
    child time per open span, with a root entry that is never popped. Time
    the probe spends checking traces (``_paused``) counts in no span.
    """

    def __init__(self, paused: list[float]) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._children = [0.0]
        self._paused = paused

    def span(self, name: str, fn: Callable) -> Callable:
        children, paused = self._children, self._paused
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter() - paused[0]
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - paused[0] - start
                inner = children.pop()
                children[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - inner
        return wrapper

    def _allocate(self, fn: Callable) -> Callable:
        counters = self.counters

        def allocate(manager, request_id, tokens):
            counters["blocks_allocated"] += (math.ceil(tokens / manager.block_size)
                                             if tokens > 0 else 0)
            return fn(manager, request_id, tokens)
        return self.span("blocks.allocate", allocate)

    def _can_allocate(self, fn: Callable) -> Callable:
        counters = self.counters

        def can_allocate(manager, tokens):
            granted = fn(manager, tokens)
            counters["can_allocate_granted"] += granted
            return granted
        return self.span("blocks.can_allocate", can_allocate)

    def _export(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        def export(sim, path):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            fn(sim, path)
            counters["export_rss_growth_kb"] += (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        return self.span(f"trace.{name}", export)

    def replacements(self, probe: SimProbe) -> list[tuple[object, str, Callable]]:
        """Every wrapper of a traced run, the simulation probe included."""
        run = probe.wrap(self.span("engine.run", engine.run_simulation))
        out = [(module, "run_simulation", run) for module in _SIM_CONSUMERS]
        generate = self.span("workload.generate", workload.generate_poisson)
        request_metrics = self.span("metrics.request_metrics", metrics.request_metrics)
        evaluate = self.span("optimizer.evaluate", optimizer.evaluate)
        for module in _SCORING_CONSUMERS:
            out.append((module, "generate_poisson", generate))
            out.append((module, "request_metrics", request_metrics))
        out += [(optimizer, "evaluate", evaluate), (ablations, "evaluate", evaluate),
                (metrics, "sweep", self.span("metrics.sweep", metrics.sweep)),
                (ablations, "solve", self.span("optimizer.solve", ablations.solve))]
        out += [(engine, name, self.span(f"costs.{name}", getattr(costs, name)))
                for name in _COST_FUNCTIONS]
        out += [
            (engine, "monitor_and_decide",
             self.span("controller.decide", controller.monitor_and_decide)),
            (engine, "migration_latency",
             self.span("controller.migration", controller.migration_latency)),
            (simconfig.SystemConfig, "validate",
             self.span("simconfig.validate", simconfig.SystemConfig.validate)),
            (blocks.BlockManager, "allocate", self._allocate(blocks.BlockManager.allocate)),
            (blocks.BlockManager, "free",
             self.span("blocks.free", blocks.BlockManager.free)),
            (blocks.BlockManager, "can_allocate",
             self._can_allocate(blocks.BlockManager.can_allocate)),
        ]
        out.append((trace.SimTrace, "validate",
                    self.span("trace.validate", trace.SimTrace.validate)))
        out += [(trace.SimTrace, name, self._export(name, getattr(trace.SimTrace, name)))
                for name in ("write_events", "write_summary")]
        return out

    def layer_total(self, prefix: str) -> tuple[int, float]:
        names = [name for name in self.calls if name.startswith(prefix)]
        return sum(self.calls[n] for n in names), sum(self.total[n] for n in names)


def untraced(probe: SimProbe) -> list[tuple[object, str, Callable]]:
    """The wrappers of an untraced run: only the simulation probe."""
    run = probe.wrap(engine.run_simulation)
    return [(module, "run_simulation", run) for module in _SIM_CONSUMERS]
