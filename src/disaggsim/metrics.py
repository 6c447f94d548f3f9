"""TTFT / TPOT / SLO attainment / goodput computed from simulation traces."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .engine import run_simulation
from .simconfig import SystemConfig
from .trace import RequestRecord, SimTrace
from .workload import Request, Slo, WorkloadSpec, generate_poisson


class IncompleteRequest(ValueError):
    """Metric requested for a request that never completed."""


class EmptySet(ValueError):
    """Attainment requested over an empty request set."""


@dataclass(frozen=True)
class RequestMetrics:
    rid: int
    ttft: float
    tpot: float
    met_slo: bool


@dataclass(frozen=True)
class Score:
    """A trace's scores. The means and the p99 are over completed requests
    (``inf`` when none completed); attainment is over every request (0 for
    an empty trace); throughput is completed requests per second of the
    trace's horizon (0 for a zero horizon)."""

    attainment: float
    mean_ttft: float
    p99_ttft: float
    mean_tpot: float
    completed: int
    throughput: float


@dataclass(frozen=True)
class SweepPoint:
    rate: float
    attainment: float
    mean_ttft: float
    p99_ttft: float
    mean_tpot: float


def _completed(trace: SimTrace, rid: int) -> RequestRecord:
    rec = trace.requests[rid]
    if not rec.completed:
        raise IncompleteRequest(f"request {rid} did not complete")
    return rec


def ttft(trace: SimTrace, rid: int) -> float:
    """Seconds from submission to the first token (:attr:`RequestRecord.ttft`)."""
    return _completed(trace, rid).ttft


def tpot(trace: SimTrace, rid: int) -> float:
    """Mean inter-token gap after the first token (:attr:`RequestRecord.tpot`)."""
    return _completed(trace, rid).tpot


def request_metrics(trace: SimTrace, slo: Optional[Slo] = None) -> list[RequestMetrics]:
    """Per-request metrics for every completed request, ordered by id.

    When ``slo`` is None each request is judged against its own attached
    limits.
    """
    out = []
    for rec in sorted(trace.completed_records(), key=lambda r: r.rid):
        t_first, t_out = rec.ttft, rec.tpot
        limits = slo if slo is not None else _request_slo(trace, rec.rid)
        met = t_first <= limits.ttft and t_out <= limits.tpot
        out.append(RequestMetrics(rid=rec.rid, ttft=t_first, tpot=t_out, met_slo=met))
    return out


def _request_slo(trace: SimTrace, rid: int) -> Slo:
    slo = trace.requests[rid].slo
    if slo is None:
        raise ValueError("trace carries no per-request SLO; pass one explicitly")
    return Slo(*slo)


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)  # not empty
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def score(trace: SimTrace, slo: Optional[Slo] = None) -> Score:
    """Every score of ``trace``, each request judged against ``slo`` (or,
    when None, its own attached limits). Rejected requests count against
    attainment; they certainly missed."""
    metrics = request_metrics(trace, slo)
    ttfts = [m.ttft for m in metrics]
    tpots = [m.tpot for m in metrics]
    horizon = trace.horizon
    return Score(
        attainment=(sum(1 for m in metrics if m.met_slo) / len(trace.requests)
                    if trace.requests else 0.0),
        mean_ttft=sum(ttfts) / len(ttfts) if ttfts else float("inf"),
        p99_ttft=_percentile(ttfts, 0.99) if ttfts else float("inf"),
        mean_tpot=sum(tpots) / len(tpots) if tpots else float("inf"),
        completed=len(metrics),
        throughput=len(metrics) / horizon if horizon > 0 else 0.0,
    )


def slo_attainment(trace: SimTrace, slo: Optional[Slo] = None) -> float:
    """Fraction of requests meeting both TTFT and TPOT limits."""
    if not trace.requests:
        raise EmptySet("no requests in trace")
    return score(trace, slo).attainment


def sweep(config: SystemConfig, workload_spec: WorkloadSpec, slo: Slo,
          rate_grid: Sequence[float], seed: Optional[int] = None,
          generate: Optional[Callable[[WorkloadSpec], list[Request]]] = None
          ) -> tuple[SweepPoint, ...]:
    """Simulate the workload at every rate in the grid (full sweep, no search).

    ``generate`` makes each rate's requests from the spec (default
    :func:`generate_poisson`). The grid must rise strictly.
    """
    if not rate_grid:
        raise ValueError("rate grid must be non-empty")
    if any(b <= a for a, b in zip(rate_grid, rate_grid[1:])):
        raise ValueError("sweep rates must be strictly increasing")
    seed = workload_spec.seed if seed is None else seed
    points = []
    for rate in rate_grid:
        spec = replace(workload_spec, rate_lambda=rate, seed=seed, slo=slo)
        # generate_poisson is looked up per call, so a replacement of it is used
        s = score(run_simulation(config, (generate or generate_poisson)(spec), seed=seed), slo)
        points.append(SweepPoint(rate, s.attainment, s.mean_ttft, s.p99_ttft, s.mean_tpot))
    return tuple(points)


def goodput_from_sweep(points: Sequence[SweepPoint], threshold: float = 0.9) -> float:
    """Largest swept rate whose attainment reaches the threshold, else 0.

    Attainment need not be monotone in the rate for finite samples, so this
    inspects every point rather than bisecting.
    """
    best = 0.0
    for point in points:
        if point.attainment >= threshold:
            best = max(best, point.rate)
    return best


def goodput(config: SystemConfig, workload_spec: WorkloadSpec, slo: Slo,
            rate_grid: Sequence[float], threshold: float = 0.9,
            seed: Optional[int] = None,
            generate: Optional[Callable[[WorkloadSpec], list[Request]]] = None) -> float:
    """Highest grid rate sustaining the attainment threshold (0 if none)."""
    return goodput_from_sweep(
        sweep(config, workload_spec, slo, rate_grid, seed=seed, generate=generate), threshold)

