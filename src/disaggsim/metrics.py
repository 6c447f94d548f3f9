"""TTFT / TPOT / SLO attainment / goodput computed from simulation traces."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .engine import run_simulation
from .simconfig import SystemConfig
from .trace import RequestRecord, SimTrace
from .workload import Slo, WorkloadSpec, generate_poisson


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
class SweepPoint:
    rate: float
    attainment: float
    mean_ttft: float
    p99_ttft: float
    mean_tpot: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        rates = [p.rate for p in self.points]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("sweep rates must be strictly increasing")


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


def slo_attainment(trace: SimTrace, slo: Optional[Slo] = None) -> float:
    """Fraction of requests meeting both TTFT and TPOT limits.

    Rejected requests count against attainment; they certainly missed.
    """
    total = len(trace.requests)
    if total == 0:
        raise EmptySet("no requests in trace")
    met = sum(1 for m in request_metrics(trace, slo) if m.met_slo)
    return met / total


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def sweep(config: SystemConfig, workload_spec: WorkloadSpec, slo: Slo,
          rate_grid: Sequence[float], seed: Optional[int] = None) -> SweepResult:
    """Simulate the workload at every rate in the grid (full sweep, no search)."""
    if not rate_grid:
        raise ValueError("rate grid must be non-empty")
    seed = workload_spec.seed if seed is None else seed
    points = []
    for rate in rate_grid:
        spec = replace(workload_spec, rate_lambda=rate, seed=seed, slo=slo)
        trace = run_simulation(config, generate_poisson(spec), seed=seed)
        metrics = request_metrics(trace, slo)
        ttfts = [m.ttft for m in metrics]
        tpots = [m.tpot for m in metrics]
        attainment = (sum(1 for m in metrics if m.met_slo) / len(trace.requests)
                      if trace.requests else 0.0)
        points.append(SweepPoint(
            rate=rate,
            attainment=attainment,
            mean_ttft=sum(ttfts) / len(ttfts) if ttfts else float("inf"),
            p99_ttft=_percentile(ttfts, 0.99) if ttfts else float("inf"),
            mean_tpot=sum(tpots) / len(tpots) if tpots else float("inf"),
        ))
    return SweepResult(points=tuple(points))


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
            seed: Optional[int] = None) -> float:
    """Highest grid rate sustaining the attainment threshold (0 if none)."""
    rates = list(rate_grid)
    if rates != sorted(rates) or len(set(rates)) != len(rates):
        raise ValueError("rate grid must be strictly ascending")
    result = sweep(config, workload_spec, slo, rates, seed=seed)
    return goodput_from_sweep(result.points, threshold)


def write_sweep_csv(path, system: str, model: str, images_per_request: int,
                    num_gpus: int, result: SweepResult) -> None:
    """Emit rows shaped (system, model, images/request, per-GPU rate, attainment)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["system", "model", "images_per_request", "rate_per_gpu",
                         "attainment", "mean_ttft", "p99_ttft", "mean_tpot"])
        for p in result.points:
            writer.writerow([system, model, images_per_request, p.rate / num_gpus,
                             p.attainment, p.mean_ttft, p.p99_ttft, p.mean_tpot])
