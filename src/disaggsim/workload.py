"""Synthetic Poisson request streams and trace-file ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .models import Resolution


class Slo(NamedTuple):
    ttft: float
    tpot: float


class ParseError(ValueError):
    """Trace file is malformed; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Request:
    """One multimodal inference job as the simulator sees it."""

    id: int
    arrival_time: float
    prompt_tokens: int
    images: tuple[Resolution, ...]
    output_tokens: int

    def __post_init__(self) -> None:
        # a tuple, so that requests of one shape can share the engine's record of it
        object.__setattr__(self, "images", tuple(self.images))
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError(f"arrival_time must be finite and >= 0, not {self.arrival_time}")
        if self.output_tokens < 1:
            raise ValueError("output_tokens must be >= 1")
        if self.prompt_tokens < 0:
            raise ValueError("prompt_tokens must be >= 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic open-loop workload. An infinite
    ``rate_lambda`` puts every arrival at time zero."""

    rate_lambda: float
    num_requests: int
    prompt_tokens: int = 22
    images_per_request: int = 0
    resolution: Optional[Resolution] = None
    output_tokens: int = 10
    seed: int = 0
    slo: Slo = Slo(10.0, 1.0)

    def __post_init__(self) -> None:
        if self.rate_lambda <= 0:
            raise ValueError("rate_lambda must be positive")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.images_per_request > 0 and self.resolution is None:
            raise ValueError("resolution required when images_per_request > 0")
        if not (self.slo.ttft > 0 and self.slo.tpot > 0):  # inf: no limit; NaN fails
            raise ValueError(f"slo limits must be positive, not {self.slo}")


def _arrivals(rate_lambda: float, count: int, seed: int) -> list[float]:
    """``count`` arrival times of a Poisson process of rate ``rate_lambda``."""
    gaps = np.random.default_rng(seed).exponential(1.0 / rate_lambda, size=count)
    return np.cumsum(gaps).tolist()


def _images(spec: WorkloadSpec) -> tuple[Resolution, ...]:
    if spec.images_per_request == 0:
        return ()
    return tuple(spec.resolution for _ in range(spec.images_per_request))


def _requests(spec: WorkloadSpec, outputs: list[int]) -> list[Request]:
    """``spec``'s Poisson requests, request ``i`` asking for ``outputs[i]`` tokens."""
    images = _images(spec)
    arrivals = _arrivals(spec.rate_lambda, spec.num_requests, spec.seed)
    return [
        Request(
            id=i,
            arrival_time=t,
            prompt_tokens=spec.prompt_tokens,
            images=images,
            output_tokens=tokens,
        )
        for i, (t, tokens) in enumerate(zip(arrivals, outputs))
    ]


def generate_poisson(spec: WorkloadSpec) -> list[Request]:
    """Exactly ``num_requests`` requests with seeded exponential gaps."""
    return _requests(spec, [spec.output_tokens] * spec.num_requests)


def generate_shifted(spec: WorkloadSpec, early: tuple[int, int],
                     late: tuple[int, int]) -> list[Request]:
    """Poisson arrivals whose output length shifts after ``early`` requests.

    ``early`` and ``late`` are (request count, output tokens) pairs and must
    sum to ``spec.num_requests``.
    """
    early_n, early_tokens = early
    late_n, late_tokens = late
    if early_n + late_n != spec.num_requests:
        raise ValueError("early.count + late.count must equal num_requests")
    return _requests(spec, [early_tokens] * early_n + [late_tokens] * late_n)


# ``width``/``height`` hold the first image; ``resolutions`` lists every image
# as ``WxH`` joined by ``;``. Files without ``resolutions`` repeat the first.
# Other columns, such as the SLO limits of older files, are ignored.
_TRACE_FIELDS = ("id", "arrival", "prompt_tokens", "num_images", "width",
                 "height", "output_tokens", "resolutions")


def save_trace(path, requests: Sequence[Request]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_TRACE_FIELDS)
        for r in requests:
            width, height = r.images[0] if r.images else (0, 0)
            writer.writerow([
                r.id, repr(r.arrival_time), r.prompt_tokens, len(r.images),
                width, height, r.output_tokens, ";".join(f"{w}x{h}" for w, h in r.images),
            ])


def _row_images(row: dict) -> tuple[tuple[int, int], ...]:
    num_images = int(row["num_images"])
    first = (int(row["width"]), int(row["height"]))
    if not row.get("resolutions"):
        return tuple(first for _ in range(num_images))
    images = tuple((int(w), int(h)) for w, h in
                   (item.split("x") for item in row["resolutions"].split(";")))
    if len(images) != num_images or images[0] != first:
        raise ValueError(f"resolutions {row['resolutions']!r} disagree with "
                         f"num_images/width/height")
    return images


def load_trace(path, rate_lambda: Optional[float] = None, seed: int = 0) -> list[Request]:
    """One request per line; arrivals honored or regenerated at ``rate_lambda``."""
    requests: list[Request] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return []
        missing = set(_TRACE_FIELDS[:7]) - set(reader.fieldnames)
        if missing:
            raise ParseError(f"missing columns {sorted(missing)}", 1)
        for line_no, row in enumerate(reader, start=2):
            try:
                requests.append(Request(
                    id=int(row["id"]),
                    arrival_time=float(row["arrival"]),
                    prompt_tokens=int(row["prompt_tokens"]),
                    images=_row_images(row),
                    output_tokens=int(row["output_tokens"]),
                ))
                if (rate_lambda is None and len(requests) > 1
                        and requests[-1].arrival_time < requests[-2].arrival_time):
                    raise ValueError(f"arrival {requests[-1].arrival_time} precedes the "
                                     f"previous row's {requests[-2].arrival_time}")
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(str(exc), line_no) from exc
    if rate_lambda is not None and requests:
        arrivals = _arrivals(rate_lambda, len(requests), seed)
        requests = [replace(r, arrival_time=t) for r, t in zip(requests, arrivals)]
    return requests
