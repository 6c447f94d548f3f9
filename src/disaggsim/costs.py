"""Parametric analytic latency model for stages, transfers and parallelism.

These closed forms are the simulator's physics. They are deliberately
simple (affine + one quadratic attention term) so every value the engine
produces can be recomputed by hand in a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import HardwareSpec


class Channel(Enum):
    INTRA = "intra"
    INTER = "inter"


@dataclass(frozen=True)
class CostParams:
    """Calibration constants of the analytic latency model.

    ``encode_heaviness`` is a single multiplier on ``enc_per_patch`` used to
    emulate hardware with a proportionally more expensive encode stage.
    """

    enc_base: float = 0.1
    enc_per_patch: float = 0.05
    prefill_base: float = 0.05
    prefill_per_token: float = 2e-4
    prefill_quad: float = 1e-8
    decode_base: float = 0.01
    decode_per_seq: float = 0.002
    decode_per_kv_token: float = 1e-6
    tp_efficiency: float = 0.8
    pp_fill_penalty: float = 0.1
    switch_latency_e: float = 0.7
    switch_latency_pd: float = 0.2
    encode_heaviness: float = 1.0
    transfer_setup: float = 0.0

    def __post_init__(self) -> None:
        for key in (
            "enc_base", "enc_per_patch", "prefill_base", "prefill_per_token",
            "prefill_quad", "decode_base", "decode_per_seq", "decode_per_kv_token",
            "pp_fill_penalty", "switch_latency_e", "switch_latency_pd",
            "encode_heaviness", "transfer_setup",
        ):
            value = getattr(self, key)
            if not 0 <= value < math.inf:
                raise ValueError(f"{key} must be finite and non-negative, not {value}")
        if self.enc_base == 0:
            raise ValueError("enc_base must be positive, not 0")
        if not 0 < self.tp_efficiency <= 1:
            raise ValueError("tp_efficiency must be in (0, 1]")


def tp_speedup(params: CostParams, width: int) -> float:
    """Efficiency-discounted linear speedup; never exceeds ``width``."""
    if width < 1:
        raise ValueError("tensor-parallel width must be >= 1")
    return 1.0 + params.tp_efficiency * (width - 1)


def pp_factor(params: CostParams, pp: int) -> float:
    """Pipeline-parallel latency factor with a fill/drain penalty."""
    if pp < 1:
        raise ValueError("pipeline-parallel depth must be >= 1")
    return (1.0 + params.pp_fill_penalty * (pp - 1)) / pp


def parallel_factor(params: CostParams, tp: int, pp: int) -> float:
    return pp_factor(params, pp) / tp_speedup(params, tp)


def encode_latency(params: CostParams, patches_on_worker: int, tp_width: int = 1,
                   batch_size: int = 1) -> float:
    """Seconds one encode worker spends on its share of a batch.

    An empty batch costs nothing; a non-empty batch with zero patches still
    pays the per-batch base cost (text-only requests routed through encode).
    """
    if patches_on_worker < 0:
        raise ValueError("patch count must be non-negative")
    if batch_size == 0:
        return 0.0
    raw = params.enc_base + params.enc_per_patch * params.encode_heaviness * patches_on_worker
    return raw / tp_speedup(params, tp_width)


def prefill_latency(params: CostParams, total_tokens: int, tp: int = 1, pp: int = 1) -> float:
    """Seconds to prefill ``total_tokens`` (prompt plus multimodal tokens)."""
    if total_tokens < 1:
        raise ValueError("prefill needs at least one token")
    t = float(total_tokens)
    raw = params.prefill_base + params.prefill_per_token * t + params.prefill_quad * t * t
    return raw * pp_factor(params, pp) / tp_speedup(params, tp)


def decode_step_latency(params: CostParams, batch_size: int, resident_kv_tokens: int) -> float:
    """Seconds for one iteration-level decode step over a running batch."""
    if batch_size < 1:
        raise ValueError("decode step needs at least one sequence")
    if resident_kv_tokens < 0:
        raise ValueError("resident KV tokens must be non-negative")
    return (params.decode_base
            + params.decode_per_seq * batch_size
            + params.decode_per_kv_token * resident_kv_tokens)


def decode_step_latencies(params: CostParams, batch_size: int, resident_kv_tokens: int,
                          steps: int) -> np.ndarray:
    """Seconds for each of ``steps`` consecutive decode steps of one batch,
    whose KV tokens start at ``resident_kv_tokens`` and grow by one token per
    sequence a step. Each element equals :func:`decode_step_latency`'s value
    for its step bit for bit: the same operations in the same order, on KV
    counts that convert to float exactly."""
    if batch_size < 1:
        raise ValueError("decode step needs at least one sequence")
    if resident_kv_tokens < 0:
        raise ValueError("resident KV tokens must be non-negative")
    kv = np.arange(resident_kv_tokens, resident_kv_tokens + steps * batch_size, batch_size)
    return (params.decode_base
            + params.decode_per_seq * batch_size
            + params.decode_per_kv_token * kv)


def transfer_latency(num_bytes: float, channel: Channel, hw: HardwareSpec,
                     setup: float = 0.0) -> float:
    """Seconds to move ``num_bytes`` over the given channel."""
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    bandwidth = hw.intra_node_bandwidth if channel is Channel.INTRA else hw.inter_node_bandwidth
    return num_bytes / bandwidth + setup

