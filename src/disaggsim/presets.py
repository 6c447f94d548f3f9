"""Shipped experiment presets: models, SLO limits, systems and workloads.

Per-stage latency coefficients are synthetic calibrations chosen so the
relative behavior of the deployments is meaningful at desk scale; they are
not measurements of any real accelerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .controller import ControllerParams
from .costs import CostParams
from .models import HardwareSpec, ModelSpec, StageRole, builtin_model
from .simconfig import SchedulePolicy, SystemConfig, expand_shape
from .workload import Request, Slo, WorkloadSpec, generate_poisson, generate_shifted

MINICPM = "minicpm-v-2.6"
INTERNVL8 = "internvl2-8b"
INTERNVL26 = "internvl2-26b"

DEFAULT_SEED = 20260808  # of every preset workload and ablation run without --seed

RES_4K = (4032, 3024)
RES_LOW = (313, 234)

# TTFT / TPOT limits (seconds) keyed by (model, images per request).
SLO_TABLE: dict[tuple[str, int], Slo] = {
    (MINICPM, 2): Slo(1.40, 0.04),
    (MINICPM, 4): Slo(2.60, 0.04),
    (MINICPM, 6): Slo(3.90, 0.06),
    (MINICPM, 8): Slo(5.10, 0.06),
    (INTERNVL8, 2): Slo(1.20, 0.05),
    (INTERNVL8, 4): Slo(2.40, 0.06),
    (INTERNVL8, 6): Slo(3.55, 0.09),
    (INTERNVL8, 8): Slo(5.00, 0.18),
    (INTERNVL26, 2): Slo(3.50, 0.07),
    (INTERNVL26, 4): Slo(7.05, 0.08),
    (INTERNVL26, 6): Slo(11.00, 0.95),
    (INTERNVL26, 8): Slo(15.00, 0.15),
}


def slo_for(model_name: str, images_per_request: int) -> Slo:
    try:
        return SLO_TABLE[(model_name, images_per_request)]
    except KeyError:
        raise KeyError(f"no SLO entry for {model_name} at {images_per_request} images") from None


# Synthetic per-model stage calibrations (seconds).
SYNTHETIC_COSTS: dict[str, CostParams] = {
    MINICPM: CostParams(
        enc_base=0.1, enc_per_patch=0.05,
        prefill_base=0.05, prefill_per_token=2e-4, prefill_quad=1e-8,
        decode_base=0.01, decode_per_seq=0.002, decode_per_kv_token=1e-6),
    INTERNVL8: CostParams(
        enc_base=0.1, enc_per_patch=0.04,
        prefill_base=0.05, prefill_per_token=8e-5, prefill_quad=1e-9,
        decode_base=0.01, decode_per_seq=0.002, decode_per_kv_token=5e-7),
    INTERNVL26: CostParams(
        enc_base=0.1, enc_per_patch=0.1,
        prefill_base=0.05, prefill_per_token=2e-4, prefill_quad=2e-9,
        decode_base=0.012, decode_per_seq=0.003, decode_per_kv_token=5e-7),
}

EIGHT_GPU_NODE = HardwareSpec(
    gpu_memory=82e9,
    intra_node_bandwidth=300e9,
    inter_node_bandwidth=25e9,
    num_gpus=8,
)

# Heavy capacity profile: synthetic activation workspace coefficients that
# put the aggregated shapes under realistic memory pressure at 4K inputs.
HEAVY_PREFILL_ACT_BYTES = 100_000.0
HEAVY_ENCODE_ACT_BYTES = 50_000.0


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    model: ModelSpec
    hardware: HardwareSpec
    cost: CostParams
    workload: WorkloadSpec
    systems: dict[str, SystemConfig]
    rate_grid: tuple[float, ...]  # empty when the requests ignore the arrival rate
    # The requests of a workload spec; every command that simulates the
    # preset's workload (simulate, sweep, the ablations) calls this.
    generate: Callable[[WorkloadSpec], list[Request]] = generate_poisson

    @property
    def slo(self) -> Slo:
        return self.workload.slo


def build_system(model: ModelSpec, cost: CostParams, shape: str, *,
                 tp: Optional[dict[StageRole, int]] = None,
                 max_batch: Optional[dict[StageRole, int]] = None, **kwargs) -> SystemConfig:
    """A deployment on the eight-GPU node from xEyPzD shorthand, every stage
    assigning least-loaded first; ``kwargs`` set the other system fields."""
    return SystemConfig(instances=expand_shape(shape, tp=tp, max_batch=max_batch),
                        hardware=EIGHT_GPU_NODE, model=model, cost=cost,
                        policy=SchedulePolicy.LEAST_LOADED, **kwargs)


def offline_batches(batch: int) -> dict[StageRole, int]:
    """Batch caps of the offline systems: ``batch`` for encode and prefill, 128 for decode."""
    return {StageRole.ENCODE: batch, StageRole.PREFILL: batch, StageRole.DECODE: 128}


_FIG5_GRIDS = {
    MINICPM: (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
    INTERNVL8: (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6),
    INTERNVL26: (0.02, 0.05, 0.08, 0.12, 0.16, 0.2, 0.3, 0.4, 0.6, 0.8),
}

_MODEL_ALIASES = {"minicpm": MINICPM, "internvl8": INTERNVL8, "internvl26": INTERNVL26}


def _slo_preset(model_name: str, images: int, seed: int = DEFAULT_SEED) -> ExperimentPreset:
    model = builtin_model(model_name)
    cost = SYNTHETIC_COSTS[model_name]
    workload = WorkloadSpec(
        rate_lambda=1.0, num_requests=100, prompt_tokens=22,
        images_per_request=images, resolution=RES_4K, output_tokens=10,
        seed=seed, slo=slo_for(model_name, images))
    systems = {
        "epd": build_system(model, cost, "1E2P2D", tp={StageRole.ENCODE: 4}),
        "distserve": build_system(model, cost, "6EP2D"),
        "monolithic": build_system(model, cost, "8M"),
    }
    alias = {v: k for k, v in _MODEL_ALIASES.items()}[model_name]
    return ExperimentPreset(
        name=f"slo-{alias}-{images}img",
        model=model, hardware=EIGHT_GPU_NODE, cost=cost, workload=workload,
        systems=systems, rate_grid=_FIG5_GRIDS[model_name])


def encode_heavy_preset(seed: int = DEFAULT_SEED) -> ExperimentPreset:
    """4 high-resolution images per request on the smallest model."""
    return replace(_slo_preset(MINICPM, 4, seed), name="encode-heavy")


def ttft_distribution_preset(model_name: str, images: int,
                             seed: int = DEFAULT_SEED) -> ExperimentPreset:
    """Fixed-rate run comparing TTFT distributions of the two splits."""
    base = _slo_preset(model_name, images, seed)
    rate = 0.25 if model_name == MINICPM else 0.08
    return replace(
        base, name=f"ttft-{base.name.removeprefix('slo-')}",
        workload=replace(base.workload, rate_lambda=rate), rate_grid=(rate,),
        systems={label: base.systems[label] for label in ("epd", "distserve")})


def switch_preset(seed: int = DEFAULT_SEED, role_switch: bool = True) -> ExperimentPreset:
    """Shifted-output workload served by an initially encode-heavy deployment."""
    model = builtin_model(MINICPM)
    cost = replace(SYNTHETIC_COSTS[MINICPM],
                   decode_base=0.004, decode_per_seq=0.002, decode_per_kv_token=4e-7)
    workload = WorkloadSpec(
        rate_lambda=3.0, num_requests=100, prompt_tokens=22,
        images_per_request=1, resolution=RES_4K, output_tokens=50,
        seed=seed, slo=Slo(5.0, 0.1))
    controller = ControllerParams(
        monitor_interval=1.0,
        imbalance_threshold=4.0,
        smoothing=4.0,
        min_instances_per_stage=2,
        cooldown=4.0,
        stage_work_scale={
            StageRole.ENCODE: 10.0,     # patches per request
            StageRole.PREFILL: 662.0,   # prefill tokens per request
            StageRole.DECODE: 1.0,      # sequences
        },
    ) if role_switch else None
    system = build_system(
        model, cost, "5E1P2D", max_batch={StageRole.DECODE: 5}, role_switch=controller)
    return ExperimentPreset(
        name="switch-shifted", model=model, hardware=EIGHT_GPU_NODE, cost=cost,
        workload=workload, systems={"epd": system}, rate_grid=(3.0,),
        generate=partial(generate_shifted, early=(10, 50), late=(90, 500)))


def optimizer_preset(seed: int = DEFAULT_SEED) -> ExperimentPreset:
    """Six-image workload used for configuration search experiments."""
    model = builtin_model(MINICPM)
    cost = SYNTHETIC_COSTS[MINICPM]
    workload = WorkloadSpec(
        rate_lambda=1.0, num_requests=100, prompt_tokens=22,
        images_per_request=6, resolution=RES_4K, output_tokens=10,
        seed=seed, slo=slo_for(MINICPM, 6))
    return ExperimentPreset(
        name="optimizer-restricted", model=model, hardware=EIGHT_GPU_NODE, cost=cost,
        workload=workload, systems={}, rate_grid=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6))


def offline_preset(seed: int = DEFAULT_SEED) -> ExperimentPreset:
    """Batch-submitted workload for end-to-end throughput comparisons: an
    infinite rate puts every arrival at time zero."""
    model = builtin_model(MINICPM)
    cost = SYNTHETIC_COSTS[MINICPM]
    workload = WorkloadSpec(
        rate_lambda=math.inf, num_requests=200, prompt_tokens=7,
        images_per_request=1, resolution=RES_LOW, output_tokens=10,
        seed=seed, slo=Slo(60.0, 1.0))  # throughput runs are not SLO-gated
    systems = {
        "epd-5e2p1d": build_system(model, cost, "5E2P1D", max_batch=offline_batches(8)),
        "distserve-7ep1d": build_system(model, cost, "7EP1D",
                                        max_batch={StageRole.DECODE: 128}),
    }
    return ExperimentPreset(
        name="offline-throughput", model=model, hardware=EIGHT_GPU_NODE, cost=cost,
        workload=workload, systems=systems, rate_grid=())


def _named_presets() -> dict[str, Callable[[], ExperimentPreset]]:
    presets: dict[str, Callable[[], ExperimentPreset]] = {
        "encode-heavy": encode_heavy_preset,
        "switch-shifted": switch_preset,
        "optimizer-restricted": optimizer_preset,
        "offline-throughput": offline_preset,
    }
    for alias, name in _MODEL_ALIASES.items():
        for images in (2, 4, 6, 8):
            presets[f"slo-{alias}-{images}img"] = (
                lambda n=name, i=images: _slo_preset(n, i))
            presets[f"ttft-{alias}-{images}img"] = (
                lambda n=name, i=images: ttft_distribution_preset(n, i))
    return presets


def preset_names() -> list[str]:
    return sorted(_named_presets())


def get_preset(name: str) -> ExperimentPreset:
    try:
        factory = _named_presets()[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {preset_names()}") from None
    return factory()
