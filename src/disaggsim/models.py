"""Model and hardware descriptions plus the byte-level memory model.

Everything here is pure data and pure arithmetic: parameter counts, cache
bytes per token, and patch-count lookups that both the capacity calculator
and the simulator build on.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Mapping

Resolution = tuple[int, int]


class StageRole(Enum):
    """What one worker serves: a dedicated stage or an aggregated bundle.

    ENCODE_PREFILL couples encoding with prefill on the same worker while
    decode runs elsewhere; MONOLITHIC runs all three stages on one worker.
    """

    ENCODE = "E"
    PREFILL = "P"
    DECODE = "D"
    ENCODE_PREFILL = "EP"
    MONOLITHIC = "M"

    @property
    def serves_encode(self) -> bool:
        return self in (StageRole.ENCODE, StageRole.ENCODE_PREFILL, StageRole.MONOLITHIC)

    @property
    def serves_prefill(self) -> bool:
        return self in (StageRole.PREFILL, StageRole.ENCODE_PREFILL, StageRole.MONOLITHIC)

    @property
    def serves_decode(self) -> bool:
        return self in (StageRole.DECODE, StageRole.MONOLITHIC)


class UnknownResolution(KeyError):
    """Image resolution is not present in the model's patch table."""


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one multimodal model (encoder + LLM)."""

    name: str
    encoder_params: int
    llm_params: int
    num_layers: int
    kv_heads: int
    head_dim: int
    hidden_dim: int
    tokens_per_patch: int
    max_context_tokens: int
    patch_table: Mapping[Resolution, int] = field(default_factory=dict)
    bytes_per_param: int = 2

    def __post_init__(self) -> None:
        positive = {
            "encoder_params": self.encoder_params,
            "llm_params": self.llm_params,
            "num_layers": self.num_layers,
            "kv_heads": self.kv_heads,
            "head_dim": self.head_dim,
            "hidden_dim": self.hidden_dim,
            "tokens_per_patch": self.tokens_per_patch,
            "max_context_tokens": self.max_context_tokens,
            "bytes_per_param": self.bytes_per_param,
        }
        for key, value in positive.items():
            if value <= 0:
                raise ValueError(f"{self.name}: {key} must be positive, got {value}")
        for res, patches in self.patch_table.items():
            if patches < 1:
                raise ValueError(f"{self.name}: patch count for {res} must be >= 1")
        if self.max_context_tokens <= self.tokens_per_patch:
            raise ValueError(f"{self.name}: max_context_tokens must exceed tokens_per_patch")


@dataclass(frozen=True)
class HardwareSpec:
    """Per-GPU memory and the transfer channel capacities of the cluster."""

    gpu_memory: float
    intra_node_bandwidth: float
    inter_node_bandwidth: float
    num_gpus: int

    def __post_init__(self) -> None:
        for name in ("gpu_memory", "num_gpus"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, not {getattr(self, name)}")
        # An infinite bandwidth is allowed: its transfers take no time.
        for name in ("intra_node_bandwidth", "inter_node_bandwidth"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)}")
        if self.inter_node_bandwidth > self.intra_node_bandwidth:
            raise ValueError("inter-node bandwidth cannot exceed intra-node bandwidth")


def weights_bytes(model: ModelSpec, role: StageRole) -> int:
    """Bytes of model weights a worker with the given role must hold."""
    params = 0
    if role.serves_encode:
        params += model.encoder_params
    if role is not StageRole.ENCODE:
        params += model.llm_params
    return params * model.bytes_per_param


def kv_bytes_per_token(model: ModelSpec) -> int:
    """Bytes of key/value cache one context token occupies."""
    return 2 * model.num_layers * model.kv_heads * model.head_dim * model.bytes_per_param


def mm_bytes_per_token(model: ModelSpec) -> int:
    """Bytes one multimodal token embedding occupies in the MM cache."""
    return model.hidden_dim * model.bytes_per_param


def patches_for_image(model: ModelSpec, resolution: Resolution) -> int:
    """Patch count for one image at the given resolution (table lookup only)."""
    try:
        return model.patch_table[tuple(resolution)]
    except KeyError:
        raise UnknownResolution(f"{model.name}: no patch count for resolution {resolution}") from None


def tokens_for_request(model: ModelSpec, request) -> tuple[int, int]:
    """(multimodal tokens, total prefill tokens) a request will produce.

    ``request`` only needs ``images`` and ``prompt_tokens`` attributes.
    Raises :class:`UnknownResolution` for unmapped image sizes.
    """
    mm_tokens = sum(
        patches_for_image(model, res) * model.tokens_per_patch for res in request.images
    )
    return mm_tokens, mm_tokens + request.prompt_tokens


# --- catalog file I/O -------------------------------------------------------

_INT_FIELDS = (
    "encoder_params",
    "llm_params",
    "num_layers",
    "kv_heads",
    "head_dim",
    "hidden_dim",
    "tokens_per_patch",
    "max_context_tokens",
    "bytes_per_param",
)


def _parse_patch_table(text: str) -> dict[Resolution, int]:
    table: dict[Resolution, int] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        res_part, count = entry.split(":")
        w, h = res_part.lower().split("x")
        table[(int(w), int(h))] = int(count)
    return table


def load_catalog(source) -> dict[str, ModelSpec]:
    """Parse a key/value catalog file (one section per model)."""
    parser = configparser.ConfigParser()
    if hasattr(source, "read"):
        parser.read_file(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    catalog: dict[str, ModelSpec] = {}
    for section in parser.sections():
        raw = dict(parser[section])
        kwargs = {key: int(raw[key]) for key in _INT_FIELDS if key in raw}
        kwargs["patch_table"] = _parse_patch_table(raw.get("patch_table", ""))
        catalog[section] = ModelSpec(name=section, **kwargs)
    return catalog


def builtin_catalog() -> dict[str, ModelSpec]:
    """Models shipped with the package (see ``data/models.cfg``)."""
    with resources.files("disaggsim.data").joinpath("models.cfg").open("r") as handle:
        return load_catalog(handle)


def builtin_model(name: str) -> ModelSpec:
    catalog = builtin_catalog()
    try:
        return catalog[name]
    except KeyError:
        raise KeyError(f"unknown builtin model {name!r}; have {sorted(catalog)}") from None
