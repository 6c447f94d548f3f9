"""System configuration types: instances, roles, and the xEyPzD shorthand."""

from __future__ import annotations

import json
import re
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .controller import ControllerParams
from .costs import Channel, CostParams
from .models import HardwareSpec, ModelSpec, StageRole


class ConfigInfeasible(Exception):
    """The configuration cannot serve the pipeline on the given hardware."""


class CapacityExceeded(Exception):
    """A request can never fit the configured caches (admission disabled)."""


class SchedulePolicy(Enum):
    """How a stage assigns requests to its instances.

    FCFS cycles round-robin over the instances; ``"round_robin"``, the old
    name of the same policy, still reads as FCFS.
    """

    FCFS = "fcfs"
    LEAST_LOADED = "least_loaded"

    @classmethod
    def _missing_(cls, value):
        return cls.FCFS if value == "round_robin" else None


@dataclass(frozen=True)
class InstanceConfig:
    """One data-parallel instance: its role, parallel widths and batch cap.

    For encode instances ``tp`` is the intra-request parallel width (the
    number of workers one request's patches are sharded across).
    """

    role: StageRole
    tp: int = 1
    pp: int = 1
    max_batch: int = 1
    policy: SchedulePolicy = SchedulePolicy.FCFS

    def __post_init__(self) -> None:
        if self.tp < 1 or self.pp < 1:
            raise ValueError("tp and pp must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.role is StageRole.ENCODE and self.pp != 1:
            raise ValueError("encode instances must have pp == 1")

    @property
    def gpus(self) -> int:
        return self.tp * self.pp


_ROLE_FAMILIES = (
    {StageRole.ENCODE, StageRole.PREFILL, StageRole.DECODE},
    {StageRole.ENCODE_PREFILL, StageRole.DECODE},
    {StageRole.MONOLITHIC},
)


@dataclass(frozen=True)
class SystemConfig:
    """A complete deployment: instances plus the shared physics and caches."""

    instances: tuple[InstanceConfig, ...]
    hardware: HardwareSpec
    model: ModelSpec
    cost: CostParams = field(default_factory=CostParams)
    role_switch: Optional[ControllerParams] = None
    kv_fraction: float = 0.5
    mm_cache_tokens: int = 48_000
    block_size: int = 16
    transfer_channel: Channel = Channel.INTRA
    admission_control: bool = True
    role_max_batch: Optional[dict[StageRole, int]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.kv_fraction <= 1:
            raise ValueError(f"kv_fraction must be within [0, 1], not {self.kv_fraction}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, not {self.block_size}")
        if self.mm_cache_tokens < 0:
            raise ValueError(f"mm_cache_tokens must be >= 0, not {self.mm_cache_tokens}")
        for role, cap in (self.role_max_batch or {}).items():
            if cap < 1:
                raise ValueError(f"role_max_batch[{role.value}] must be >= 1, not {cap}")

    @property
    def gpu_count(self) -> int:
        return sum(i.gpus for i in self.instances)

    def validate(self) -> None:
        if not self.instances:
            raise ConfigInfeasible("no instances configured")
        if self.gpu_count > self.hardware.num_gpus:
            raise ConfigInfeasible(
                f"config needs {self.gpu_count} GPUs but hardware has {self.hardware.num_gpus}")
        roles = {i.role for i in self.instances}
        if not any(roles <= family for family in _ROLE_FAMILIES):
            raise ConfigInfeasible(f"unsupported role mixture {sorted(r.value for r in roles)}")
        for served, label in ((lambda r: r.serves_encode, "encode"),
                              (lambda r: r.serves_prefill, "prefill"),
                              (lambda r: r.serves_decode, "decode")):
            if not any(served(i.role) for i in self.instances):
                raise ConfigInfeasible(f"no instance serves the {label} stage")
        for stage_check in (lambda r: r.serves_encode, lambda r: r.serves_prefill,
                            lambda r: r.serves_decode):
            policies = {i.policy for i in self.instances if stage_check(i.role)}
            if len(policies) > 1:
                raise ConfigInfeasible("instances within one stage must share a policy")
        if self.role_switch is not None and not roles <= _ROLE_FAMILIES[0]:
            raise ConfigInfeasible("role switching requires dedicated E/P/D instances")


_SHAPE_TOKEN = re.compile(r"(\d+)(EP|E|P|D|M)")

_SHAPE_ROLES = {
    "E": StageRole.ENCODE,
    "P": StageRole.PREFILL,
    "D": StageRole.DECODE,
    "EP": StageRole.ENCODE_PREFILL,
    "M": StageRole.MONOLITHIC,
}


def parse_shape(shape: str) -> list[tuple[int, StageRole]]:
    """Expand shorthand like ``5E1P2D`` into (count, role) groups."""
    text = shape.strip().upper()
    pos = 0
    groups: list[tuple[int, StageRole]] = []
    while pos < len(text):
        match = _SHAPE_TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse deployment shape {shape!r} at {text[pos:]!r}")
        groups.append((int(match.group(1)), _SHAPE_ROLES[match.group(2)]))
        pos = match.end()
    if not groups:
        raise ValueError(f"empty deployment shape {shape!r}")
    return groups


def expand_shape(shape: str, *, tp: Optional[dict[StageRole, int]] = None,
                 pp: Optional[dict[StageRole, int]] = None,
                 max_batch: Optional[dict[StageRole, int]] = None,
                 policy: SchedulePolicy = SchedulePolicy.FCFS) -> tuple[InstanceConfig, ...]:
    """Build instance configs from shorthand plus per-role settings."""
    tp = tp or {}
    pp = pp or {}
    max_batch = max_batch or {}
    out: list[InstanceConfig] = []
    for count, role in parse_shape(shape):
        for _ in range(count):
            out.append(InstanceConfig(
                role=role,
                tp=tp.get(role, 1),
                pp=pp.get(role, 1),
                max_batch=max_batch.get(role, 1),
                policy=policy,
            ))
    return tuple(out)


def disable_irp(config: SystemConfig) -> SystemConfig:
    """Split every multi-worker encode instance into width-1 instances.

    GPU count is conserved; each request's patches then run on one worker.
    """
    instances: list[InstanceConfig] = []
    for inst in config.instances:
        if inst.role is StageRole.ENCODE and inst.tp > 1:
            instances.extend(replace(inst, tp=1) for _ in range(inst.tp))
        else:
            instances.append(inst)
    return replace(config, instances=tuple(instances))


# --- config file I/O --------------------------------------------------------

def to_dict(value):
    """JSON-ready form of a config value: dataclasses field by field, enums by
    value, models by catalog name, tuples as lists and mappings key by key."""
    if isinstance(value, ModelSpec):
        return value.name
    if is_dataclass(value):
        return {f.name: to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {to_dict(k): to_dict(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_dict(v) for v in value]
    return value


def from_dict(cls, data: Mapping, catalog: Optional[Mapping[str, ModelSpec]] = None):
    """Inverse of :func:`to_dict` for the dataclass ``cls``, driven by its
    field annotations. A missing field takes its dataclass default; an unknown
    key or a missing required field raises ``KeyError`` naming it, and a value
    of the wrong type raises ``TypeError`` naming its field."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise KeyError(unknown[0])
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            kwargs[f.name] = _field(f.name, hints[f.name], data[f.name], catalog)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**kwargs)


def _field(name: str, hint, value, catalog):
    """Decode one field's value; a wrong type or value raises naming the field."""
    try:
        return _decode(hint, value, catalog)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def _decode(hint, value, catalog):
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _decode(hint, value, catalog)
    if hint is ModelSpec:
        return catalog[value]
    if is_dataclass(hint):
        return from_dict(hint, _expect(value, Mapping), catalog)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if origin in (tuple, Sequence):
        return tuple(_decode(args[0], item, catalog) for item in _expect(value, list, tuple))
    if origin in (dict, Mapping):
        return {_decode(args[0], k, catalog): _decode(args[1], v, catalog)
                for k, v in _expect(value, Mapping).items()}
    if hint is float:
        return _expect(value, float, int)
    return _expect(value, hint) if isinstance(hint, type) else value


def _expect(value, *kinds):
    """``value`` if it is one of ``kinds``, else ``TypeError``; a ``bool`` is
    only ever a ``bool``, never an ``int`` or a ``float``."""
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"expected {names}, got {value!r}")
    return value


def system_from_dict(data: Mapping, catalog: Mapping[str, ModelSpec]) -> SystemConfig:
    """A system from its JSON mapping. ``"shape"`` shorthand such as ``5E1P2D``,
    with optional per-role ``tp``/``pp``/``max_batch`` maps and one ``policy``,
    may stand in for the ``instances`` list."""
    if "shape" in data:
        data = dict(data)
        hints = get_type_hints(expand_shape)
        options = {key: _field(key, hints[key], data.pop(key), catalog)
                   for key in ("shape", "tp", "pp", "max_batch", "policy") if key in data}
        data["instances"] = to_dict(expand_shape(**options))
    return from_dict(SystemConfig, data, catalog)


def save_system_config(path, config: SystemConfig) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_system_config(path, catalog: dict[str, ModelSpec]) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return system_from_dict(json.load(handle), catalog)
