"""The config codec: lossless JSON round trips and strict reading."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from disaggsim.controller import ControllerParams
from disaggsim.costs import Channel, CostParams
from disaggsim.models import HardwareSpec, StageRole, builtin_catalog
from disaggsim.optimizer import BudgetMode, ConfigSpace, restricted_space, space_from_dict
from disaggsim.presets import get_preset, preset_names
from disaggsim.simconfig import (InstanceConfig, SchedulePolicy, SystemConfig, from_dict,
                                 system_from_dict, to_dict)

CATALOG = builtin_catalog()
MODEL = CATALOG["minicpm-v-2.6"]
HARDWARE = {"gpu_memory": 82e9, "intra_node_bandwidth": 300e9,
            "inter_node_bandwidth": 25e9, "num_gpus": 8}

FAMILIES = (
    (StageRole.ENCODE, StageRole.PREFILL, StageRole.DECODE),
    (StageRole.ENCODE_PREFILL, StageRole.DECODE),
    (StageRole.MONOLITHIC,),
)
STAGES = (StageRole.ENCODE, StageRole.PREFILL, StageRole.DECODE)


def through_json(data):
    return json.loads(json.dumps(data))


def finite(low=1e-9, high=1e12):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


def instances(roles):
    def instance(role):
        return st.builds(InstanceConfig, role=st.just(role), tp=st.integers(1, 8),
                         pp=st.just(1) if role is StageRole.ENCODE else st.integers(1, 4),
                         max_batch=st.integers(1, 256),
                         policy=st.sampled_from(SchedulePolicy))
    return st.lists(st.sampled_from(roles).flatmap(instance), min_size=1,
                    max_size=8).map(tuple)


controllers = st.builds(
    ControllerParams,
    monitor_interval=finite(), imbalance_threshold=finite(1.0001, 100.0),
    smoothing=finite(0.0, 100.0), min_instances_per_stage=st.integers(1, 4),
    cooldown=finite(0.0, 100.0),
    stage_work_scale=st.none() | st.dictionaries(st.sampled_from(STAGES), finite()))


@st.composite
def hardware(draw):
    inter = draw(finite(1.0))
    return HardwareSpec(gpu_memory=draw(finite(1.0)),
                        intra_node_bandwidth=inter + draw(finite(0.0)),
                        inter_node_bandwidth=inter, num_gpus=draw(st.integers(1, 64)))


systems = st.sampled_from(FAMILIES).flatmap(lambda roles: st.builds(
    SystemConfig,
    instances=instances(roles), hardware=hardware(),
    model=st.sampled_from(list(CATALOG.values())),
    cost=st.builds(CostParams, enc_per_patch=finite(0.0, 1.0),
                   decode_per_kv_token=finite(0.0, 1e-3),
                   tp_efficiency=finite(1e-3, 1.0), transfer_setup=finite(0.0, 1.0)),
    role_switch=st.none() | controllers,
    kv_fraction=st.floats(0.0, 1.0),
    mm_cache_tokens=st.integers(0, 10**6),
    block_size=st.integers(1, 64),
    transfer_channel=st.sampled_from(Channel),
    admission_control=st.booleans(),
    role_max_batch=st.none() | st.dictionaries(st.sampled_from(STAGES),
                                               st.integers(1, 256))))


def round_trip(config: SystemConfig) -> SystemConfig:
    return system_from_dict(through_json(to_dict(config)), CATALOG)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(systems)
    def test_random_systems(self, config):
        assert round_trip(config) == config

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_systems(self, name):
        for config in get_preset(name).systems.values():
            assert round_trip(config) == config

    def test_switch_preset_keeps_controller_and_batch_caps(self):
        data = to_dict(get_preset("switch-shifted").systems["epd"])
        assert data["role_switch"]["stage_work_scale"] == {"E": 10.0, "P": 662.0, "D": 1.0}
        assert data["role_max_batch"] == {"E": 1, "P": 1, "D": 5}

    @settings(max_examples=100, deadline=None)
    @given(controllers)
    def test_controller_params(self, params):
        assert from_dict(ControllerParams, through_json(to_dict(params))) == params

    @settings(max_examples=100, deadline=None)
    @given(st.builds(
        ConfigSpace, gpu_budget=st.integers(1, 64), budget_mode=st.sampled_from(BudgetMode),
        encode_gpus=st.lists(st.integers(1, 8)).map(tuple),
        irp_choices=st.lists(st.booleans()).map(tuple),
        decode_batches=st.lists(st.integers(1, 256)).map(tuple),
        policies=st.lists(st.sampled_from(SchedulePolicy), min_size=1,
                          unique=True).map(tuple)))
    def test_config_space(self, space):
        assert space_from_dict(through_json(to_dict(space))) == space

    def test_restricted_space(self):
        space = restricted_space(8)
        assert space_from_dict(through_json(to_dict(space))) == space


class TestReading:
    def test_missing_fields_take_dataclass_defaults(self):
        config = system_from_dict({"model": MODEL.name, "hardware": HARDWARE,
                                   "instances": [{"role": "M"}]}, CATALOG)
        assert config == SystemConfig(instances=(InstanceConfig(StageRole.MONOLITHIC),),
                                      hardware=HardwareSpec(**HARDWARE), model=MODEL)

    @pytest.mark.parametrize("path", [(), ("hardware",), ("instances", 0), ("cost",)])
    def test_unknown_key_is_named(self, path):
        data = {"model": MODEL.name, "hardware": dict(HARDWARE), "cost": {},
                "instances": [{"role": "M"}]}
        target = data
        for step in path:
            target = target[step]
        target["kv_fration"] = 0.3
        with pytest.raises(KeyError, match="kv_fration"):
            system_from_dict(data, CATALOG)

    @pytest.mark.parametrize("key", ["model", "hardware", "instances"])
    def test_missing_required_field_is_named(self, key):
        data = {"model": MODEL.name, "hardware": HARDWARE, "instances": [{"role": "M"}]}
        del data[key]
        with pytest.raises(KeyError, match=key):
            system_from_dict(data, CATALOG)

    def test_shape_shorthand(self):
        config = system_from_dict({
            "model": MODEL.name, "hardware": HARDWARE, "shape": "2E1P1D",
            "tp": {"E": 2}, "pp": {"P": 2}, "max_batch": {"D": 8},
            "policy": "least_loaded", "kv_fraction": 0.3,
        }, CATALOG)
        policy = SchedulePolicy.LEAST_LOADED
        assert config.instances == (
            InstanceConfig(StageRole.ENCODE, tp=2, policy=policy),
            InstanceConfig(StageRole.ENCODE, tp=2, policy=policy),
            InstanceConfig(StageRole.PREFILL, pp=2, policy=policy),
            InstanceConfig(StageRole.DECODE, max_batch=8, policy=policy),
        )
        assert config.kv_fraction == 0.3
        assert config.cost == CostParams()

    def test_round_robin_reads_as_fcfs(self):
        explicit = system_from_dict({"model": MODEL.name, "hardware": HARDWARE,
                                     "instances": [{"role": "M", "policy": "round_robin"}]},
                                    CATALOG)
        shorthand = system_from_dict({"model": MODEL.name, "hardware": HARDWARE,
                                      "shape": "1M", "policy": "round_robin"}, CATALOG)
        space = space_from_dict({"gpu_budget": 8, "policies": ["round_robin"]})
        assert explicit.instances[0].policy is SchedulePolicy.FCFS
        assert shorthand.instances[0].policy is SchedulePolicy.FCFS
        assert space.policies == (SchedulePolicy.FCFS,)

    @pytest.mark.parametrize("key, value, field", [
        ("kv_fraction", "0.3", "kv_fraction"),
        ("mm_cache_tokens", True, "mm_cache_tokens"),
        ("mm_cache_tokens", 4.0, "mm_cache_tokens"),
        ("admission_control", 1, "admission_control"),
        ("hardware", {**HARDWARE, "num_gpus": "8"}, "num_gpus"),
        ("instances", [{"role": "M", "max_batch": "4"}], "max_batch"),
        ("instances", {"role": "M"}, "instances"),
        ("role_max_batch", [8], "role_max_batch"),
    ])
    def test_wrong_value_type_is_named(self, key, value, field):
        data = {"model": MODEL.name, "hardware": HARDWARE, "instances": [{"role": "M"}]}
        with pytest.raises(TypeError, match=field):
            system_from_dict({**data, key: value}, CATALOG)

    def test_int_reads_as_float_field(self):
        config = system_from_dict({"model": MODEL.name, "hardware": HARDWARE,
                                   "instances": [{"role": "M"}], "kv_fraction": 1}, CATALOG)
        assert config.kv_fraction == 1


COST_FIELDS = [name for name in CostParams.__dataclass_fields__]


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", COST_FIELDS)
    def test_cost_coefficient_is_named(self, key, value):
        data = through_json({"model": MODEL.name, "hardware": HARDWARE,
                             "instances": [{"role": "M"}], "cost": {key: value}})
        with pytest.raises(ValueError, match=key):
            system_from_dict(data, CATALOG)

    @pytest.mark.parametrize("key, value", [
        ("gpu_memory", float("nan")), ("gpu_memory", float("inf")),
        ("intra_node_bandwidth", float("nan")), ("inter_node_bandwidth", float("nan")),
    ])
    def test_hardware_value_is_named(self, key, value):
        data = through_json({"model": MODEL.name, "hardware": {**HARDWARE, key: value},
                             "instances": [{"role": "M"}]})
        with pytest.raises(ValueError, match=key):
            system_from_dict(data, CATALOG)

    def test_infinite_bandwidth_means_instant_transfers(self):
        hardware = {**HARDWARE, "intra_node_bandwidth": float("inf"),
                    "inter_node_bandwidth": float("inf")}
        config = system_from_dict(through_json({"model": MODEL.name, "hardware": hardware,
                                                "instances": [{"role": "M"}]}), CATALOG)
        assert config.hardware.inter_node_bandwidth == float("inf")
