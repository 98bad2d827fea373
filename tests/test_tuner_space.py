"""Tests for tuning config spaces and knobs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TuningError
from repro.stonne.layer import ConvLayer, FcLayer
from repro.tuner import (
    ConfigSpace,
    config_to_conv_mapping,
    config_to_fc_mapping,
    conv_mapping_space,
    fc_mapping_space,
    hardware_space,
)


class TestConfigSpace:
    def test_define_and_size(self):
        space = ConfigSpace()
        space.define_knob("a", [1, 2, 3])
        space.define_knob("b", ["x", "y"])
        assert space.raw_size == 6

    def test_duplicate_knob_rejected(self):
        space = ConfigSpace()
        space.define_knob("a", [1])
        with pytest.raises(TuningError, match="already defined"):
            space.define_knob("a", [2])

    def test_empty_values_rejected(self):
        with pytest.raises(TuningError, match="at least one"):
            ConfigSpace().define_knob("a", [])

    def test_index_roundtrip_exhaustive(self):
        space = ConfigSpace()
        space.define_knob("a", [1, 2, 3])
        space.define_knob("b", [10, 20])
        space.define_knob("c", ["p", "q"])
        for index in range(space.raw_size):
            assert space.index_of(space.config_at(index)) == index

    def test_out_of_range_index(self):
        space = ConfigSpace()
        space.define_knob("a", [1, 2])
        with pytest.raises(TuningError, match="out of range"):
            space.config_at(2)

    def test_index_of_unknown_config(self):
        space = ConfigSpace()
        space.define_knob("a", [1, 2])
        with pytest.raises(TuningError, match="not addressable"):
            space.index_of({"a": 5})

    def test_constraints_filter_valid_indices(self):
        space = ConfigSpace()
        space.define_knob("a", [1, 2, 3, 4])
        space.add_constraint(lambda cfg: cfg["a"] % 2 == 0)
        valid = [space.config_at(i)["a"] for i in space.valid_indices()]
        assert valid == [2, 4]
        assert space.valid_size() == 2

    def test_valid_indices_resume_from_a_start_index(self):
        space = ConfigSpace()
        space.define_knob("a", list(range(10)))
        space.add_constraint(lambda cfg: cfg["a"] % 3 == 0)
        assert list(space.valid_indices(4)) == [6, 9]
        assert list(space.valid_indices(9)) == [9]
        assert list(space.valid_indices(10)) == []


class TestMappingSpaces:
    @pytest.fixture
    def conv(self):
        return ConvLayer("c", C=16, H=12, W=12, K=32, R=3, S=3)

    @pytest.fixture
    def fc(self):
        return FcLayer("f", in_features=256, out_features=128)

    def test_conv_space_knobs(self, conv):
        space = conv_mapping_space(conv, ms_size=128)
        assert set(space.knobs) == {"T_R", "T_S", "T_C", "T_K", "T_X", "T_Y"}
        # All valid configs respect the capacity constraint.
        for index in list(space.valid_indices())[:200]:
            mapping = config_to_conv_mapping(space.config_at(index))
            assert mapping.multipliers_used <= 128

    def test_conv_space_subsampling(self, conv):
        small = conv_mapping_space(conv, 128, max_options_per_tile=3)
        large = conv_mapping_space(conv, 128, max_options_per_tile=10)
        assert small.raw_size < large.raw_size
        # bounds always present so full-coverage mappings stay reachable
        assert conv.R in small.knobs["T_R"]
        assert 1 in small.knobs["T_C"]

    def test_fc_space_contains_paper_mappings(self, fc):
        space = fc_mapping_space(fc, ms_size=128)
        for t_s, t_k in [(128, 1), (16, 8), (1, 128)]:
            index = space.index_of({"T_S": t_s, "T_K": t_k, "T_N": 1})
            assert space.is_valid(space.config_at(index))

    def test_fc_capacity_constraint(self, fc):
        space = fc_mapping_space(fc, ms_size=64)
        assert not space.is_valid({"T_S": 64, "T_K": 2, "T_N": 1})
        assert space.is_valid({"T_S": 32, "T_K": 2, "T_N": 1})

    def test_config_to_mapping_types(self, fc):
        mapping = config_to_fc_mapping({"T_S": 8, "T_K": 4, "T_N": 1})
        assert mapping.multipliers_used == 32


class TestHardwareSpace:
    def test_knobs(self):
        space = hardware_space()
        assert set(space.knobs) == {"ms_size", "dn_bw", "rn_bw"}
        assert space.raw_size == 6 * 4 * 4

    @given(index=st.integers(0, 95))
    @settings(max_examples=20)
    def test_all_configs_power_of_two(self, index):
        from repro.stonne.layer import is_power_of_two

        config = hardware_space().config_at(index)
        assert is_power_of_two(config["ms_size"])
        assert is_power_of_two(config["dn_bw"])
