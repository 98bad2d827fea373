"""Behavioural tests for the MAERI cycle model.

These encode the *qualitative* properties the paper's evaluation depends
on: mapping quality dominates performance, parallelism helps under good
mappings, bandwidth binds skewed mappings, and the psum counters have the
workload-specific structure §VIII-B observes.
"""

import pytest

from repro.errors import ConfigError, MappingError
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import MaeriController, conv_profile
from repro.stonne.mapping import ConvMapping, FcMapping


@pytest.fixture
def controller(maeri128):
    return MaeriController(maeri128)


@pytest.fixture
def conv():
    return ConvLayer("c", C=16, H=12, W=12, K=32, R=3, S=3, pad_h=1, pad_w=1)


@pytest.fixture
def fc():
    return FcLayer("f", in_features=512, out_features=256)


class TestConstruction:
    def test_rejects_non_maeri_config(self):
        with pytest.raises(ConfigError, match="MAERI"):
            MaeriController(sigma_config())


class TestConvCycles:
    def test_deterministic(self, controller, conv):
        mapping = ConvMapping(T_R=3, T_S=3, T_C=8)
        a = controller.run_conv(conv, mapping).cycles
        b = controller.run_conv(conv, mapping).cycles
        assert a == b

    def test_basic_mapping_is_much_slower(self, controller, conv):
        basic = controller.run_conv(conv, ConvMapping.basic()).cycles
        good = controller.run_conv(conv, ConvMapping(T_R=3, T_S=3, T_C=8)).cycles
        assert basic > 10 * good

    def test_basic_mapping_cycles_track_macs(self, controller, conv):
        """All-ones mapping issues one MAC per iteration, hazard-stalled."""
        stats = controller.run_conv(conv, ConvMapping.basic())
        assert stats.iterations == conv.macs
        assert stats.cycles >= conv.macs

    def test_more_multipliers_help_with_good_mappings(self, conv):
        small = MaeriController(maeri_config(ms_size=32))
        large = MaeriController(maeri_config(ms_size=128))
        cycles_small = small.run_conv(conv, ConvMapping(T_R=3, T_S=3, T_C=3)).cycles
        cycles_large = large.run_conv(conv, ConvMapping(T_R=3, T_S=3, T_C=8)).cycles
        assert cycles_large < cycles_small

    def test_mapping_must_fit(self, controller, conv):
        with pytest.raises(MappingError):
            controller.run_conv(conv, ConvMapping(T_R=3, T_S=3, T_C=16))

    def test_utilization_bounded(self, controller, conv):
        stats = controller.run_conv(conv, ConvMapping(T_R=3, T_S=3, T_C=8))
        assert 0.0 < stats.utilization <= 1.0

    def test_stats_traffic_nonzero(self, controller, conv):
        stats = controller.run_conv(conv, ConvMapping(T_R=3, T_S=3, T_C=4))
        assert stats.traffic.weights_distributed > 0
        assert stats.traffic.inputs_distributed > 0
        assert stats.traffic.outputs_written == conv.output_elements

    def test_halo_reuse_cheaper_than_disjoint_windows(self, controller):
        """Stride-1 output tiling shares input halos; the per-iteration
        input count must reflect the union window, not tiles x window."""
        layer = ConvLayer("h", C=1, H=16, W=16, K=1, R=3, S=3)
        mapping = ConvMapping(T_R=3, T_S=3, T_X=2, T_Y=2)
        profile = conv_profile(layer, mapping.as_tuple())
        # union window is 4x4=16, not 4 disjoint windows x 9 = 36
        assert profile.unique_inputs == 16


class TestFcCycles:
    def test_bandwidth_binds_wide_output_mappings(self, controller, fc):
        """T_S=128,T_K=1 saturates the reduction port (occupancy 3)."""
        wide = controller.run_fc(fc, FcMapping(T_S=128, T_K=1))
        balanced = controller.run_fc(fc, FcMapping(T_S=16, T_K=8))
        assert balanced.cycles < wide.cycles

    def test_basic_fc_cycles(self, controller, fc):
        stats = controller.run_fc(fc, FcMapping.basic())
        assert stats.iterations == fc.macs

    def test_full_spatial_reduction_no_hazard(self, controller):
        """When T_K covers the whole reduction there are no partials."""
        layer = FcLayer("g", in_features=64, out_features=8)
        stats = controller.run_fc(layer, FcMapping(T_S=2, T_K=64))
        assert stats.phase_cycles["steady"] == stats.iterations * max(
            1, -(-(2 * 64 + 64) // controller.config.dn_bw)
        )


class TestPsumCounters:
    def test_conv_psums_count_accumulation_writebacks(self, controller, conv):
        """conv psums = outputs x temporal folds + per-iteration flushes."""
        mapping = ConvMapping(T_R=3, T_S=3, T_C=4)  # C folds = 4
        psums = controller.estimate_conv_psums(conv, mapping)
        assert psums == conv.output_elements * 4 + mapping.iterations(conv)

    def test_conv_psums_minimized_by_spatial_reduction(self, controller, conv):
        spatial = controller.estimate_conv_psums(conv, ConvMapping(T_R=3, T_S=3, T_C=8))
        parallel = controller.estimate_conv_psums(conv, ConvMapping(T_K=8, T_X=4, T_Y=4))
        assert spatial < parallel

    def test_fc_psums_minimized_by_tk_one(self, controller, fc):
        """The Table VI structure: psums push T_K down and T_S up."""
        tk1 = controller.estimate_fc_psums(fc, FcMapping(T_S=128, T_K=1))
        tk8 = controller.estimate_fc_psums(fc, FcMapping(T_S=16, T_K=8))
        tk128 = controller.estimate_fc_psums(fc, FcMapping(T_S=1, T_K=128))
        assert tk1 < tk8 < tk128

    def test_fc_psums_decrease_with_ts(self, controller, fc):
        narrow = controller.estimate_fc_psums(fc, FcMapping(T_S=8, T_K=1))
        wide = controller.estimate_fc_psums(fc, FcMapping(T_S=128, T_K=1))
        assert wide < narrow

    def test_psum_estimate_matches_simulation(self, controller, conv, fc):
        conv_mapping = ConvMapping(T_R=3, T_S=3, T_C=2)
        fc_mapping = FcMapping(T_S=8, T_K=8)
        assert (
            controller.estimate_conv_psums(conv, conv_mapping)
            == controller.run_conv(conv, conv_mapping).psums
        )
        assert (
            controller.estimate_fc_psums(fc, fc_mapping)
            == controller.run_fc(fc, fc_mapping).psums
        )


class TestBandwidthSensitivity:
    def test_wider_dn_never_hurts(self, conv):
        mapping = ConvMapping(T_R=3, T_S=3, T_C=8)
        narrow = MaeriController(maeri_config(dn_bw=8)).run_conv(conv, mapping)
        wide = MaeriController(maeri_config(dn_bw=64)).run_conv(conv, mapping)
        assert wide.cycles <= narrow.cycles

    def test_wider_rn_never_hurts(self, fc):
        mapping = FcMapping(T_S=64, T_K=2)
        narrow = MaeriController(maeri_config(rn_bw=8)).run_fc(fc, mapping)
        wide = MaeriController(maeri_config(rn_bw=64)).run_fc(fc, mapping)
        assert wide.cycles <= narrow.cycles
