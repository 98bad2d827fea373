"""Unit tests for the network component models (distribution, reduction,
multiplier) and MAERI's accumulation-buffer stall."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.stonne.config import maeri_config
from repro.stonne.distribution import DistributionNetwork
from repro.stonne.maeri import MaeriController, TileProfile, steady_state
from repro.stonne.multiplier import OSMeshNetwork
from repro.stonne.params import CycleModelParams
from repro.stonne.reduction import ARTNetwork, FENetwork, make_reduction_network


class TestDistributionNetwork:
    def test_bandwidth_limits_throughput(self):
        dn = DistributionNetwork(bandwidth=16, fanout=128)
        assert dn.cycles_to_distribute(16) == 1
        assert dn.cycles_to_distribute(17) == 2
        assert dn.cycles_to_distribute(0) == 0

    def test_depth_log_fanout(self):
        assert DistributionNetwork(bandwidth=8, fanout=128).depth == 7
        assert DistributionNetwork(bandwidth=8, fanout=1).depth == 1

    def test_rejects_bad_params(self):
        with pytest.raises(SimulationError):
            DistributionNetwork(bandwidth=0, fanout=8)
        with pytest.raises(SimulationError):
            DistributionNetwork(bandwidth=8, fanout=8).cycles_to_distribute(-1)

    @given(n=st.integers(0, 10_000), bw=st.integers(1, 256))
    def test_cycles_monotone_in_elements(self, n, bw):
        dn = DistributionNetwork(bandwidth=bw, fanout=64)
        assert dn.cycles_to_distribute(n) <= dn.cycles_to_distribute(n + 1)


class TestReductionNetworks:
    def test_art_latency_is_tree_depth(self):
        art = ARTNetwork(bandwidth=16)
        assert art.reduction_latency(1) == 0
        assert art.reduction_latency(2) == 1
        assert art.reduction_latency(8) == 3
        assert art.reduction_latency(9) == 4

    def test_partial_outputs_cost_rmw_occupancy(self):
        art = ARTNetwork(bandwidth=16, rmw_occupancy=3)
        assert art.cycles_to_collect(16, partial=False) == 1
        assert art.cycles_to_collect(16, partial=True) == 3

    def test_fen_latency_linear_then_capped(self):
        fen = FENetwork(bandwidth=16)
        assert fen.reduction_latency(2) == 1
        assert fen.reduction_latency(3) == 2
        # capped at 2*ceil(log2(v)) for large VNs
        assert fen.reduction_latency(64) == 12

    def test_factory(self):
        assert isinstance(make_reduction_network("ASNETWORK", 16), ARTNetwork)
        assert isinstance(make_reduction_network("FENETWORK", 16), FENetwork)
        with pytest.raises(SimulationError, match="unknown"):
            make_reduction_network("NOPE", 16)


class TestMultiplierNetworks:
    def test_os_mesh_tile_cycles(self):
        mesh = OSMeshNetwork(rows=4, cols=4)
        # K + (rows + cols - 2) + 1
        assert mesh.tile_cycles(10) == 10 + 6 + 1
        assert mesh.size == 16

    def test_os_mesh_rejects_bad_reduction(self):
        with pytest.raises(SimulationError):
            OSMeshNetwork(rows=4, cols=4).tile_cycles(0)


class TestAccumulationBuffer:
    @staticmethod
    def _steady(red_folds, raw_stall):
        """Steady cycles of a one-VN profile whose interval is the stall."""
        profile = TileProfile(
            iterations=red_folds, red_folds=red_folds, vn_size=1, num_vns=1,
            unique_weights=1, unique_inputs=1, psums=0,
        )
        return steady_state(profile, dn_bw=64, rn_bw=64, rmw_occupancy=1,
                            raw_stall=raw_stall)[2]

    def test_hazard_only_on_same_outputs(self):
        # One reduction fold: no iteration revisits an output, no stall.
        assert self._steady(red_folds=1, raw_stall=2) == 1
        # Two folds accumulate onto the same outputs: both pay the stall.
        assert self._steady(red_folds=2, raw_stall=2) == 2 * 2

    def test_disabled_buffer_doubles_penalty_and_spills(self):
        params = CycleModelParams(acc_raw_latency=3)
        with_buffer = MaeriController(maeri_config(), params)
        spilling = MaeriController(
            maeri_config(accumulation_buffer=False), params
        )
        assert with_buffer._raw_stall == 3
        assert spilling._raw_stall == 2 * 3

    def test_negative_raw_latency_is_rejected(self):
        """Users set params (the ablation benches vary them), so a
        negative latency is a typed error, not a silent negative stall."""
        for config in (maeri_config(), maeri_config(accumulation_buffer=False)):
            with pytest.raises(SimulationError, match="acc_raw_latency"):
                MaeriController(config, CycleModelParams(acc_raw_latency=-1))
