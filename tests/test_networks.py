"""Unit tests for the network component models (distribution, reduction,
multiplier, memory)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MappingError, SimulationError
from repro.stonne.distribution import DistributionNetwork
from repro.stonne.memory import AccumulationBuffer, GlobalBuffer
from repro.stonne.multiplier import LinearMultiplierNetwork, OSMeshNetwork
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
    def test_linear_fit_check(self):
        net = LinearMultiplierNetwork(size=64)
        net.check_fit(vn_size=8, num_vns=8)
        with pytest.raises(MappingError):
            net.check_fit(vn_size=8, num_vns=9)

    def test_linear_compute_cycles(self):
        net = LinearMultiplierNetwork(size=64)
        assert net.compute_cycles(64, 64) == 1
        assert net.compute_cycles(65, 64) == 2
        assert net.compute_cycles(0, 64) == 0

    def test_os_mesh_tile_cycles(self):
        mesh = OSMeshNetwork(rows=4, cols=4)
        # K + (rows + cols - 2) + 1
        assert mesh.tile_cycles(10) == 10 + 6 + 1
        assert mesh.size == 16

    def test_os_mesh_rejects_bad_reduction(self):
        with pytest.raises(SimulationError):
            OSMeshNetwork(rows=4, cols=4).tile_cycles(0)


class TestAccumulationBuffer:
    def test_hazard_only_on_same_outputs(self):
        acc = AccumulationBuffer(enabled=True, raw_latency=2)
        assert acc.hazard_stall(False) == 0
        assert acc.hazard_stall(True) == 2

    def test_disabled_buffer_doubles_penalty_and_spills(self):
        acc = AccumulationBuffer(enabled=False, raw_latency=2)
        assert acc.hazard_stall(True) == 4
        assert acc.spill_factor() == 2

    def test_traffic_accounting(self):
        acc = AccumulationBuffer()
        acc.record_partial_writes(10)
        acc.record_final_writes(5)
        assert acc.reads == 10
        assert acc.writes == 15
        with pytest.raises(SimulationError):
            acc.record_partial_writes(-1)


class TestGlobalBuffer:
    def test_capacity_check(self):
        buf = GlobalBuffer(read_bandwidth=64, write_bandwidth=16,
                           capacity_elements=1000)
        assert buf.fits(1000)
        assert not buf.fits(1001)

    def test_rejects_bad_params(self):
        with pytest.raises(SimulationError):
            GlobalBuffer(read_bandwidth=0, write_bandwidth=16)
