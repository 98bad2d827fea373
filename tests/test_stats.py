"""Tests for SimulationStats and aggregation."""

from dataclasses import dataclass

import pytest

from repro.stonne.stats import SimulationStats, TrafficBreakdown, combine_stats


def make_stats(name="l", controller="MAERI_DENSE_WORKLOAD", cycles=100,
               psums=10, macs=500, iterations=5, used=64, array=128):
    return SimulationStats(
        layer_name=name, controller=controller, cycles=cycles, psums=psums,
        macs=macs, iterations=iterations, multipliers_used=used,
        array_size=array,
        traffic=TrafficBreakdown(weights_distributed=7, inputs_distributed=3,
                                 psums_reduced=psums, outputs_written=2),
        phase_cycles={"fill": 10, "steady": cycles - 10},
    )


class TestSimulationStats:
    def test_utilization(self):
        stats = make_stats(cycles=100, macs=6400, array=128)
        assert stats.utilization == pytest.approx(0.5)
        assert stats.macs_per_cycle == pytest.approx(64.0)

    def test_utilization_degenerate(self):
        stats = make_stats(cycles=0)
        assert stats.utilization == 0.0
        assert stats.macs_per_cycle == 0.0

    def test_speedup_over(self):
        fast, slow = make_stats(cycles=100), make_stats(cycles=400)
        assert fast.speedup_over(slow) == 4.0

    def test_to_dict_roundtrippable_fields(self):
        data = make_stats().to_dict()
        assert data["cycles"] == 100
        assert data["traffic"]["weights_distributed"] == 7
        assert data["phase_cycles"]["fill"] == 10

    def test_summary_text(self):
        assert "cycles" in make_stats().summary()

    def test_energy_area_reserved(self):
        stats = make_stats()
        assert stats.energy is None and stats.area is None


class TestClone:
    """``clone`` is the copy every cache get and put makes."""

    def full(self):
        stats = make_stats(name="conv1", cycles=900)
        stats.energy = 12.5
        stats.area = 3.25
        return stats

    def test_copy_is_equal_and_shares_no_mutable_member(self):
        original = self.full()
        copy = original.clone()
        assert copy == original
        assert type(copy) is SimulationStats
        assert copy.traffic.psums_reduced == 10
        assert copy.phase_cycles == {"fill": 10, "steady": 890}
        assert copy.traffic is not original.traffic
        assert copy.phase_cycles is not original.phase_cycles
        copy.traffic.outputs_written += 1
        copy.phase_cycles["drain"] = 5
        copy.cycles += 1
        assert original == self.full()

    def test_rename_changes_only_the_layer_name(self):
        original = self.full()
        renamed = original.clone(layer_name="conv2")
        assert renamed.layer_name == "conv2"
        assert original.layer_name == "conv1"
        renamed.layer_name = "conv1"
        assert renamed == original
        assert renamed.clone() == original

    def test_subclass_fields_survive(self):
        @dataclass
        class TaggedStats(SimulationStats):
            tag: str = "none"

        original = TaggedStats(**vars(self.full()), tag="hot")
        copy = original.clone(layer_name="x")
        assert type(copy) is TaggedStats
        assert copy.tag == "hot"
        assert copy.energy == 12.5
        copy.layer_name = original.layer_name
        assert copy == original


class TestTrafficBreakdown:
    def test_totals_and_merge(self):
        a = TrafficBreakdown(1, 2, 3, 4)
        b = TrafficBreakdown(10, 20, 30, 40)
        merged = a.merged_with(b)
        assert merged.weights_distributed == 11
        assert merged.distribution_total == 33
        # merge does not mutate operands
        assert a.weights_distributed == 1


class TestCombineStats:
    def test_sums_and_phase_merge(self):
        combined = combine_stats(
            "model", [make_stats("a", cycles=100), make_stats("b", cycles=50)]
        )
        assert combined.cycles == 150
        assert combined.layer_name == "model"
        assert combined.phase_cycles["fill"] == 20
        assert combined.traffic.weights_distributed == 14

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            combine_stats("m", [])

    def test_rejects_mixed_controllers(self):
        with pytest.raises(ValueError, match="controllers"):
            combine_stats(
                "m",
                [make_stats(controller="MAERI_DENSE_WORKLOAD"),
                 make_stats(controller="SIGMA_SPARSE_GEMM")],
            )
