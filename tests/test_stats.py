"""Tests for SimulationStats and aggregation."""

import copy
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, replace

import pytest

from repro.stonne.stats import (
    SimulationStats,
    TrafficBreakdown,
    build_stats,
    build_traffic,
    combine_stats,
    field_names,
)


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


class TestFromDict:
    def test_ignores_unknown_keys_and_derived_utilization(self):
        original = make_stats(cycles=100, macs=6400, array=128)
        data = dict(original.to_dict(), utilization=0.99, future_field=1)
        assert SimulationStats.from_dict(data) == original

    def test_subclass_fields_survive_and_stay_per_class(self):
        @dataclass(frozen=True)
        class TaggedStats(SimulationStats):
            tag: str = "none"

        data = dict(make_stats().to_dict(), tag="hot")
        tagged = TaggedStats.from_dict(data)
        assert type(tagged) is TaggedStats and tagged.tag == "hot"
        assert TaggedStats.from_dict(data) == tagged
        # The base class, decoded after the subclass, still ignores it.
        assert SimulationStats.from_dict(data) == make_stats()


class TestRenamed:
    """Records are frozen; ``renamed`` is how every cache hit and every
    cross-plan share is attributed to the requesting layer."""

    def full(self):
        return replace(make_stats(name="conv1", cycles=900),
                       energy=12.5, area=3.25)

    def test_records_refuse_writes(self):
        stats = self.full()
        with pytest.raises(FrozenInstanceError):
            stats.cycles += 1
        with pytest.raises(FrozenInstanceError):
            stats.traffic.outputs_written += 1
        with pytest.raises(FrozenInstanceError):
            stats.layer_name = "other"
        assert stats == self.full()

    def test_same_name_is_the_record_itself(self):
        original = self.full()
        assert original.renamed("conv1") is original
        assert original.repeated(1) is original

    def test_rename_changes_only_the_layer_name(self):
        original = self.full()
        renamed = original.renamed("conv2")
        assert renamed.layer_name == "conv2"
        assert original.layer_name == "conv1"
        assert type(renamed) is SimulationStats
        assert renamed.traffic is original.traffic
        assert renamed.renamed("conv1") == original
        assert replace(renamed, layer_name="conv1") == original

    def test_subclass_fields_survive(self):
        @dataclass(frozen=True)
        class TaggedStats(SimulationStats):
            tag: str = "none"

        base = self.full()
        original = TaggedStats(
            **{name: getattr(base, name) for name in field_names(SimulationStats)},
            tag="hot",
        )
        renamed = original.renamed("x")
        assert type(renamed) is TaggedStats
        assert renamed.tag == "hot"
        assert renamed.energy == 12.5
        assert renamed.renamed(original.layer_name) == original
        with pytest.raises(FrozenInstanceError):
            renamed.tag = "cold"
        twin = copy.deepcopy(original)  # __reduce__, as pickle uses it
        assert type(twin) is TaggedStats and twin == original

    def test_non_frozen_subclass_is_rejected(self):
        with pytest.raises(TypeError):
            @dataclass
            class MutableStats(SimulationStats):
                tag: str = "none"


class TestBuilders:
    """``build_stats``/``build_traffic`` are the constructors at a plain
    ``__init__``'s cost; what they return is the frozen record itself."""

    @pytest.mark.parametrize(
        "builder, record",
        [(build_stats, SimulationStats), (build_traffic, TrafficBreakdown)],
    )
    def test_parameters_mirror_the_fields(self, builder, record):
        params = inspect.signature(builder).parameters
        assert list(params) == list(field_names(record))
        for f in fields(record):
            default = params[f.name].default
            if f.default is not MISSING:
                assert default == f.default, f.name
            elif f.default_factory is MISSING:
                assert default is inspect.Parameter.empty, f.name

    def test_builds_the_record_the_constructor_builds(self):
        traffic = build_traffic(7, 3, 10, 2)
        built = build_stats("l", "MAERI_DENSE_WORKLOAD", 100, 10, 500, 5,
                            64, 128, traffic, {"fill": 10, "steady": 90})
        assert type(built) is SimulationStats
        assert type(built.traffic) is TrafficBreakdown
        assert built == make_stats()
        assert build_stats("l", "c", 1, 2, 3, 4, 5, 6) == SimulationStats(
            "l", "c", 1, 2, 3, 4, 5, 6
        )
        with pytest.raises(FrozenInstanceError):
            built.cycles = 1
        with pytest.raises(FrozenInstanceError):
            built.traffic.psums_reduced = 1

    def test_pickle_and_copies_rebuild_frozen_records(self):
        original = replace(make_stats(), energy=1.5)
        for twin in (pickle.loads(pickle.dumps(original)),
                     copy.deepcopy(original), copy.copy(original)):
            assert twin == original and twin is not original
            assert type(twin) is SimulationStats
            assert type(twin.traffic) is TrafficBreakdown
            with pytest.raises(FrozenInstanceError):
                twin.energy = 2.0

    def test_from_dict_builds_frozen_records(self):
        decoded = SimulationStats.from_dict(make_stats().to_dict())
        assert decoded == make_stats()
        with pytest.raises(FrozenInstanceError):
            decoded.traffic.outputs_written = 0


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
