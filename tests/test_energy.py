"""Tests for the energy model extension (the paper's future-work item)."""

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.stonne import (
    ConvLayer,
    ConvMapping,
    EnergyTable,
    FcLayer,
    FcMapping,
    MaeriController,
    attach_energy,
    estimate_energy,
    maeri_config,
    sigma_config,
)
from repro.stonne.sigma import SigmaController
from repro.tuner import GridSearchTuner, MaeriFcTask


@pytest.fixture
def conv_stats():
    controller = MaeriController(maeri_config())
    layer = ConvLayer("c", C=8, H=10, W=10, K=16, R=3, S=3)
    return controller.run_conv(layer, ConvMapping(T_R=3, T_S=3, T_C=8))


class TestEnergyTable:
    def test_defaults_positive(self):
        table = EnergyTable()
        assert table.mac == 1.0
        assert table.buffer_read > table.dn_transfer > 0

    def test_rejects_negative_costs(self):
        with pytest.raises(SimulationError):
            EnergyTable(mac=-1.0)


class TestEstimateEnergy:
    def test_breakdown_sums_to_total(self, conv_stats):
        breakdown = estimate_energy(conv_stats)
        total = (
            breakdown.compute + breakdown.distribution + breakdown.reduction
            + breakdown.buffers + breakdown.accumulation + breakdown.leakage
        )
        assert breakdown.total == pytest.approx(total)
        assert breakdown.total > 0

    def test_compute_term_is_macs(self, conv_stats):
        breakdown = estimate_energy(conv_stats)
        assert breakdown.compute == pytest.approx(conv_stats.macs)

    def test_zero_leakage_table(self, conv_stats):
        table = EnergyTable(leakage_per_cycle_per_pe=0.0)
        assert estimate_energy(conv_stats, table).leakage == 0.0

    def test_attach_energy_fills_stats(self, conv_stats):
        assert conv_stats.energy is None
        filled = attach_energy(conv_stats)
        assert filled.energy == pytest.approx(
            estimate_energy(conv_stats).total
        )
        assert conv_stats.energy is None  # records are frozen
        assert replace(filled, energy=None) == conv_stats

    def test_summary_mentions_components(self, conv_stats):
        text = estimate_energy(conv_stats).summary()
        assert "compute" in text and "leakage" in text


class TestEnergyBehaviour:
    def test_slow_mappings_cost_more_energy(self):
        """Leakage couples energy to runtime: the basic mapping burns far
        more total energy than a good one despite identical MAC counts."""
        controller = MaeriController(maeri_config())
        layer = FcLayer("f", in_features=512, out_features=256)
        good = estimate_energy(
            controller.run_fc(layer, FcMapping(T_S=16, T_K=8))
        ).total
        bad = estimate_energy(controller.run_fc(layer, FcMapping.basic())).total
        assert bad > 2 * good

    def test_sigma_sparsity_saves_energy(self):
        layer = FcLayer("f", in_features=2048, out_features=1024)
        dense = SigmaController(sigma_config(sparsity_ratio=0)).run_fc(layer)
        sparse = SigmaController(sigma_config(sparsity_ratio=50)).run_fc(layer)
        assert estimate_energy(sparse).total < estimate_energy(dense).total


class TestEnergyObjective:
    def test_tuner_accepts_energy_objective(self):
        layer = FcLayer("f", in_features=256, out_features=128)
        task = MaeriFcTask(layer, maeri_config(), objective="energy")
        result = GridSearchTuner(task).tune(n_trials=2000)
        assert result.best_config is not None
        # Energy-optimal FC avoids spatial-adder psum traffic entirely.
        assert task.best_mapping(result.best_config).T_K == 1

    def test_energy_and_cycle_optima_trade_off(self):
        """Each objective's optimum wins on its own metric (a real Pareto
        trade-off, not a degenerate single optimum)."""
        from repro.stonne.maeri import MaeriController

        layer = FcLayer("f", in_features=256, out_features=128)
        controller = MaeriController(maeri_config())

        def best(objective):
            task = MaeriFcTask(layer, maeri_config(), objective=objective)
            result = GridSearchTuner(task).tune(n_trials=2000)
            return task.best_mapping(result.best_config)

        cyc_map, ene_map = best("cycles"), best("energy")
        cyc_stats = controller.run_fc(layer, cyc_map)
        ene_stats = controller.run_fc(layer, ene_map)
        assert cyc_stats.cycles <= ene_stats.cycles
        assert (
            estimate_energy(ene_stats).total <= estimate_energy(cyc_stats).total
        )
