"""Tests for magnitude pruning (the sparse architectures' data path),
plus the sparsity-ratio sweep axis layered on top of it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.session import Session, SessionConfig
from repro.stonne.sparsity import prune_to_sparsity
from repro.sweep import SweepPlan


def _zero_fraction(weights):
    return np.count_nonzero(weights == 0.0) / weights.size


class TestPruning:
    def test_exact_ratio(self, rng):
        weights = rng.normal(size=(40, 50))
        pruned = prune_to_sparsity(weights, 50)
        assert _zero_fraction(pruned) == pytest.approx(0.5, abs=0.001)

    def test_zero_ratio_is_identity(self, rng):
        weights = rng.normal(size=(10, 10))
        np.testing.assert_array_equal(prune_to_sparsity(weights, 0), weights)

    def test_full_ratio_zeroes_everything(self, rng):
        pruned = prune_to_sparsity(rng.normal(size=(10, 10)), 100)
        assert np.count_nonzero(pruned) == 0

    def test_magnitude_order_preserved(self, rng):
        """Surviving weights are never smaller in magnitude than pruned ones."""
        weights = rng.normal(size=200)
        pruned = prune_to_sparsity(weights, 30)
        kept = np.abs(weights[pruned != 0])
        removed = np.abs(weights[pruned == 0])
        assert removed.max() <= kept.min() + 1e-12

    def test_input_not_modified(self, rng):
        weights = rng.normal(size=(10, 10))
        original = weights.copy()
        prune_to_sparsity(weights, 50)
        np.testing.assert_array_equal(weights, original)

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(SimulationError):
            prune_to_sparsity(rng.normal(size=4), 101)

    @given(ratio=st.integers(0, 100))
    @settings(max_examples=25)
    def test_measured_tracks_requested(self, ratio):
        weights = np.random.default_rng(7).normal(size=1000)
        pruned = prune_to_sparsity(weights, ratio)
        assert abs(_zero_fraction(pruned) - ratio / 100) < 0.01


def test_importing_the_cycle_models_loads_no_numpy():
    """``repro.stonne`` (and the session facade over it) imports numpy
    only when a batch kernel or the datapath first runs."""
    import repro

    code = (
        "import sys, repro.stonne, repro.session; "
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


class TestSparsityRatioAxis:
    """``architecture.sparsity_ratio`` as a first-class sweep axis."""

    def test_config_validates_the_ratio_range(self):
        SessionConfig.resolve(env=False, sparsity_ratio=0.9)  # fine
        with pytest.raises(ConfigError, match="sparsity_ratio"):
            SessionConfig.resolve(env=False, sparsity_ratio=1.0)
        with pytest.raises(ConfigError, match="sparsity_ratio"):
            SessionConfig.resolve(env=False, sparsity_ratio=-0.1)

    def test_ratio_maps_onto_the_controllers_percent_knob(self):
        config = SessionConfig.resolve(
            env=False, arch="sigma", sparsity_ratio=0.5
        )
        sim_config, _ = config.build_simulator_config()
        assert sim_config.sparsity_ratio == 50

    def test_zero_ratio_defers_to_the_legacy_percent_field(self):
        config = SessionConfig.resolve(
            env=False, arch="sigma", sparsity=30, sparsity_ratio=0.0
        )
        sim_config, _ = config.build_simulator_config()
        assert sim_config.sparsity_ratio == 30

    def test_axis_coerces_through_config_rules(self):
        config = SessionConfig.resolve(env=False, arch="sigma")
        plan = SweepPlan.matrix(
            config,
            models=["mlp"],
            axes={"architecture.sparsity_ratio": ["0.0", "0.5", "0.9"]},
        )
        ratios = [s.config.architecture.sparsity_ratio for s in plan.scenarios]
        assert ratios == [0.0, 0.5, 0.9]  # strings coerced to floats
        with pytest.raises(ConfigError):
            SweepPlan.matrix(
                config,
                models=["mlp"],
                axes={"architecture.sparsity_ratio": [1.5]},
            )

    def test_fig9_style_sweep_shape_and_filter(self):
        """One sweep reproduces Fig. 9's qualitative shape: AlexNet on
        SIGMA needs monotonically fewer cycles as sparsity rises, and
        each cell is reachable via ``filter(sparsity_ratio=...)``."""
        config = SessionConfig.resolve(env=False, arch="sigma")
        plan = SweepPlan.matrix(
            config,
            models=["alexnet"],
            axes={"architecture.sparsity_ratio": [0.0, 0.5, 0.9]},
        )
        with Session(config) as session:
            report = session.sweep(plan)
        assert len(report) == 3
        cycles = {}
        for ratio in (0.0, 0.5, 0.9):
            (result,) = report.filter(sparsity_ratio=ratio)
            cycles[ratio] = result.metric("total_cycles")
        assert cycles[0.0] > cycles[0.5] > cycles[0.9]
        # Fig. 9's quantitative band at 50%: fewer cycles overall, with
        # the whole-network saving between the paper's conv/fc means.
        saving = 1 - cycles[0.5] / cycles[0.0]
        assert 0.35 <= saving <= 0.62
