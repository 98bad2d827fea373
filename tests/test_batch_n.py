"""Batch-N workload modelling: N sequential single-batch simulations.

STONNE executes one batch element at a time; the controllers model a
batch-N layer as N back-to-back runs of its N=1 replica — additive
stats (cycles, psums, MACs, iterations, traffic, phase cycles) sum,
occupancy (multipliers used, array size) is the per-run maximum.  The
functional datapath already computed every batch element; these tests
pin the statistics side of the lift.
"""

import numpy as np
import pytest

from repro.bifrost import run_layers
from repro.engine import EvaluationEngine, evaluation_key
from repro.session import Session
from repro.stonne.config import (
    maeri_config,
    sigma_config,
    tpu_config,
)
from repro.stonne.controller import make_controller
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.stats import SimulationStats, TrafficBreakdown

ALL_CONFIGS = [maeri_config(), sigma_config(), tpu_config()]


def _conv(n=1):
    return ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3, pad_h=1, N=n)


def _fc(batch=1):
    return FcLayer("f", in_features=32, out_features=16, batch=batch)


class TestRepeatedStats:
    def test_additive_fields_scale_and_occupancy_holds(self):
        base = SimulationStats(
            layer_name="l",
            controller="maeri",
            cycles=100,
            psums=10,
            macs=1000,
            iterations=4,
            multipliers_used=8,
            array_size=128,
            traffic=TrafficBreakdown(weights_distributed=7),
            phase_cycles={"fill": 2, "steady": 98},
        )
        tripled = base.repeated(3)
        assert tripled.cycles == 300
        assert tripled.psums == 30
        assert tripled.macs == 3000
        assert tripled.iterations == 12
        assert tripled.phase_cycles == {"fill": 6, "steady": 294}
        assert tripled.traffic.weights_distributed == 21
        assert tripled.multipliers_used == 8  # max, not sum
        assert tripled.array_size == 128
        # The original is untouched (repeated builds a new record).
        assert base.cycles == 100 and base.phase_cycles["fill"] == 2

    def test_count_one_is_the_record_or_a_rename(self):
        base = SimulationStats("l", "maeri", 1, 1, 1, 1, 1, 128)
        assert base.repeated(1) is base
        renamed = base.repeated(1, layer_name="m")
        assert renamed.layer_name == "m" and base.layer_name == "l"
        assert renamed.to_dict() == dict(base.to_dict(), layer_name="m")

    def test_rejects_nonpositive_count(self):
        base = SimulationStats("l", "maeri", 1, 1, 1, 1, 1, 128)
        with pytest.raises(ValueError):
            base.repeated(0)


class TestControllerBatchExpansion:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: str(c.controller_type))
    def test_conv_batch_is_n_sequential_runs(self, config):
        controller = make_controller(config)
        mapping = ConvMapping(T_R=3, T_S=3) if controller.requires_mapping else None
        single = controller.run_conv(_conv(1), mapping)
        batched = controller.run_conv(_conv(4), mapping)
        assert batched.to_dict() == single.repeated(4).to_dict()
        assert batched.macs == _conv(4).macs

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: str(c.controller_type))
    def test_fc_batch_is_n_sequential_runs(self, config):
        controller = make_controller(config)
        mapping = FcMapping(T_S=4, T_K=8) if controller.requires_mapping else None
        single = controller.run_fc(_fc(1), mapping)
        batched = controller.run_fc(_fc(3), mapping)
        assert batched.to_dict() == single.repeated(3).to_dict()

    def test_psum_estimates_stay_consistent_with_cycle_model(self):
        """The cheap proxy and the full model must agree on batch scaling."""
        controller = make_controller(maeri_config())
        mapping = ConvMapping(T_R=3, T_S=3)
        assert controller.estimate_conv_psums(_conv(4), mapping) == (
            4 * controller.estimate_conv_psums(_conv(1), mapping)
        )
        assert controller.estimate_conv_psums(_conv(4), mapping) == (
            controller.run_conv(_conv(4), mapping).psums
        )
        fc_mapping = FcMapping(T_S=4, T_K=8)
        assert controller.estimate_fc_psums(_fc(3), fc_mapping) == (
            3 * controller.estimate_fc_psums(_fc(1), fc_mapping)
        )

    def test_batch_parallel_mapping_rejected_with_clear_error(self):
        """T_N>1 schedules are future work; the error must say so rather
        than blaming the single-batch replica ('T_N exceeds batch=1')."""
        from repro.errors import MappingError

        controller = make_controller(maeri_config())
        with pytest.raises(MappingError, match="sequential"):
            controller.run_fc(_fc(2), FcMapping(T_S=2, T_K=4, T_N=2))

    def test_batch_layers_get_distinct_cache_keys(self):
        """N is a structural field: batch-1 and batch-4 must not collide."""
        engine = EvaluationEngine(maeri_config())
        mapping = ConvMapping(T_R=3, T_S=3)
        key1 = evaluation_key(engine.fingerprint, _conv(1), mapping)
        key4 = evaluation_key(engine.fingerprint, _conv(4), mapping)
        assert key1 != key4
        stats4 = engine.evaluate(_conv(4), mapping)
        stats1 = engine.evaluate(_conv(1), mapping)
        assert engine.num_simulations == 2  # no false sharing
        assert stats4.cycles == 4 * stats1.cycles


class TestFacadeBatch:
    def test_run_layers_accepts_batched_descriptors(self):
        with Session(simulator_config=maeri_config()) as session:
            stats = run_layers([_conv(1), _conv(2), _fc(2)], session)
        assert stats[1].cycles == 2 * stats[0].cycles
        assert stats[2].macs == _fc(2).macs

    def test_api_conv2d_batch_outputs_and_stats(self):
        """The real batches the functional datapath computes now get
        matching sequential-simulation statistics."""
        from repro.topi.conv2d import conv2d_nchw as conv_ref

        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 4, 8, 8))
        weights = rng.normal(size=(2, 4, 3, 3))
        with Session(simulator_config=maeri_config()) as session, Session(
            simulator_config=maeri_config()
        ) as single_session:
            out = session.api.conv2d_nchw(data, weights, layer_name="b.conv")
            ref = conv_ref(data, weights)
            np.testing.assert_allclose(out, ref, rtol=1e-9)
            single_session.api.conv2d_nchw(
                data[:1], weights, layer_name="b.conv"
            )
            assert session.api.stats[0].cycles == (
                3 * single_session.api.stats[0].cycles
            )
