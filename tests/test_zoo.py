"""Tests for the workload zoo registry and its modern entries."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.session import Session, SessionConfig
from repro.stonne.layer import ConvLayer, FcLayer
from repro.sweep import SweepPlan
from repro.zoo import (
    register_model,
    unregister_model,
    zoo_entry,
    zoo_layers,
    zoo_models,
)
from repro.zoo.modern import transformer_encoder_layers

MODERN = ("transformer", "depthwise_sep", "grouped_conv", "dilated_conv",
          "nhwc_conv")


@pytest.fixture
def scratch_model():
    """A registration slot cleaned up after the test."""
    name = "test_zoo/scratch"
    yield name
    unregister_model(name)


class TestRegistry:
    def test_classics_and_moderns_are_registered(self):
        names = zoo_models()
        for name in ("alexnet", "lenet", "vgg_small", "mlp") + MODERN:
            assert name in names

    def test_classics_come_first(self):
        assert zoo_models()[:4] == ("alexnet", "lenet", "vgg_small", "mlp")

    def test_tag_filter(self):
        assert set(zoo_models(tag="classic")) == {
            "alexnet", "lenet", "vgg_small", "mlp"
        }
        assert set(MODERN) <= set(zoo_models(tag="modern"))

    def test_unknown_name_lists_the_zoo(self):
        with pytest.raises(ReproError, match="unknown model 'nope'"):
            zoo_layers("nope")

    def test_register_direct_and_decorator(self, scratch_model):
        register_model(scratch_model, lambda: [FcLayer("l", 4, 4)])
        assert scratch_model in zoo_models()
        unregister_model(scratch_model)

        @register_model(scratch_model, description="via decorator")
        def factory():
            return [FcLayer("l", 4, 4)]

        assert zoo_entry(scratch_model).description == "via decorator"

    def test_duplicate_requires_replace(self, scratch_model):
        register_model(scratch_model, lambda: [FcLayer("a", 4, 4)])
        with pytest.raises(ReproError, match="already registered"):
            register_model(scratch_model, lambda: [FcLayer("b", 4, 4)])
        register_model(
            scratch_model, lambda: [FcLayer("b", 4, 4)], replace=True
        )
        assert zoo_layers(scratch_model)[0].name == "b"

    def test_empty_factory_raises(self, scratch_model):
        register_model(scratch_model, lambda: [])
        with pytest.raises(ReproError, match="no layers"):
            zoo_layers(scratch_model)

    def test_factory_runs_once_per_registration(self, scratch_model):
        calls = []

        def factory(name):
            calls.append(name)
            return [FcLayer(name, 4, 4)]

        register_model(scratch_model, lambda: factory("a"))
        assert zoo_layers(scratch_model) == zoo_layers(scratch_model)
        assert calls == ["a"]
        register_model(scratch_model, lambda: factory("b"), replace=True)
        assert zoo_layers(scratch_model)[0].name == "b"
        assert zoo_layers(scratch_model)[0].name == "b"
        assert calls == ["a", "b"]

    def test_empty_factory_raises_on_every_lookup(self, scratch_model):
        calls = []
        register_model(scratch_model, lambda: calls.append(1) or [])
        for _ in range(2):
            with pytest.raises(ReproError, match="no layers"):
                zoo_layers(scratch_model)
        assert len(calls) == 2

    def test_factories_return_fresh_lists(self):
        first = zoo_layers("mlp")
        second = zoo_layers("mlp")
        assert first is not second

    def test_bad_name_rejected(self):
        with pytest.raises(ReproError, match="non-empty string"):
            register_model("", lambda: [FcLayer("l", 4, 4)])


class TestModernEntries:
    def test_transformer_block_structure(self):
        layers = transformer_encoder_layers(
            d_model=64, heads=4, seq_len=16, ffn_dim=256
        )
        # QKV + output projections, 2 GEMMs per head, FFN pair.
        assert len(layers) == 4 + 2 * 4 + 2
        assert all(isinstance(layer, FcLayer) for layer in layers)
        by_name = {layer.name: layer for layer in layers}
        assert by_name["enc.q_proj"].in_features == 64
        assert by_name["enc.h0.score"].out_features == 16  # seq_len
        assert by_name["enc.h0.score"].in_features == 16  # d_head
        assert by_name["enc.h0.value"].in_features == 16  # seq_len
        assert by_name["enc.ffn1"].out_features == 256
        assert all(layer.batch == 16 for layer in layers)

    def test_transformer_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="heads"):
            transformer_encoder_layers(d_model=64, heads=5)

    def test_conv_variant_entries_carry_their_knobs(self):
        depthwise = zoo_layers("depthwise_sep")
        assert depthwise[0].G == depthwise[0].C  # one group per channel
        assert depthwise[1].R == 1 and depthwise[1].S == 1  # pointwise

        grouped = zoo_layers("grouped_conv")
        assert any(layer.G > 1 for layer in grouped
                   if isinstance(layer, ConvLayer))

        dilated = zoo_layers("dilated_conv")
        assert any(layer.dil_h > 1 for layer in dilated
                   if isinstance(layer, ConvLayer))

        nhwc = zoo_layers("nhwc_conv")
        assert any(layer.layout == "NHWC" for layer in nhwc
                   if isinstance(layer, ConvLayer))


class TestZooRunsEverywhere:
    @pytest.mark.parametrize("arch", ["maeri", "sigma", "tpu", "magma"])
    def test_every_model_runs_on_every_controller(self, arch):
        """The zoo contract: every built-in name is runnable, with
        finite positive cycle counts, on all four controllers.  (Scoped
        by tag: other tests may leave fuzz-generated registrations
        behind, and those can carry raw GEMMs MAERI refuses by design.)"""
        builtin = zoo_models(tag="classic") + zoo_models(tag="modern")
        config = SessionConfig.resolve(env=False, arch=arch)
        with Session(config) as session:
            for model in builtin:
                report = session.run(model)
                assert report.total_cycles > 0, f"{model} on {arch}"
                assert len(report.layer_stats) == len(zoo_layers(model))

    def test_modern_models_sweep_like_classics(self):
        config = SessionConfig.resolve(env=False)
        plan = SweepPlan.matrix(
            config,
            models=["transformer", "dilated_conv"],
            axes={"architecture.arch": ["sigma", "tpu"]},
        )
        with Session(config) as session:
            report = session.sweep(plan)
        assert len(report) == 4
        assert all(result.metric("total_cycles") > 0 for result in report)

    def test_plan_matrix_rejects_unknown_models(self):
        config = SessionConfig.resolve(env=False)
        with pytest.raises(Exception, match="nope"):
            SweepPlan.matrix(config, models=["nope"])

    def test_late_registration_is_sweepable(self, scratch_model):
        register_model(scratch_model, lambda: [FcLayer("l", 8, 8)])
        config = SessionConfig.resolve(env=False)
        plan = SweepPlan.matrix(config, models=[scratch_model])
        with Session(config) as session:
            report = session.sweep(plan)
        assert len(report) == 1

    def test_functional_run_matches_numpy_reference(self, rng):
        """The functional datapath executes the zoo's modern conv
        variants for real: Session.run with engine.functional must
        succeed on every modern entry (parity itself is pinned
        per-variant in test_conv_variants.py)."""
        config = SessionConfig.resolve(env=False, functional=True)
        with Session(config) as session:
            for model in MODERN:
                report = session.run(model)
                assert report.total_cycles > 0
