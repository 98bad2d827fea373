"""Scalar-vs-batch parity for the batch kernels.

The batch-kernel contract (``AcceleratorController``): for any mapping
chunk, ``run_*_batch`` returns, per item and in order, exactly what the
scalar call would have produced — the same bit-identical
``SimulationStats`` (cycles, psums, traffic, phase_cycles, batch-N
``repeated`` semantics) or an exception of the same type and message —
with per-item failures isolated instead of poisoning the batch.  These
tests pin that contract with seeded randomized sweeps over all four
controllers plus the structural edge cases (vn_size=1,
reduction_folds=1, batch-N>1, invalid rows mid-batch, layers at the
int64 limit) and the grouped chunk path the engine routes through.
"""

import dataclasses
import json
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import test_cycle_model_golden as golden

from repro.engine.backends import simulate_chunk
from repro.stonne.config import (
    magma_config,
    maeri_config,
    sigma_config,
    tpu_config,
)
from repro.stonne.controller import AcceleratorController, make_controller
from repro.stonne.layer import ConvLayer, FcLayer, GemmLayer
from repro.stonne.maeri import (
    conv_profile, fc_profile, fits_int64, steady_state,
)
from repro.stonne.mapping import ConvMapping, FcMapping
from repro.stonne.params import DEFAULT_PARAMS

GEMM_CONFIGS = [sigma_config(), tpu_config(), magma_config()]


def _canon(results):
    """Payloads as comparable values: stats dict, int estimate, or the
    exception's type and message."""
    out = []
    for result in results:
        if isinstance(result, Exception):
            out.append((type(result).__name__, str(result)))
        elif hasattr(result, "to_dict"):
            out.append(result.to_dict())
        else:
            out.append(result)
    return out


def _scalar(controller, method, *args):
    """The base-class default batch method — the per-item scalar loop."""
    return getattr(AcceleratorController, method)(controller, *args)


def _random_conv_mappings(seed, count, spread):
    rnd = random.Random(seed)
    return [
        ConvMapping(
            T_R=rnd.randint(1, spread), T_S=rnd.randint(1, spread),
            T_C=rnd.randint(1, spread), T_K=rnd.randint(1, spread),
            T_G=1, T_N=1,
            T_X=rnd.randint(1, spread), T_Y=rnd.randint(1, spread),
        )
        for _ in range(count)
    ]


def _random_fc_mappings(seed, count, spread):
    rnd = random.Random(seed)
    return [
        FcMapping(
            T_S=rnd.randint(1, spread), T_K=rnd.randint(1, spread),
            T_N=rnd.randint(1, 2),
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# MAERI: the mapping-driven kernels
# ----------------------------------------------------------------------
class TestMaeriParity:
    def _controller(self, **kwargs):
        return make_controller(maeri_config(**kwargs))

    @pytest.mark.parametrize("batch_n", [1, 3])
    def test_randomized_conv_sweep(self, batch_n):
        # The spread makes a healthy mix of valid and invalid rows, so
        # error isolation is exercised mid-batch, not in a corner.
        layer = ConvLayer(
            "c", C=8, H=12, W=12, K=16, R=3, S=3, pad_h=1, pad_w=1,
            stride_h=2, N=batch_n,
        )
        mappings = _random_conv_mappings(seed=11 + batch_n, count=300, spread=6)
        controller = self._controller(ms_size=64)
        batch = controller.run_conv_batch(layer, mappings)
        scalar = _scalar(controller, "run_conv_batch", layer, mappings)
        assert _canon(batch) == _canon(scalar)
        assert any(isinstance(r, Exception) for r in batch)
        assert any(not isinstance(r, Exception) for r in batch)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_randomized_fc_sweep(self, batch):
        layer = FcLayer("f", in_features=24, out_features=36, batch=batch)
        mappings = _random_fc_mappings(seed=5 + batch, count=300, spread=16)
        controller = self._controller(ms_size=64)
        assert _canon(controller.run_fc_batch(layer, mappings)) == _canon(
            _scalar(controller, "run_fc_batch", layer, mappings)
        )

    def test_reduction_network_variants(self):
        layer = ConvLayer("c", C=6, H=10, W=10, K=8, R=3, S=3)
        mappings = _random_conv_mappings(seed=3, count=120, spread=4)
        for reduce_network_type in ("ASNETWORK", "FENETWORK"):
            controller = self._controller(
                ms_size=128, reduce_network_type=reduce_network_type
            )
            assert _canon(
                controller.run_conv_batch(layer, mappings)
            ) == _canon(
                _scalar(controller, "run_conv_batch", layer, mappings)
            )

    def test_edge_mappings(self):
        # vn_size=1 (all spatial tiles 1), reduction_folds=1 (tiles
        # cover R/S/C exactly), and the all-ones basic mapping.
        layer = ConvLayer("c", C=4, H=8, W=8, K=4, R=3, S=3)
        mappings = [
            ConvMapping(),  # vn_size=1 AND maximal reduction folds
            ConvMapping(T_K=4, T_X=2, T_Y=2),  # vn_size=1, parallel only
            ConvMapping(T_R=3, T_S=3, T_C=4),  # reduction_folds=1
            ConvMapping(T_R=3, T_S=3, T_C=4, T_K=2),  # folds=1, spread
        ]
        for mapping in mappings:
            assert mapping.validate_for(layer, 128) is None
        controller = self._controller(ms_size=128)
        batch = controller.run_conv_batch(layer, mappings)
        assert _canon(batch) == _canon(
            _scalar(controller, "run_conv_batch", layer, mappings)
        )
        assert not any(isinstance(r, Exception) for r in batch)

    def test_invalid_items_isolated_mid_batch(self):
        layer = ConvLayer("c", C=4, H=8, W=8, K=4, R=3, S=3)
        mappings = [
            ConvMapping(),
            ConvMapping(T_K=512),        # capacity blowout
            ConvMapping(T_R=3, T_S=3),
            ConvMapping(T_X=layer.P + 1),  # layer-bound violation
            ConvMapping(T_C=4),
        ]
        controller = self._controller(ms_size=128)
        batch = controller.run_conv_batch(layer, mappings)
        assert _canon(batch) == _canon(
            _scalar(controller, "run_conv_batch", layer, mappings)
        )
        assert [isinstance(r, Exception) for r in batch] == [
            False, True, False, True, False,
        ]

    def test_estimate_batches(self):
        conv = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3, N=2)
        fc = FcLayer("f", in_features=30, out_features=20, batch=2)
        conv_maps = _random_conv_mappings(seed=9, count=200, spread=5)
        fc_maps = _random_fc_mappings(seed=9, count=200, spread=12)
        controller = self._controller(ms_size=64)
        assert controller.estimate_conv_psums_batch(conv, conv_maps) and (
            _canon(controller.estimate_conv_psums_batch(conv, conv_maps))
            == _canon(
                _scalar(controller, "estimate_conv_psums_batch", conv, conv_maps)
            )
        )
        assert _canon(
            controller.estimate_fc_psums_batch(fc, fc_maps)
        ) == _canon(
            _scalar(controller, "estimate_fc_psums_batch", fc, fc_maps)
        )

    def test_single_calls_stay_off_numpy(self, monkeypatch):
        # One mapping runs the model on Python ints: a numpy call would
        # cost several times the whole simulation.
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"single call used numpy.{name}")

        conv = ConvLayer("c", C=8, H=12, W=12, K=8, R=3, S=3, N=2)
        fc = FcLayer("f", in_features=30, out_features=20, batch=2)
        conv_map = ConvMapping(T_R=3, T_S=3, T_C=2, T_X=2)
        fc_map = FcMapping(T_S=4, T_K=5)
        for reduce_network_type in ("ASNETWORK", "FENETWORK"):
            config = maeri_config(reduce_network_type=reduce_network_type)
            controller = make_controller(config)
            monkeypatch.setitem(sys.modules, "numpy", NoNumpy())
            values = [
                controller.run_conv(conv, conv_map).cycles,
                controller.run_fc(fc, fc_map).cycles,
                controller.estimate_conv_psums(conv, conv_map),
                controller.estimate_fc_psums(fc, fc_map),
                controller.steady_cycles(
                    conv_profile(conv, conv_map.as_tuple())
                ),
                controller.steady_cycles(fc_profile(fc, fc_map.as_tuple())),
            ]
            monkeypatch.undo()
            assert all(type(value) is int for value in values)


# ----------------------------------------------------------------------
# SIGMA / TPU / MAGMA: the lowered-GEMM kernels
# ----------------------------------------------------------------------
class TestGemmParity:
    @pytest.mark.parametrize(
        "config", GEMM_CONFIGS, ids=lambda c: c.controller_type.value
    )
    @pytest.mark.parametrize("batch_n", [1, 3])
    def test_lowered_conv_and_fc(self, config, batch_n):
        conv = ConvLayer("c", C=8, H=10, W=10, K=8, R=3, S=3, N=batch_n)
        fc = FcLayer("f", in_features=64, out_features=32, batch=batch_n)
        controller = make_controller(config)
        # Mappings are ignored by these controllers; None stands in.
        for layer, method in ((conv, "run_conv_batch"), (fc, "run_fc_batch")):
            batch = getattr(controller, method)(layer, [None] * 5)
            scalar = _scalar(controller, method, layer, [None] * 5)
            assert _canon(batch) == _canon(scalar)
            assert not any(isinstance(r, Exception) for r in batch)
            # Items may share one record, so it must refuse writes.
            with pytest.raises(dataclasses.FrozenInstanceError):
                batch[0].layer_name = "mutated"
            assert batch[1].layer_name == layer.name


# ----------------------------------------------------------------------
# MAERI rows at int64 risk: the int64 columns or the Python-int fallback
# ----------------------------------------------------------------------
INT64_CONVS = [
    layer for layer in golden.int64_risk_layers()
    if isinstance(layer, ConvLayer)
]


def _raw_stall(config):
    """The RAW stall per temporal reduction fold: the latency, doubled
    when psums spill for want of an accumulation buffer."""
    return DEFAULT_PARAMS.acc_raw_latency * (
        1 if config.accumulation_buffer else 2
    )


def _int64_rows(config, layer):
    """``fits_int64`` for the single-batch replica, as the kernel asks it."""
    controller = make_controller(config)
    base = dataclasses.replace(layer, N=1)
    return fits_int64(
        base, config.ms_size, controller.reduction.rmw_occupancy,
        _raw_stall(config),
        controller._fill_constant() + config.ms_size,
    )


class TestMaeriInt64Risk:
    @pytest.mark.parametrize(
        "label", ["maeri_as", "maeri_fe", "maeri_as_ms64_noacc"]
    )
    def test_batches_match_loop_and_golden(self, label):
        config = golden._configs()[label]
        table = json.loads(golden.GOLDEN_PATH.read_text())
        # The corpus reaches both sides of the per-layer int64 bound.
        fits = {_int64_rows(config, layer) for layer in INT64_CONVS}
        assert fits == {True, False}
        for method in ("run_conv_batch", "estimate_conv_psums_batch"):
            batch_ctrl = make_controller(config)
            loop_ctrl = make_controller(config)
            batch, loop = [], []
            for layer in INT64_CONVS:
                mappings = [None, ConvMapping.basic()] + list(
                    golden.random_mappings(layer, config.ms_size)
                )
                batch += getattr(batch_ctrl, method)(layer, mappings)
                loop += _scalar(loop_ctrl, method, layer, mappings)
            assert _canon(batch) == _canon(loop)
            assert golden._digest(batch) == table[f"{label}|int64_risk|{method}"]

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(2 ** 10, 2 ** 30), w=st.integers(2 ** 8, 2 ** 20),
        c=st.integers(1, 16), k=st.integers(1, 16),
        r=st.integers(1, 5), stride=st.integers(1, 4),
        seed=st.integers(0, 2 ** 16),
    )
    def test_bound_is_conservative(self, h, w, c, k, r, stride, seed):
        """On layers ``fits_int64`` admits, every quantity the model forms
        for a valid mapping (computed exactly on Python ints) stays below
        2**63, and the int64 batch equals the scalar loop."""
        config = maeri_config(accumulation_buffer=False)
        layer = ConvLayer("b", C=c, H=h, W=w, K=k, R=r, S=r,
                          stride_h=stride, stride_w=stride)
        assume(_int64_rows(config, layer))
        controller = make_controller(config)
        rnd = random.Random(seed)
        mappings = [ConvMapping.basic()]
        for _ in range(8):
            budget, tiles = config.ms_size, []
            for bound in (layer.R, layer.S, layer.C, layer.K, 1, 1,
                          layer.P, layer.Q):
                tiles.append(rnd.randint(1, max(1, min(bound, budget))))
                budget = max(1, budget // tiles[-1])
            mappings.append(ConvMapping(*tiles))
        for mapping in mappings:
            mapping.validate_for(layer, config.ms_size)
            profile = conv_profile(layer, mapping.as_tuple())
            partial, final, steady = steady_state(
                profile, config.dn_bw, config.rn_bw,
                controller.reduction.rmw_occupancy, _raw_stall(config),
            )
            stats = controller.run_conv(layer, mapping)
            values = list(profile) + [
                partial * profile.num_vns, final * profile.num_vns, steady,
                stats.cycles, stats.traffic.weights_distributed,
                stats.traffic.inputs_distributed,
            ]
            assert max(values) < 2 ** 63
        assert _canon(controller.run_conv_batch(layer, mappings)) == _canon(
            _scalar(controller, "run_conv_batch", layer, mappings)
        )


# ----------------------------------------------------------------------
# Engine routing: grouped chunks and the scalar seam
# ----------------------------------------------------------------------
class TestSimulateChunk:
    def test_grouped_chunk_matches_scalar_loop(self):
        layer_a = ConvLayer("a", C=4, H=8, W=8, K=4, R=3, S=3)
        layer_b = FcLayer("b", in_features=16, out_features=8)
        pairs = (
            [(layer_a, m) for m in _random_conv_mappings(3, 40, 4)]
            + [(layer_b, m) for m in _random_fc_mappings(3, 40, 6)]
        )
        random.Random(0).shuffle(pairs)
        controller = make_controller(maeri_config(ms_size=64))
        reference = make_controller(maeri_config(ms_size=64))
        chunk = simulate_chunk(controller, pairs, functional=False)
        loop = []
        for layer, mapping in pairs:
            try:
                loop.append(reference.run_conv(layer, mapping)
                            if isinstance(layer, ConvLayer)
                            else reference.run_fc(layer, mapping))
            except Exception as exc:
                loop.append(exc)
        assert _canon(chunk) == _canon(loop)

    def test_singletons_use_scalar_seam(self, monkeypatch):
        # The scheduler bench (and tests) monkeypatch simulate_layer;
        # singleton groups must keep flowing through that seam.
        import repro.engine.backends as backends_mod

        calls = []
        real = backends_mod.simulate_layer

        def spy(controller, layer, mapping, functional):
            calls.append(layer.name)
            return real(controller, layer, mapping, functional)

        monkeypatch.setattr(backends_mod, "simulate_layer", spy)
        controller = make_controller(maeri_config(ms_size=64))
        repeated = ConvLayer("dup", C=4, H=8, W=8, K=4, R=3, S=3)
        single = FcLayer("solo", in_features=8, out_features=8)
        pairs = [
            (repeated, ConvMapping()),
            (single, FcMapping()),
            (repeated, ConvMapping(T_K=2)),
        ]
        simulate_chunk(controller, pairs, functional=False)
        # The repeated conv layer formed a batch group (no seam calls);
        # the singleton FC went through the patched scalar seam.
        assert calls == ["solo"]

    def test_gemm_group_batches(self):
        layer = GemmLayer("g", M=32, K=16, N=8)
        controller = make_controller(sigma_config())
        chunk = simulate_chunk(
            controller, [(layer, None)] * 4, functional=False
        )
        scalar = [controller.run_gemm(layer) for _ in range(4)]
        assert _canon(chunk) == _canon(scalar)
