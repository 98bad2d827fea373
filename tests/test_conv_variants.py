"""Functional-datapath parity for the conv variants the zoo opened up.

Every (stride, dilation, padding, groups, layout) combination must
produce outputs bit-matching the naive direct-loop reference — the
im2col-GEMM lowering, the grouped per-block GEMMs and the NHWC
layout-emulation transposes are optimizations, never approximations.
"""

import itertools

import numpy as np
import pytest

from repro.engine import EvaluationEngine
from repro.errors import LayerError
from repro.stonne.controller import make_controller
from repro.stonne.layer import ConvLayer
from repro.topi import conv2d_direct_nchw, conv2d_nchw
from repro.topi.layout import (
    nchw_to_nhwc,
    nhwc_to_nchw,
    rsck_to_kcrs,
)

# The satellite matrix: stride x dilation x padding, crossed with
# groups and layout below.  Padding >= dilation keeps every cell's
# output non-empty at H=W=10 with a 3x3 filter.
MATRIX = [
    pytest.param(stride, dil, pad, id=f"s{stride}-d{dil}-p{pad}")
    for stride, dil, pad in itertools.product((1, 2), (1, 2), (1, 2))
]


def _layer(stride, dil, pad, groups=1, layout="NCHW"):
    return ConvLayer(
        "v", C=4, H=10, W=10, K=8, R=3, S=3, G=groups,
        stride_h=stride, stride_w=stride, pad_h=pad, pad_w=pad,
        dil_h=dil, dil_w=dil, layout=layout,
    )


def _datapath(data, weights, layer):
    """TOPI's im2col conv2d with the layer's geometry: the datapath the
    Bifrost API and the functional engine run."""
    return conv2d_nchw(
        data, weights, strides=(layer.stride_h, layer.stride_w),
        padding=(layer.pad_h, layer.pad_w),
        dilation=(layer.dil_h, layer.dil_w), groups=layer.G,
    )


class TestDilationGeometry:
    def test_effective_filter_and_output_shape(self):
        layer = _layer(stride=1, dil=2, pad=2)
        assert layer.eff_R == 5 and layer.eff_S == 5
        # (10 + 2*2 - 5) // 1 + 1
        assert layer.P == 10 and layer.Q == 10

    def test_dilation_shrinks_output_like_a_bigger_filter(self):
        plain = _layer(stride=1, dil=1, pad=0)
        dilated = _layer(stride=1, dil=2, pad=0)
        assert dilated.P < plain.P

    def test_rejects_dilated_filter_larger_than_padded_input(self):
        with pytest.raises(LayerError, match="dilat"):
            ConvLayer("bad", C=1, H=4, W=4, K=1, R=3, S=3, dil_h=4, dil_w=4)

    def test_rejects_nonpositive_dilation_and_bad_layout(self):
        with pytest.raises(LayerError):
            ConvLayer("bad", C=1, H=8, W=8, K=1, R=3, S=3, dil_h=0)
        with pytest.raises(LayerError, match="layout"):
            ConvLayer("bad", C=1, H=8, W=8, K=1, R=3, S=3, layout="CHWN")

    def test_describe_mentions_the_variant_knobs(self):
        text = _layer(stride=1, dil=2, pad=1, groups=2, layout="NHWC").describe()
        assert "dil=(2,2)" in text and "G=2" in text and "layout=NHWC" in text


class TestFunctionalParity:
    @pytest.mark.parametrize("stride,dil,pad", MATRIX)
    @pytest.mark.parametrize("groups", [1, 2], ids=["g1", "g2"])
    def test_nchw_matches_direct_reference(self, rng, stride, dil, pad, groups):
        layer = _layer(stride, dil, pad, groups=groups)
        data = rng.normal(size=(1, layer.C, layer.H, layer.W))
        weights = rng.normal(size=(layer.K, layer.C // groups, 3, 3))
        got = _datapath(data, weights, layer)
        want = conv2d_direct_nchw(
            data, weights, strides=(stride, stride), padding=(pad, pad),
            dilation=(dil, dil), groups=groups,
        )
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("stride,dil,pad", MATRIX)
    def test_nhwc_emulation_matches_direct_reference(self, rng, stride, dil, pad):
        """NHWC activations + RSCK kernels, transposed around the NCHW
        core — the exact sequence the functional engine runs."""
        layer = _layer(stride, dil, pad, layout="NHWC")
        data_nhwc = rng.normal(size=(1, layer.H, layer.W, layer.C))
        weights_rsck = rng.normal(size=(3, 3, layer.C, layer.K))
        out_nchw = _datapath(
            nhwc_to_nchw(data_nhwc), rsck_to_kcrs(weights_rsck), layer
        )
        got = nchw_to_nhwc(out_nchw)
        want_nchw = conv2d_direct_nchw(
            nhwc_to_nchw(data_nhwc), rsck_to_kcrs(weights_rsck),
            strides=(stride, stride), padding=(pad, pad), dilation=(dil, dil),
        )
        np.testing.assert_allclose(got, nchw_to_nhwc(want_nchw), rtol=1e-9)
        assert got.shape == (1, layer.P, layer.Q, layer.K)

    def test_simulator_runs_dilated_layer_end_to_end(self, rng, maeri128):
        """A functional engine simulates the dilated layer (cycle model
        plus datapath), and the datapath it runs matches the reference."""
        layer = _layer(stride=2, dil=2, pad=2)
        data = rng.normal(size=(1, layer.C, layer.H, layer.W))
        weights = rng.normal(size=(layer.K, layer.C, 3, 3))
        stats = EvaluationEngine(maeri128, functional=True).evaluate(layer)
        want = conv2d_direct_nchw(
            data, weights, strides=(2, 2), padding=(2, 2), dilation=(2, 2)
        )
        np.testing.assert_allclose(
            _datapath(data, weights, layer), want, rtol=1e-9
        )
        assert stats.cycles > 0


class TestCycleModelsSeeDilation:
    @pytest.mark.parametrize("fixture", ["maeri128", "sigma128", "tpu16"])
    def test_dilation_changes_stats_through_output_shape(self, request, fixture):
        """The cycle models consume P/Q, so dilation (without padding to
        compensate) must change the simulated work, not just the output."""
        config = request.getfixturevalue(fixture)
        controller = make_controller(config)
        plain = controller.run_conv(_layer(1, 1, 0))
        dilated = controller.run_conv(_layer(1, 2, 0))
        assert dilated.cycles != plain.cycles
        assert dilated.psums < plain.psums  # fewer output pixels

    def test_padding_compensated_dilation_matches_same_shape_work(self, maeri128):
        """pad == dilation keeps P/Q equal to the plain 3x3 case, and the
        cycle model (which never reads the taps' positions) agrees."""
        controller = make_controller(maeri128)
        plain = controller.run_conv(_layer(1, 1, 1))
        dilated = controller.run_conv(_layer(1, 2, 2))
        assert dilated.cycles == plain.cycles

    def test_layout_never_changes_stats(self, sigma128):
        """Layout is a functional-datapath concern; the simulated loop
        nest is identical, so stats must be too."""
        controller = make_controller(sigma128)
        nchw = controller.run_conv(_layer(2, 2, 1))
        nhwc = controller.run_conv(_layer(2, 2, 1, layout="NHWC"))
        assert nchw.to_dict() == nhwc.to_dict()
