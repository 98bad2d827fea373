"""The vectorized im2col lowering: loop parity, strides/pads, batches."""

import numpy as np
import pytest

from repro.bifrost import MappingConfigurator, StonneBifrostApi
from repro.stonne.controller import make_controller
from repro.stonne.layer import ConvLayer
from repro.topi import conv2d_im2col_nchw, conv2d_nchw, im2col_nchw


def _im2col_loop_reference(data, layer):
    """The pre-vectorization triple loop, kept as the oracle (batch 0)."""
    padded = np.pad(
        data,
        ((0, 0), (0, 0), (layer.pad_h, layer.pad_h), (layer.pad_w, layer.pad_w)),
        mode="constant",
    )
    p, q = layer.P, layer.Q
    c = layer.C
    cols = np.empty((c * layer.R * layer.S, p * q), dtype=padded.dtype)
    idx = 0
    for ch in range(c):
        for r in range(layer.R):
            for s in range(layer.S):
                patch = padded[
                    0,
                    ch,
                    r : r + p * layer.stride_h : layer.stride_h,
                    s : s + q * layer.stride_w : layer.stride_w,
                ]
                cols[idx] = patch.reshape(-1)
                idx += 1
    return cols


def _im2col(data, layer):
    return im2col_nchw(
        data, (layer.R, layer.S), strides=(layer.stride_h, layer.stride_w),
        padding=(layer.pad_h, layer.pad_w),
    )


LAYERS = [
    ConvLayer("plain", C=3, H=8, W=8, K=4, R=3, S=3),
    ConvLayer("strided", C=3, H=11, W=9, K=4, R=3, S=3, stride_h=2, stride_w=3),
    ConvLayer("padded", C=2, H=7, W=7, K=4, R=5, S=5, pad_h=2, pad_w=2),
    ConvLayer("pointwise", C=6, H=5, W=5, K=8, R=1, S=1),
    ConvLayer("asym", C=1, H=12, W=6, K=2, R=4, S=2, stride_h=3, pad_h=1),
]


class TestVectorizedIm2col:
    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_matches_loop_reference(self, rng, layer):
        data = rng.normal(size=(1, layer.C, layer.H, layer.W))
        vectorized = _im2col(data, layer)
        assert vectorized.shape == (1, layer.C * layer.R * layer.S, layer.P * layer.Q)
        np.testing.assert_array_equal(
            vectorized[0], _im2col_loop_reference(data, layer)
        )

    def test_batched_output_stacks_per_sample(self, rng):
        layer = LAYERS[1]
        data = rng.normal(size=(4, layer.C, layer.H, layer.W))
        cols = _im2col(data, layer)
        assert cols.shape[0] == 4
        for i in range(4):
            np.testing.assert_array_equal(
                cols[i], _im2col_loop_reference(data[i : i + 1], layer)
            )


class TestBatchedConv:
    def test_conv_via_gemm_computes_every_batch(self, rng):
        """The old code indexed padded[0, ...], silently dropping batches."""
        layer = ConvLayer("b", C=3, H=9, W=9, K=5, R=3, S=3, pad_h=1, pad_w=1)
        data = rng.normal(size=(4, 3, 9, 9))
        weights = rng.normal(size=(5, 3, 3, 3))
        out = conv2d_nchw(data, weights, padding=(1, 1))
        assert out.shape == (4, 5, layer.P, layer.Q)
        for i in range(4):
            np.testing.assert_allclose(
                out[i : i + 1],
                conv2d_nchw(data[i : i + 1], weights, padding=(1, 1)),
                rtol=1e-10,
            )

    def test_grouped_conv_batched(self, rng):
        from repro.topi import conv2d_direct_nchw

        layer = ConvLayer("g", C=4, H=8, W=8, K=8, R=3, S=3, G=2)
        data = rng.normal(size=(3, 4, 8, 8))
        weights = rng.normal(size=(8, 2, 3, 3))
        out = conv2d_nchw(data, weights, groups=2)
        assert out.shape == (3, 8, layer.P, layer.Q)
        for i in range(3):
            np.testing.assert_allclose(
                out[i : i + 1],
                conv2d_direct_nchw(data[i : i + 1], weights, groups=2),
                rtol=1e-9,
            )

    def test_gemm_into_output_is_bit_identical(self, rng):
        """The GEMM writes each group's slice of the output in place; the
        result must equal the per-group product exactly, not approximately."""
        data = rng.normal(size=(2, 6, 11, 11))
        weights = rng.normal(size=(8, 3, 3, 3))
        out = conv2d_im2col_nchw(
            data, weights, strides=(2, 2), padding=(1, 1), groups=2
        )
        assert out.shape == (2, 8, 6, 6)
        for g in range(2):
            cols = im2col_nchw(
                data[:, 3 * g : 3 * (g + 1)], (3, 3), strides=(2, 2), padding=(1, 1)
            )
            w_mat = weights[4 * g : 4 * (g + 1)].reshape(4, -1)
            np.testing.assert_array_equal(
                out[:, 4 * g : 4 * (g + 1)], (w_mat @ cols).reshape(2, 4, 6, 6)
            )

    def test_api_simulates_every_batch_element(self, rng, maeri128):
        """An N=2 input through the Bifrost API is neither truncated nor
        rejected: every element is computed, and the stats are the
        batch-N layer's (two sequential N=1 simulations)."""
        data = rng.normal(size=(2, 3, 8, 8))
        weights = rng.normal(size=(4, 3, 3, 3))
        api = StonneBifrostApi(
            config=maeri128, mappings=MappingConfigurator(config=maeri128)
        )
        out = api.conv2d_nchw(data, weights, layer_name="c")
        np.testing.assert_allclose(out, conv2d_nchw(data, weights), rtol=1e-9)
        controller = make_controller(maeri128)
        layer = ConvLayer("c", C=3, H=8, W=8, K=4, R=3, S=3, N=2)
        assert api.stats == [controller.run_conv(layer)]
        single = controller.run_conv(ConvLayer("c", C=3, H=8, W=8, K=4, R=3, S=3))
        assert api.stats[0].cycles == 2 * single.cycles
