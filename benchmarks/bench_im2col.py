"""Satellite benchmark: vectorized im2col vs the seed's Python triple loop.

The im2col lowering runs inside every functional conv execution (§V's
step ii / the exact GEMM datapath), so its cost multiplies across every
offloaded layer.  This bench keeps the pre-vectorization loop as the
baseline oracle, asserts bit-identical output, and reports the speedup
of the stride-tricks implementation.

A second case times ``conv2d_nchw`` end to end through a MAERI and a
SIGMA session on VGG's widest 3x3 layer: both run the same NCHW
datapath (MAERI's NHWC/RSCK staging is not emulated), so the outputs
must be bit-identical and MAERI must cost about what SIGMA does.
"""

import time

import numpy as np
from conftest import SMOKE, emit, scaled

from repro.session import Session
from repro.stonne import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer
from repro.topi import im2col_nchw

ROUNDS = 10
#: conv2d_nchw timings are best of this many calls per architecture.
CONV_ROUNDS = scaled(7, 2)
#: Full-scale ceiling on MAERI's conv2d_nchw time over SIGMA's.
MAERI_OVER_SIGMA_MAX = 1.5

LAYERS = [
    ConvLayer("alexnet_conv2ish", C=64, H=27, W=27, K=192, R=5, S=5, pad_h=2, pad_w=2),
    ConvLayer("vgg_conv3ish", C=128, H=28, W=28, K=256, R=3, S=3, pad_h=1, pad_w=1),
    ConvLayer("strided", C=64, H=32, W=32, K=64, R=3, S=3, stride_h=2, stride_w=2),
]


def _im2col_loop(data: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """The seed implementation (pre-vectorization), batch element 0."""
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


def _im2col(data: np.ndarray, layer: ConvLayer) -> np.ndarray:
    return im2col_nchw(
        data, (layer.R, layer.S), strides=(layer.stride_h, layer.stride_w),
        padding=(layer.pad_h, layer.pad_w),
    )


def _time(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run():
    rng = np.random.default_rng(0)
    rows = []
    for layer in LAYERS:
        data = rng.normal(size=(1, layer.C, layer.H, layer.W))
        loop_cols = _im2col_loop(data, layer)
        vec_cols = _im2col(data, layer)
        np.testing.assert_array_equal(vec_cols[0], loop_cols)
        t_loop = _time(lambda: _im2col_loop(data, layer))
        t_vec = _time(lambda: _im2col(data, layer))
        rows.append((layer.name, t_loop * 1e3, t_vec * 1e3, t_loop / t_vec))
    return rows


def test_bench_im2col(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'layer':<18}{'loop ms':>10}{'vectorized ms':>15}{'speedup':>10}"]
    for name, t_loop, t_vec, speedup in rows:
        lines.append(f"{name:<18}{t_loop:>10.3f}{t_vec:>15.3f}{speedup:>9.1f}x")
    emit(results_dir, "im2col_vectorization", "\n".join(lines))

    for name, _, _, speedup in rows:
        assert speedup > 1.0, f"{name}: vectorized im2col slower than the loop"


def _time_conv2d_nchw(config, data, weights):
    """Best-of-CONV_ROUNDS seconds and the output of one session's conv."""
    with Session(simulator_config=config) as session:
        conv = session.api.conv2d_nchw
        out = conv(data, weights, padding=(1, 1))  # warms the stats cache
        best = _time(lambda: conv(data, weights, padding=(1, 1)), CONV_ROUNDS)
    return best, out


def test_bench_conv2d_nchw_maeri_vs_sigma(benchmark, results_dir):
    """VGG's 512->512 3x3 conv on an 8x8 map, MAERI vs SIGMA sessions."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(1, 512, 8, 8))
    weights = rng.normal(size=(512, 512, 3, 3))

    def run():
        return {
            name: _time_conv2d_nchw(config, data, weights)
            for name, config in (("maeri", maeri_config()),
                                 ("sigma", sigma_config()))
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    (t_maeri, out_maeri), (t_sigma, out_sigma) = (
        results["maeri"], results["sigma"]
    )
    ratio = t_maeri / t_sigma
    emit(
        results_dir,
        "conv2d_nchw_maeri_vs_sigma",
        f"{'arch':<8}{'best ms':>10}\n"
        f"{'maeri':<8}{t_maeri * 1e3:>10.3f}\n"
        f"{'sigma':<8}{t_sigma * 1e3:>10.3f}\n"
        f"maeri/sigma = {ratio:.2f}x (best of {CONV_ROUNDS})",
    )
    assert np.array_equal(out_maeri, out_sigma)
    if not SMOKE:
        assert ratio <= MAERI_OVER_SIGMA_MAX, (
            f"MAERI conv2d_nchw {ratio:.2f}x SIGMA's; both should run the "
            "same NCHW datapath"
        )
