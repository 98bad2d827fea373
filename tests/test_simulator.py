"""Layer execution: Bifrost API outputs vs the topi reference, and the
controllers' stats for the workloads each architecture accepts."""

import numpy as np
import pytest

from repro.bifrost import MappingConfigurator, StonneBifrostApi
from repro.errors import LayerError, SimulationError, UnsupportedLayerError
from repro.stonne.controller import make_controller
from repro.stonne.layer import ConvLayer, GemmLayer
from repro.stonne.mapping import ConvMapping
from repro.topi import conv2d_direct_nchw, conv2d_nchw, dense


@pytest.fixture
def conv_layer():
    return ConvLayer("c", C=3, H=10, W=10, K=4, R=3, S=3,
                     stride_h=2, stride_w=2, pad_h=1, pad_w=1)


def make_tensors(rng, layer):
    data = rng.normal(size=(1, layer.C, layer.H, layer.W))
    weights = rng.normal(size=(layer.K, layer.C // layer.G, layer.R, layer.S))
    return data, weights


def make_api(config):
    """The packed-func endpoint ``graph_run`` offloads every layer to."""
    return StonneBifrostApi(
        config=config, mappings=MappingConfigurator(config=config)
    )


class TestFunctionalConv:
    def test_maeri_output_matches_reference(self, rng, maeri128, conv_layer):
        data, weights = make_tensors(rng, conv_layer)
        api = make_api(maeri128)
        api.mappings.set_manual("conv2d", ConvMapping(T_R=3, T_S=3, T_C=3))
        output = api.conv2d_nchw(data, weights, strides=(2, 2), padding=(1, 1))
        expected = conv2d_nchw(data, weights, strides=(2, 2), padding=(1, 1))
        np.testing.assert_allclose(output, expected, rtol=1e-10)
        assert api.stats[0] == make_controller(maeri128).run_conv(
            conv_layer, ConvMapping(T_R=3, T_S=3, T_C=3)
        ).renamed("conv2d")

    def test_sigma_output_matches_reference(self, rng, sigma128, conv_layer):
        data, weights = make_tensors(rng, conv_layer)
        output = make_api(sigma128).conv2d_nchw(
            data, weights, strides=(2, 2), padding=(1, 1)
        )
        expected = conv2d_nchw(data, weights, strides=(2, 2), padding=(1, 1))
        np.testing.assert_allclose(output, expected, rtol=1e-10)

    def test_tpu_output_matches_reference(self, rng, tpu16, conv_layer):
        data, weights = make_tensors(rng, conv_layer)
        output = make_api(tpu16).conv2d_nchw(
            data, weights, strides=(2, 2), padding=(1, 1)
        )
        expected = conv2d_nchw(data, weights, strides=(2, 2), padding=(1, 1))
        np.testing.assert_allclose(output, expected, rtol=1e-10)

    def test_grouped_conv_output(self, rng, maeri128):
        data = rng.normal(size=(1, 4, 8, 8))
        weights = rng.normal(size=(8, 2, 3, 3))
        output = make_api(maeri128).conv2d_nchw(data, weights, groups=2)
        expected = conv2d_direct_nchw(data, weights, groups=2)
        np.testing.assert_allclose(output, expected, rtol=1e-9)

    def test_stats_without_tensors(self, maeri128, conv_layer):
        stats = make_controller(maeri128).run_conv(conv_layer)
        assert stats.layer_name == "c"
        assert stats.cycles > 0

    def test_rejects_mismatched_shapes(self, rng, maeri128):
        data = rng.normal(size=(1, 3, 9, 9))
        weights = rng.normal(size=(4, 2, 3, 3))
        with pytest.raises(LayerError, match="weight channels"):
            make_api(maeri128).conv2d_nchw(data, weights)


class TestFunctionalDense:
    @pytest.mark.parametrize("fixture", ["maeri128", "sigma128", "tpu16"])
    def test_output_matches_reference(self, rng, request, fixture):
        config = request.getfixturevalue(fixture)
        data = rng.normal(size=(1, 32))
        weights = rng.normal(size=(16, 32))
        output = make_api(config).dense(data, weights)
        np.testing.assert_allclose(output, dense(data, weights), rtol=1e-10)

    def test_rejects_bad_weight_shape(self, rng, maeri128):
        with pytest.raises(SimulationError, match="weight shape"):
            make_api(maeri128).dense(
                rng.normal(size=(1, 32)), rng.normal(size=(32, 16))
            )


class TestGemm:
    def test_maeri_rejects_raw_gemm(self, maeri128):
        with pytest.raises(UnsupportedLayerError):
            make_controller(maeri128).run_gemm(GemmLayer("g", M=4, K=4, N=4))

    def test_sigma_and_tpu_accept_gemm(self, sigma128, tpu16):
        gemm = GemmLayer("g", M=16, K=64, N=8)
        assert make_controller(sigma128).run_gemm(gemm).cycles > 0
        assert make_controller(tpu16).run_gemm(gemm).cycles > 0


class TestDefaultMapping:
    def test_maeri_defaults_to_basic_mapping(self, maeri128, conv_layer):
        controller = make_controller(maeri128)
        explicit = controller.run_conv(conv_layer, ConvMapping.basic())
        implicit = controller.run_conv(conv_layer)
        assert implicit == explicit
