"""Tests for the MAGMA sparse-dense GEMM extension (paper §IX)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bifrost import MappingConfigurator, StonneBifrostApi
from repro.engine import EvaluationEngine
from repro.errors import ConfigError
from repro.stonne import (
    ControllerType,
    GemmLayer,
    MagmaController,
    magma_config,
    sigma_config,
)
from repro.stonne.layer import ConvLayer
from repro.topi import dense as dense_ref


@pytest.fixture
def gemm():
    return GemmLayer("g", M=128, K=1024, N=16)


class TestConfig:
    def test_magma_config_valid(self):
        config = magma_config(sparsity_ratio=50)
        assert config.controller_type is ControllerType.MAGMA_SPARSE_DENSE
        assert config.sparsity_ratio == 50

    def test_controller_rejects_wrong_config(self):
        with pytest.raises(ConfigError, match="MAGMA"):
            MagmaController(sigma_config())

    def test_magma_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            magma_config(ms_size=100)


class TestCycles:
    def test_sparsity_monotone(self, gemm):
        cycles = [
            MagmaController(magma_config(sparsity_ratio=s)).run_gemm(gemm).cycles
            for s in (0, 25, 50, 75, 90)
        ]
        assert cycles == sorted(cycles, reverse=True)

    def test_psums_shrink_with_sparsity_unlike_sigma(self, gemm):
        """MAGMA row-packs non-zeros, so psum traffic scales with nnz;
        SIGMA's position folds keep psums sparsity-invariant."""
        magma_dense = MagmaController(magma_config(sparsity_ratio=0)).run_gemm(gemm)
        magma_sparse = MagmaController(magma_config(sparsity_ratio=50)).run_gemm(gemm)
        assert magma_sparse.psums < magma_dense.psums

        from repro.stonne.sigma import SigmaController

        sigma_dense = SigmaController(sigma_config(sparsity_ratio=0)).run_gemm(gemm)
        sigma_sparse = SigmaController(sigma_config(sparsity_ratio=50)).run_gemm(gemm)
        assert sigma_sparse.psums == sigma_dense.psums

    def test_dense_operand_traffic_sparsity_invariant_per_fold(self, gemm):
        dense = MagmaController(magma_config(sparsity_ratio=0)).run_gemm(gemm)
        sparse = MagmaController(magma_config(sparsity_ratio=50)).run_gemm(gemm)
        # per-fold streaming is identical; total folds halve with nnz
        assert sparse.traffic.inputs_distributed < dense.traffic.inputs_distributed
        assert sparse.traffic.weights_distributed == pytest.approx(
            dense.traffic.weights_distributed * 0.5, rel=0.01
        )

    @given(
        m=st.integers(1, 128),
        k=st.integers(1, 1024),
        n=st.integers(1, 32),
        sparsity=st.integers(0, 99),
    )
    @settings(max_examples=80, deadline=None)
    def test_physical_bounds_property(self, m, k, n, sparsity):
        controller = MagmaController(magma_config(sparsity_ratio=sparsity))
        stats = controller.run_gemm(GemmLayer("p", M=m, K=k, N=n))
        assert stats.cycles > 0
        assert stats.macs <= m * k * n
        assert stats.multipliers_used <= controller.config.ms_size


class TestFacadeIntegration:
    def test_stonne_dispatches_gemm(self, gemm):
        stats = EvaluationEngine(magma_config(sparsity_ratio=50)).evaluate(gemm)
        assert stats.controller == "MAGMA_SPARSE_DENSE"

    def test_fc_functional_output_exact(self, rng):
        config = magma_config()
        api = StonneBifrostApi(
            config=config, mappings=MappingConfigurator(config=config)
        )
        data = rng.normal(size=(1, 64))
        weights = rng.normal(size=(32, 64))
        output = api.dense(data, weights)
        np.testing.assert_allclose(output, dense_ref(data, weights), rtol=1e-10)
        assert api.stats[0].controller == "MAGMA_SPARSE_DENSE"

    def test_conv_lowered_via_im2col(self):
        layer = ConvLayer("c", C=8, H=10, W=10, K=16, R=3, S=3)
        stats = MagmaController(magma_config()).run_conv(layer)
        assert stats.macs == layer.macs

    def test_bifrost_api_prunes_for_magma(self, rng):
        config = magma_config(sparsity_ratio=100)
        api = StonneBifrostApi(
            config=config, mappings=MappingConfigurator(config=config)
        )
        out = api.dense(rng.normal(size=(1, 16)), rng.normal(size=(8, 16)))
        np.testing.assert_array_equal(out, np.zeros((1, 8)))
