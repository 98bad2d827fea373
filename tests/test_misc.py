"""Tests for errors, version, workloads, and package exports."""

import pytest

import repro
from repro import errors
from repro.workloads import fig10_conv, multiplier_sweep


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigError", "MappingError", "LayerError",
            "UnsupportedLayerError", "GraphError", "ShapeInferenceError",
            "FrontendError", "TuningError", "SimulationError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_specializations(self):
        assert issubclass(errors.UnsupportedLayerError, errors.LayerError)
        assert issubclass(errors.ShapeInferenceError, errors.GraphError)

    def test_single_catch_point(self):
        with pytest.raises(errors.ReproError):
            raise errors.TuningError("x")


class TestVersion:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"


class TestWorkloads:
    def test_fig10_dimensions_match_paper(self):
        layer = fig10_conv()
        assert (layer.N, layer.C, layer.H, layer.W) == (1, 2, 10, 10)
        assert (layer.K, layer.R, layer.S) == (8, 3, 3)  # documented choice

    def test_sweeps_match_paper(self):
        assert multiplier_sweep() == [8, 16, 32, 64, 128]


class TestPackageSurface:
    def test_stonne_exports(self):
        import repro.stonne as stonne

        for name in stonne.__all__:
            assert hasattr(stonne, name), name

    def test_bifrost_exports(self):
        import repro.bifrost as bifrost

        for name in bifrost.__all__:
            assert hasattr(bifrost, name), name

    def test_tuner_exports(self):
        import repro.tuner as tuner

        for name in tuner.__all__:
            assert hasattr(tuner, name), name

    def test_ir_and_topi_exports(self):
        import repro.ir as ir
        import repro.topi as topi

        for name in ir.__all__:
            assert hasattr(ir, name), name
        for name in topi.__all__:
            assert hasattr(topi, name), name
