"""Tests for the four model frontends."""

import numpy as np
import pytest

import repro.frontends.torchlike as tl
from repro.errors import FrontendError
from repro.frontends import (
    from_keraslike,
    from_native,
    from_onnxlike,
    from_torchlike,
)
from repro.runtime import compile_graph


class TestNativeFrontend:
    def test_full_stack(self, rng):
        spec = {
            "name": "m",
            "input_shape": [1, 3, 16, 16],
            "layers": [
                {"op": "conv2d", "channels": 8, "kernel_size": 3, "padding": 1},
                {"op": "relu"},
                {"op": "max_pool2d"},
                {"op": "flatten"},
                {"op": "dense", "units": 10},
                {"op": "softmax"},
            ],
        }
        graph = from_native(spec)
        out = compile_graph(graph)(rng.normal(size=(1, 3, 16, 16)))
        assert out.shape == (1, 10)
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_explicit_weights(self):
        weight = np.eye(4).reshape(4, 4)
        spec = {
            "input_shape": [1, 4],
            "layers": [
                {"op": "dense", "units": 4, "bias": False, "weight": weight},
            ],
        }
        graph = from_native(spec)
        data = np.array([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_allclose(compile_graph(graph)(data), data)

    def test_override_keeps_the_next_layers_weights(self):
        """An explicit weight replaces only its own parameter: the random
        layer after it gets the weights it gets without the override."""

        def spec(first):
            return {
                "input_shape": [1, 4],
                "layers": [
                    {"op": "dense", "units": 4, "name": "first", **first},
                    {"op": "dense", "units": 3, "name": "second"},
                ],
            }

        def params(graph):
            return {graph.nodes[i].name: v for i, v in graph.params.items()}

        plain = params(from_native(spec({})))
        overridden = params(from_native(spec({"weight": np.eye(4)})))
        np.testing.assert_array_equal(overridden["first.weight"], np.eye(4))
        assert not np.array_equal(plain["first.weight"], np.eye(4))
        for name in ("first.bias", "second.weight", "second.bias"):
            np.testing.assert_array_equal(overridden[name], plain[name])

    def test_weight_shape_mismatch(self):
        spec = {
            "input_shape": [1, 4],
            "layers": [
                {"op": "dense", "units": 4, "weight": np.ones((3, 3))},
            ],
        }
        with pytest.raises(FrontendError, match="shape"):
            from_native(spec)

    def test_missing_fields(self):
        with pytest.raises(FrontendError, match="input_shape"):
            from_native({"layers": [{"op": "relu"}]})
        with pytest.raises(FrontendError, match="layers"):
            from_native({"input_shape": [1, 4]})
        with pytest.raises(FrontendError, match="unsupported op"):
            from_native({"input_shape": [1, 4], "layers": [{"op": "wat"}]})


class TestTorchlikeFrontend:
    def test_sequential_model(self, rng):
        model = tl.Sequential(
            tl.Conv2d(3, 8, 3, padding=1),
            tl.ReLU(),
            tl.MaxPool2d(2),
            tl.Flatten(),
            tl.Linear(8 * 8 * 8, 10),
            tl.Softmax(),
        )
        graph = from_torchlike(model, (1, 3, 16, 16))
        out = compile_graph(graph)(rng.normal(size=(1, 3, 16, 16)))
        assert out.shape == (1, 10)

    def test_explicit_weights_respected(self):
        linear = tl.Linear(4, 4, bias=False, weight=np.eye(4))
        graph = from_torchlike(tl.Sequential(linear), (1, 4))
        data = np.array([[1.0, -2.0, 3.0, 0.5]])
        np.testing.assert_allclose(compile_graph(graph)(data), data)

    def test_nested_sequential_flattened(self, rng):
        model = tl.Sequential(
            tl.Sequential(tl.Conv2d(1, 2, 3), tl.ReLU()),
            tl.Sequential(tl.Flatten(), tl.Linear(2 * 6 * 6, 3)),
        )
        graph = from_torchlike(model, (1, 1, 8, 8))
        assert compile_graph(graph)(rng.normal(size=(1, 1, 8, 8))).shape == (1, 3)

    def test_lrn_and_dropout_supported(self, rng):
        model = tl.Sequential(
            tl.Conv2d(1, 2, 3), tl.LocalResponseNorm(size=3), tl.Dropout()
        )
        graph = from_torchlike(model, (1, 1, 8, 8))
        assert compile_graph(graph)(rng.normal(size=(1, 1, 8, 8))).shape == (1, 2, 6, 6)

    def test_unsupported_module(self):
        class Strange(tl.Module):
            pass

        with pytest.raises(FrontendError, match="unsupported"):
            from_torchlike(tl.Sequential(Strange()), (1, 4))


class TestOnnxlikeFrontend:
    def _model(self, rng):
        return {
            "graph": {
                "name": "o",
                "input": [{"name": "x", "shape": [1, 2, 8, 8]}],
                "initializer": [
                    {
                        "name": "w",
                        "shape": [4, 2, 3, 3],
                        "data": rng.normal(size=72).tolist(),
                    },
                    {"name": "b", "shape": [4], "data": [0.0, 1.0, 2.0, 3.0]},
                ],
                "node": [
                    {
                        "op_type": "Conv",
                        "input": ["x", "w", "b"],
                        "output": ["c"],
                        "attributes": {"pads": [1, 1, 1, 1]},
                    },
                    {"op_type": "Relu", "input": ["c"], "output": ["r"]},
                    {"op_type": "MaxPool", "input": ["r"], "output": ["p"],
                     "attributes": {"kernel_shape": [2, 2], "strides": [2, 2]}},
                    {"op_type": "Flatten", "input": ["p"], "output": ["f"]},
                ],
                "output": [{"name": "f"}],
            }
        }

    def test_dag_wiring(self, rng):
        graph = from_onnxlike(self._model(rng))
        out = compile_graph(graph)(rng.normal(size=(1, 2, 8, 8)))
        assert out.shape == (1, 4 * 4 * 4)

    def test_conv_bias_applied(self, rng):
        model = self._model(rng)
        graph = from_onnxlike(model)
        names = [n.op_name for n in graph.op_nodes()]
        assert "bias_add" in names

    def test_gemm_trans_requirements(self):
        model = {
            "graph": {
                "input": [{"name": "x", "shape": [1, 4]}],
                "initializer": [
                    {"name": "w", "shape": [2, 4], "data": [1.0] * 8}
                ],
                "node": [
                    {"op_type": "Gemm", "input": ["x", "w"], "output": ["y"],
                     "attributes": {"transB": 0}},
                ],
            }
        }
        with pytest.raises(FrontendError, match="transB"):
            from_onnxlike(model)

    def test_undefined_input_rejected(self):
        model = {
            "graph": {
                "input": [{"name": "x", "shape": [1, 4]}],
                "node": [
                    {"op_type": "Relu", "input": ["nope"], "output": ["y"]},
                ],
            }
        }
        with pytest.raises(FrontendError, match="not defined"):
            from_onnxlike(model)

    def test_asymmetric_pads_rejected(self, rng):
        model = self._model(rng)
        model["graph"]["node"][0]["attributes"]["pads"] = [1, 1, 2, 2]
        with pytest.raises(FrontendError, match="asymmetric"):
            from_onnxlike(model)


class TestKeraslikeFrontend:
    def _model(self):
        return {
            "class_name": "Sequential",
            "config": {
                "name": "k",
                "layers": [
                    {
                        "class_name": "Conv2D",
                        "config": {
                            "filters": 4,
                            "kernel_size": 3,
                            "padding": "same",
                            "activation": "relu",
                            "batch_input_shape": [None, 8, 8, 3],
                        },
                    },
                    {"class_name": "MaxPooling2D", "config": {}},
                    {"class_name": "Flatten", "config": {}},
                    {
                        "class_name": "Dense",
                        "config": {"units": 5, "activation": "softmax"},
                    },
                ],
            },
        }

    def test_nhwc_input_converted_to_nchw(self, rng):
        graph = from_keraslike(self._model())
        first = graph.nodes[graph.input_ids[0]]
        assert first.ttype.shape == (1, 3, 8, 8)
        out = compile_graph(graph)(rng.normal(size=(1, 3, 8, 8)))
        assert out.shape == (1, 5)

    def test_same_padding_even_kernel_rejected(self):
        model = self._model()
        model["config"]["layers"][0]["config"]["kernel_size"] = 4
        with pytest.raises(FrontendError, match="odd kernels"):
            from_keraslike(model)

    def test_non_sequential_rejected(self):
        with pytest.raises(FrontendError, match="Sequential"):
            from_keraslike({"class_name": "Functional", "config": {}})

    def test_unknown_activation_rejected(self):
        model = self._model()
        model["config"]["layers"][0]["config"]["activation"] = "mish"
        with pytest.raises(FrontendError, match="activation"):
            from_keraslike(model)
