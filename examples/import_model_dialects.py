"""One model, four frontends: the "model support" feature of Table I.

Bifrost inherits TVM's ability to ingest models from many frameworks.
This example defines the same two-layer CNN in all four frontend dialects
(native layer list, torch-like modules, ONNX-like graph, Keras-like
config), imports each to the IR, and runs each end to end on a simulated
SIGMA accelerator — demonstrating that the offload path is frontend-
agnostic.

Run:  python examples/import_model_dialects.py
"""

import numpy as np

import repro.frontends.torchlike as nn
from repro.frontends import (
    from_keraslike,
    from_native,
    from_onnxlike,
    from_torchlike,
)
from repro.session import Session

rng = np.random.default_rng(42)
data = rng.normal(size=(1, 3, 16, 16))

# The same architecture in every dialect (weights differ per frontend —
# each dialect generates its own deterministic parameters).
native_spec = {
    "name": "cnn-native",
    "input_shape": [1, 3, 16, 16],
    "layers": [
        {"op": "conv2d", "channels": 8, "kernel_size": 3, "padding": 1},
        {"op": "relu"},
        {"op": "max_pool2d"},
        {"op": "flatten"},
        {"op": "dense", "units": 10},
    ],
}

torch_model = nn.Sequential(
    nn.Conv2d(3, 8, 3, padding=1),
    nn.ReLU(),
    nn.MaxPool2d(2),
    nn.Flatten(),
    nn.Linear(8 * 8 * 8, 10),
)

onnx_model = {
    "name": "cnn-onnx",
    "graph": {
        "input": [{"name": "x", "shape": [1, 3, 16, 16]}],
        "initializer": [
            {
                "name": "w1",
                "shape": [8, 3, 3, 3],
                "data": rng.normal(0, 0.05, 216).tolist(),
            },
            {
                "name": "w2",
                "shape": [10, 512],
                "data": rng.normal(0, 0.05, 5120).tolist(),
            },
        ],
        "node": [
            {"op_type": "Conv", "input": ["x", "w1"], "output": ["c"],
             "attributes": {"pads": [1, 1, 1, 1]}},
            {"op_type": "Relu", "input": ["c"], "output": ["r"]},
            {"op_type": "MaxPool", "input": ["r"], "output": ["p"],
             "attributes": {"kernel_shape": [2, 2], "strides": [2, 2]}},
            {"op_type": "Flatten", "input": ["p"], "output": ["f"]},
            {"op_type": "Gemm", "input": ["f", "w2"], "output": ["y"]},
        ],
        "output": [{"name": "y"}],
    },
}

keras_model = {
    "class_name": "Sequential",
    "config": {
        "name": "cnn-keras",
        "layers": [
            {"class_name": "Conv2D",
             "config": {"filters": 8, "kernel_size": 3, "padding": "same",
                        "activation": "relu",
                        "batch_input_shape": [None, 16, 16, 3]}},
            {"class_name": "MaxPooling2D", "config": {}},
            {"class_name": "Flatten", "config": {}},
            {"class_name": "Dense", "config": {"units": 10}},
        ],
    },
}

graphs = {
    "native": from_native(native_spec),
    "torch-like": from_torchlike(torch_model, (1, 3, 16, 16)),
    "onnx-like": from_onnxlike(onnx_model),
    "keras-like": from_keraslike(keras_model),
}

print("running each import on SIGMA at 50% sparsity\n")
for dialect, graph in graphs.items():
    with Session(arch="sigma", sparsity_ratio=0.5) as session:
        first_input = graph.nodes[graph.input_ids[0]].name
        result = session.run_graph(graph, {first_input: data})
    offloaded = ", ".join(s.layer_name for s in result.layer_stats)
    print(
        f"{dialect:<11} output {result.output.shape} | "
        f"{result.total_cycles:>9,} cycles | offloaded: {offloaded}"
    )

print("\nall four dialects drive the same IR, executor, and offload path")
