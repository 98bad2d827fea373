"""Torch-like AlexNet-224, VGG-small and LeNet for the ``graph_run`` workload.

The paper's Listing 1 hands Bifrost a PyTorch model.  These are the same
three networks the zoo describes as layer descriptors (``repro.models``),
written as ``repro.frontends.torchlike`` module trees so a run goes
through the whole frontend -> IR -> runtime -> packed-func path.  Layer
geometry matches the zoo exactly, which is what lets the benchmark check
every op's per-layer cycles against ``Session.run("<zoo name>")``.

Weights and inputs are float64 (the dtype the runtime computes in) and
drawn from the benchmark seed.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

import repro.frontends.torchlike as nn


def _layers(rng: np.random.Generator):
    def conv(c: int, k: int, size: int, **kwargs) -> nn.Conv2d:
        weight = rng.normal(0.0, 0.05, (k, c, size, size))
        return nn.Conv2d(c, k, size, weight=weight, **kwargs)

    def linear(n_in: int, n_out: int) -> nn.Linear:
        return nn.Linear(n_in, n_out, weight=rng.normal(0.0, 0.05, (n_out, n_in)))

    return conv, linear


def alexnet(rng: np.random.Generator) -> nn.Sequential:
    """torchvision's single-group AlexNet over 224x224 RGB."""
    conv, linear = _layers(rng)
    return nn.Sequential(
        conv(3, 64, 11, stride=4, padding=2), nn.ReLU(), nn.MaxPool2d(3, 2),
        conv(64, 192, 5, padding=2), nn.ReLU(), nn.MaxPool2d(3, 2),
        conv(192, 384, 3, padding=1), nn.ReLU(),
        conv(384, 256, 3, padding=1), nn.ReLU(),
        conv(256, 256, 3, padding=1), nn.ReLU(), nn.MaxPool2d(3, 2),
        nn.Flatten(), nn.Dropout(),
        linear(9216, 4096), nn.ReLU(), nn.Dropout(),
        linear(4096, 4096), nn.ReLU(),
        linear(4096, 1000),
    )


def vgg_small(rng: np.random.Generator) -> nn.Sequential:
    """VGG-11 geometry over 64x64 RGB (the zoo's ``vgg_small``)."""
    conv, linear = _layers(rng)
    modules = []
    channels = [3, 64, 128, 256, 256, 512, 512]
    for index in range(6):
        modules += [conv(channels[index], channels[index + 1], 3, padding=1),
                    nn.ReLU()]
        if index in (0, 1, 3, 5):
            modules.append(nn.MaxPool2d(2, 2))
    return nn.Sequential(
        *modules, nn.Flatten(),
        linear(512 * 4 * 4, 1024), nn.ReLU(), nn.Dropout(),
        linear(1024, 100),
    )


def lenet(rng: np.random.Generator) -> nn.Sequential:
    """LeNet-5 over 28x28 single-channel inputs."""
    conv, linear = _layers(rng)
    return nn.Sequential(
        conv(1, 6, 5, padding=2), nn.ReLU(), nn.AvgPool2d(2, 2),
        conv(6, 16, 5), nn.ReLU(), nn.AvgPool2d(2, 2),
        nn.Flatten(),
        linear(400, 120), nn.ReLU(),
        linear(120, 84), nn.ReLU(),
        linear(84, 10),
    )


#: zoo name -> (module factory, input shape).
MODELS: Dict[str, Tuple[Callable[[np.random.Generator], nn.Sequential],
                        Tuple[int, ...]]] = {
    "alexnet": (alexnet, (1, 3, 224, 224)),
    "vgg_small": (vgg_small, (1, 3, 64, 64)),
    "lenet": (lenet, (1, 1, 28, 28)),
}
