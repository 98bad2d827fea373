"""Tooling bench: what one functional graph run holds and faults in.

The graph executor releases each intermediate after its last reader has
run, so a run's heap holds its live set instead of every activation.
For the zoo graphs the ``graph_run`` workload's torch-like nets mirror
(AlexNet-224, VGG-small, LeNet) this bench runs the CPU module and
reports, per run after one warm-up:

* the traced peak (``tracemalloc``) of numpy and Python allocations;
* the minor page faults, the process's ``ru_minflt`` delta, averaged
  over the untraced runs.

A run that keeps every intermediate alive peaks at 20.8 MiB on
VGG-small and frees it all at once at the end; when glibc hands that
heap top back to the kernel, the next run faults it in again.  The
bound below holds the live-set figure (6.6 MiB).
"""

import resource
import tracemalloc

import numpy as np
from conftest import emit, scaled

from repro.models import alexnet_graph, lenet_graph, vgg_small_graph
from repro.runtime import compile_graph

GRAPHS = (("alexnet", alexnet_graph), ("vgg_small", vgg_small_graph),
          ("lenet", lenet_graph))
#: Untraced runs whose faults are averaged, after the warm-up run.
ROUNDS = scaled(5, 2)
#: Traced per-run peak bound for VGG-small, in MiB.
VGG_SMALL_PEAK_MIB = 8.0


def _measure(factory):
    """(traced peak MiB, minor faults per run) of one graph's CPU module."""
    graph = factory()
    module = compile_graph(graph, apply_passes=False)
    data = np.random.default_rng(0).normal(
        size=graph.nodes[graph.input_ids[0]].ttype.shape
    )
    module(data)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(ROUNDS):
        module(data)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / ROUNDS
    tracemalloc.start()
    try:
        module(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, faults


def _run():
    # One graph at a time: AlexNet's weights alone are about 500 MB.
    return [(name, *_measure(factory)) for name, factory in GRAPHS]


def test_bench_runtime_memory(benchmark, results_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'graph':<12}{'peak MiB':>10}{'faults/run':>12}"]
    for name, peak, faults in rows:
        lines.append(f"{name:<12}{peak:>10.1f}{faults:>12,.0f}")
    emit(results_dir, "runtime_memory", "\n".join(lines))

    peaks = {name: peak for name, peak, _ in rows}
    assert peaks["vgg_small"] <= VGG_SMALL_PEAK_MIB, (
        f"VGG-small run peaks at {peaks['vgg_small']:.1f} MiB"
    )
