"""Per-module spans for the traced benchmark run, and their arithmetic.

The library already records spans at its session/sweep/engine/scheduler/
cache/serve boundaries.  For the per-layer breakdown the benchmark adds
one span around each public entry point of the remaining modules
(frontends, IR, runtime, TOPI, the Bifrost API, mRNA, the tuner, the
STONNE controllers, the executor backends, the cache tiers and the wire
protocol), each tagged with its module as the span category.  The
wrappers call the original function inside ``TRACER.span``, so with the
tracer disabled they cost one attribute check, and they are installed
only by the traced run.

Self time is a span's duration minus its children's, so the self times
of all spans on the op's thread add up to the op's wall time; the part
no module span covers is the ``bench.op`` root's own self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Dict, Iterable, Tuple

from repro.obs.trace import TRACER

#: The modules the per-layer metrics are reported for, in stack order.
CATEGORIES = (
    "session", "sweep", "frontends", "ir", "runtime", "topi", "bifrost",
    "mrna", "tuner", "engine", "scheduler", "backends", "cache", "stonne",
    "serve", "fleet",
)

#: Entry points wrapped in a span: (module, "Class.method" or function,
#: category).  Methods the library already traces (Session.run/tune/sweep,
#: plan_many, run_plans, SweepRunner.execute) are not wrapped again.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.session.session", "Session.__init__", "session"),
    ("repro.session.session", "Session.close", "session"),
    ("repro.sweep.plan", "SweepPlan.matrix", "sweep"),
    ("repro.frontends.torchlike", "from_torchlike", "frontends"),
    ("repro.ir.graph", "Graph.finalize", "ir"),
    ("repro.ir.passes.pass_manager", "PassManager.run", "ir"),
    ("repro.runtime.executor", "GraphExecutor.run", "runtime"),
    ("repro.bifrost.api", "StonneBifrostApi.conv2d_nchw", "bifrost"),
    ("repro.bifrost.api", "StonneBifrostApi.dense", "bifrost"),
    ("repro.mrna.mapper", "MrnaMapper.map_conv", "mrna"),
    ("repro.mrna.mapper", "MrnaMapper.map_fc", "mrna"),
    ("repro.tuner.tuners.base", "Tuner.tune", "tuner"),
    ("repro.tuner.tuners.xgb", "XGBTuner.propose", "tuner"),
    ("repro.tuner.tuners.xgb", "XGBTuner.update", "tuner"),
    ("repro.tuner.measure", "TuningTask.measure_batch", "tuner"),
    ("repro.tuner.gbt", "GradientBoostedTrees.fit", "tuner"),
    ("repro.tuner.gbt", "GradientBoostedTrees.predict", "tuner"),
    ("repro.engine.evaluation", "EvaluationEngine.evaluate", "engine"),
    ("repro.engine.scheduler", "run_plan_groups", "scheduler"),
    ("repro.engine.backends", "ExecutorBackend.run", "backends"),
    ("repro.engine.backends", "SerialBackend.run", "backends"),
    ("repro.engine.backends", "simulate_chunk", "backends"),
    ("repro.engine.cache", "StatsCache.get", "cache"),
    ("repro.engine.cache", "StatsCache.put", "cache"),
    ("repro.engine.cache", "PersistentStatsCache.put", "cache"),
    ("repro.engine.sqlite_cache", "SqliteStatsCache.get", "cache"),
    ("repro.engine.sqlite_cache", "SqliteStatsCache.put", "cache"),
    ("repro.serve.client", "ServeClient.submit", "serve"),
    ("repro.serve.client", "ServeClient.watch", "serve"),
    ("repro.serve.client", "ServeClient.result", "serve"),
    ("repro.fleet.protocol", "send_message", "fleet"),
    ("repro.fleet.protocol", "recv_message", "fleet"),
)

#: Cycle-model entry points wrapped on every registered controller.
CONTROLLER_METHODS = (
    "run_conv", "run_fc", "run_gemm", "run_conv_batch", "run_fc_batch",
    "run_gemm_batch", "estimate_conv_psums", "estimate_fc_psums",
    "estimate_conv_psums_batch", "estimate_fc_psums_batch",
)


def _traced(fn, name: str, category: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with TRACER.span(name, category=category):
            return fn(*args, **kwargs)

    return traced


def _wrap_method(cls, method: str, category: str) -> None:
    raw = cls.__dict__[method]
    name = f"{cls.__name__}.{method}"
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(_traced(raw.__func__, name, category)))
    else:
        setattr(cls, method, _traced(raw, name, category))


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` (the
    defining module and each ``from ... import`` copy) at ``replacement``."""
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


def _wrap_lookup_op() -> None:
    """TOPI kernels are looked up per node; wrap what the lookup returns."""
    original = importlib.import_module("repro.topi.registry").lookup_op

    @functools.wraps(original)
    def lookup_op(op_name, target):
        return _traced(original(op_name, target), f"topi.{op_name}", "topi")

    _rebind(original, lookup_op)


_INSTALLED = False


def install() -> None:
    """Wrap every target once per process (idempotent)."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    for module_name, path, category in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, method = path.split(".")
            _wrap_method(getattr(module, cls_name), method, category)
        else:
            original = getattr(module, path)
            _rebind(original, _traced(original, path, category))
    _wrap_lookup_op()
    from repro.stonne.controller import (
        controller_class,
        registered_controller_types,
    )

    for controller_type in registered_controller_types():
        cls = controller_class(controller_type)
        for method in CONTROLLER_METHODS:
            if method in cls.__dict__:
                _wrap_method(cls, method, "stonne")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def op_breakdown(spans: Iterable[dict], lane: str) -> Dict[str, float]:
    """Totals for one traced op whose root ``bench.op`` span ran on ``lane``.

    Returns ``wall_s`` (the root's duration), ``root_self_s``,
    ``<category>.self_s`` and ``<category>.calls`` for spans on the op's
    own thread, ``<span name>.dur_s`` and ``<span name>.calls`` for every
    span name there, and
    ``slots.busy_s`` for scheduler slot lanes (pool work done on the
    op's behalf by other threads).
    """
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for span in spans:
        if span.get("kind") == "instant":
            continue
        if span["lane"] != lane:
            if str(span["lane"]).startswith("slot-"):
                add("slots.busy_s", span["dur"])
            continue
        if span["name"] == "bench.op":
            add("wall_s", span["dur"])
            add("root_self_s", span["self"])
            continue
        add(f"{span['cat']}.self_s", span["self"])
        add(f"{span['cat']}.calls", 1)
        add(f"{span['name']}.dur_s", span["dur"])
        add(f"{span['name']}.calls", 1)
    return out


def coverage(breakdown: Dict[str, float]) -> float:
    """Share of op wall time attributed to a module span."""
    wall = breakdown.get("wall_s", 0.0)
    if wall <= 0:
        return 0.0
    return 1.0 - breakdown.get("root_self_s", 0.0) / wall


def category_self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Self seconds per category over every lane (a daemon's trace)."""
    out: Dict[str, float] = {}
    for span in spans:
        if span.get("kind") == "instant" or str(span["lane"]).startswith("slot-"):
            continue
        out[span["cat"]] = out.get(span["cat"], 0.0) + span["self"]
    return out


def merge(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value
