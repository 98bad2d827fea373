"""Start-up: each CLI verb imports what it runs.

The parser needs the zoo's model *names*, a service client needs the
wire protocol, and a freshly started ``repro serve`` needs neither the
engine nor the model builders until its first job.  Each check runs in
a fresh interpreter, because the test process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules no parser, client or idle daemon has any use for.
HEAVY = ("numpy", "multiprocessing", "sqlite3", "repro.ir", "repro.models")


def _run(code: str, tmp_path: Path):
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=str(tmp_path), env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _loaded_after(code: str, tmp_path: Path) -> set:
    """The ``sys.modules`` names a fresh interpreter holds after ``code``."""
    return set(_run(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
        tmp_path,
    ))


def _assert_not_loaded(loaded: set, names) -> None:
    assert [name for name in names if name in loaded] == []


def test_building_the_parser_loads_no_heavy_module(tmp_path):
    loaded = _loaded_after(
        "from repro.cli import build_parser; build_parser()", tmp_path
    )
    _assert_not_loaded(loaded, HEAVY)


def test_service_client_imports_no_server_engine_or_worker(tmp_path):
    loaded = _loaded_after("from repro.serve import ServeClient", tmp_path)
    _assert_not_loaded(loaded, HEAVY + (
        "repro.serve.server", "repro.engine.evaluation", "repro.fleet.worker",
    ))


def test_a_ready_sweep_service_loads_no_engine_work(tmp_path):
    """The daemon as ``repro serve`` builds it, up to its banner: the
    session (and everything a job runs) is built by the first job."""
    code = """
from repro.cli import build_parser
from repro.serve import SweepService
from repro.session import config_from_args

args = build_parser().parse_args([
    "serve", "--listen", "127.0.0.1:0", "--cache-path", "serve.sqlite",
    "--cache-max-entries", "256", "--archive-dir", "archive",
])
service = SweepService(
    ("127.0.0.1", 0), config=config_from_args(args),
    archive_dir=args.archive_dir,
)
service.server_close()
"""
    loaded = _loaded_after(code, tmp_path)
    assert "repro.serve.server" in loaded
    _assert_not_loaded(loaded, HEAVY + ("repro.fleet.worker",))


@pytest.mark.parametrize(
    "package", ["repro.engine", "repro.fleet", "repro.serve", "repro.sweep"]
)
def test_every_lazy_export_resolves(package, tmp_path):
    code = f"""
import importlib
package = importlib.import_module({package!r})
for name in package.__all__:
    getattr(package, name)
    assert name in dir(package), name
try:
    package.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
namespace = {{}}
exec("from {package} import *", namespace)
assert sorted(set(namespace) - {{"__builtins__"}}) == sorted(package.__all__)
"""
    _loaded_after(code, tmp_path)


#: ``zoo_models()`` and, per classic network, its description, tags,
#: layer count and a sha256 over its descriptors (as recorded when the
#: classics still registered by importing :mod:`repro.models`).
ZOO_NAMES = [
    "alexnet", "lenet", "vgg_small", "mlp", "transformer", "depthwise_sep",
    "grouped_conv", "dilated_conv", "nhwc_conv",
]
CLASSICS = {
    "alexnet": ["AlexNet conv+fc stack (paper Table II)", ["classic", "cnn"],
                8, "b62f78ef6511016472eff2f1b41d24cfbd62045aea3416f8125d00bdb8362bee"],
    "lenet": ["LeNet-5 conv+fc stack", ["classic", "cnn"],
              5, "8cd1f812b09ac1835c9e180317c08acc33e0e89f5661d98f18e576dd169759cc"],
    "vgg_small": ["Reduced VGG conv+fc stack", ["classic", "cnn"],
                  8, "5bdf42161d74df04fa9266e7072f3f0b9ef4ca12ef10ed8060b4941ce28f8fe9"],
    "mlp": ["3-layer MLP (dense only)", ["classic", "mlp"],
            3, "d2a82d22c0205ceded2a8faca4f6b116fc9261e41217bdad04eb884d3956ff82"],
}


def test_zoo_names_and_classic_layers_are_unchanged(tmp_path):
    """In a fresh interpreter, so no other test's registrations count."""
    code = """
import hashlib, json
from dataclasses import asdict
from repro.zoo import zoo_entry, zoo_layers, zoo_models

classics = {}
for name in zoo_models("classic"):
    entry, layers = zoo_entry(name), zoo_layers(name)
    blob = json.dumps(
        [[type(layer).__name__, asdict(layer)] for layer in layers],
        sort_keys=True,
    )
    classics[name] = [entry.description, entry.tags, len(layers),
                      hashlib.sha256(blob.encode()).hexdigest()]
print(json.dumps({"names": zoo_models(), "classics": classics}))
"""
    zoo = _run(code, tmp_path)
    assert zoo["names"] == ZOO_NAMES
    assert zoo["classics"] == CLASSICS
    assert list(zoo["classics"]) == list(CLASSICS)


def test_classic_builders_load_on_first_layer_lookup(tmp_path):
    code = """
import sys
from repro.zoo import zoo_layers, zoo_models
zoo_models()
assert "repro.models" not in sys.modules
zoo_layers("lenet")
assert "repro.models" in sys.modules
"""
    _loaded_after(code, tmp_path)
