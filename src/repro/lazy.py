"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that imports every submodule makes an import of
any one of them pay for all of them.  With :func:`lazy_exports` a
package keeps its public names (``from repro.fleet import RemoteBackend``
still works) but imports the defining submodule when a name is first
read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.fleet.protocol": ("ProtocolError", "encode_frame"),
        "repro.fleet.worker": ("FleetWorker",),
    })

A resolved name is stored on the package, so later reads are plain
attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, where
    ``exports`` maps each defining submodule to the names it exports."""
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return sorted(origin), __getattr__, __dir__
