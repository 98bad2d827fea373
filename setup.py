"""Package metadata for the ``repro`` library and its ``repro`` command.

This file is the only packaging metadata (there is no pyproject.toml).
The version is read from ``src/repro/version.py`` without importing the
package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Bifrost reproduction: STONNE-style cycle models of reconfigurable "
        "DNN accelerators behind a TVM-style compile and run path"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
