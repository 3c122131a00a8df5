"""Packaging for the ``repro`` library.

The package lives under ``src/``; its version is the ``__version__`` that
``src/repro/__init__.py`` declares.  Install with ``pip install .`` (or
``python setup.py develop`` where the ``wheel`` package is unavailable).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "ImaGen reproduction: memory- and power-efficient image processing "
        "accelerator generation"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
