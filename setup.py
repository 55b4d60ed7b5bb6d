"""Packaging for the ``repro`` library and its ``repro`` command.

All project metadata lives here (there is no ``pyproject.toml``).  The
package sits under ``src/``; ``pip install -e .`` or ``python setup.py
develop`` installs it with the ``repro`` console script.  Without installing,
run from the repository root with ``PYTHONPATH=src``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Fuzzy Integration of Data Lake Tables: Fuzzy Full Disjunction pipeline",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
