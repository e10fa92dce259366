"""Packaging for the `repro` provenance-minimization reproduction.

Pure standard library at runtime; `pip install -e .` exposes the
`repro-prov` CLI and removes the need for PYTHONPATH gymnastics.
"""

import os

from setuptools import find_packages, setup


def _readme() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "README.md")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


setup(
    name="repro-provenance-minimization",
    version="1.6.0",
    description=(
        "Reproduction of 'On Provenance Minimization' (PODS 2011): "
        "N[X] provenance, CQ/UCQ minimization, incremental view "
        "maintenance, and an HTTP serving tier"
    ),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    extras_require={
        # One pinned-enough set for CI and contributors alike:
        # `pip install -e .[dev]`.
        "dev": [
            "pytest>=7",
            "pytest-benchmark>=4",
            "pytest-cov>=4",
            "ruff>=0.4",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-prov=repro.cli:main",
        ]
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Database",
        "Topic :: Scientific/Engineering",
    ],
)
