"""Packaging for the ICPP'17 autotuning-reproduction codebase.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so ``pip install -e .``
works without the ``wheel`` package being present.
"""

from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent
_README = _HERE / "README.md"

setup(
    name="repro-icpp-lim2017",
    version="0.2.0",
    description=(
        "Reproduction of Lim, Norris & Malony (ICPP'17): autotuning GPU "
        "kernels with static analysis, on a simulated-GPU measurement "
        "stack with a parallel, cache-backed sweep engine"
    ),
    long_description=(
        _README.read_text() if _README.exists() else ""
    ),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: Scientific/Engineering",
        "Topic :: Software Development :: Compilers",
    ],
)
