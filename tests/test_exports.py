"""Every exported name resolves, so a deleted function cannot linger in ``__all__``."""

import importlib
import subprocess
import sys

import pytest

import gmreduce

# The modules whose exports the package re-exports, in the order that decides
# which module owns a name: gauss's component densities before mixture's.
SOURCES = (
    "gmreduce.gauss",
    "gmreduce.mixture",
    "gmreduce.costs",
    "gmreduce.reduction",
    "gmreduce.quadrature",
    "gmreduce.cluster",
)

MODULES = (
    "gmreduce",
    "gmreduce.cli",
    "gmreduce.cluster",
    "gmreduce.costs",
    "gmreduce.gauss",
    "gmreduce.mixture",
    "gmreduce.quadrature",
    "gmreduce.reduction",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_have_no_duplicates():
    assert len(gmreduce.__all__) == len(set(gmreduce.__all__))


def test_package_reexports_the_component_densities():
    # gmreduce.mixture exports densities of the same names for mixtures.
    assert gmreduce.log_pdf is gmreduce.gauss.log_pdf
    assert gmreduce.pdf is gmreduce.gauss.pdf


def test_package_exports_what_its_modules_export():
    sources = [importlib.import_module(name) for name in SOURCES]
    assert set(gmreduce.__all__) == set().union(*(module.__all__ for module in sources))
    for name in gmreduce.__all__:
        owner = next(module for module in sources if name in module.__all__)
        assert getattr(gmreduce, name) is getattr(owner, name), name


def test_importing_the_package_and_its_cli_loads_no_scipy():
    """scipy is imported on first use only (``quadrature``), so set-up does not pay for it."""
    code = "import sys, gmreduce, gmreduce.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
