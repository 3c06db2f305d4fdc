"""Every exported name resolves, so a deleted function cannot linger in ``__all__``."""

import importlib

import pytest

import gmreduce

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
