"""Each module's ``__all__`` is the one declaration of its public names.

The package re-exports the ``__all__`` of every library module, and nothing
else public; ``serialize`` and ``cli`` are not re-exported, but the
benchmark tracer wraps the names in their ``__all__`` too, so those must
resolve as well.
"""

import importlib
import types

import pytest

import qentropy

REEXPORTED = ("bounds", "dist", "divergence", "entropy", "errors", "joint", "qmath", "quasilinear", "verify")


def _module(name):
    return importlib.import_module(f"qentropy.{name}")


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_reexports_each_module_all(name):
    module = _module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert getattr(qentropy, attr) is getattr(module, attr)


def test_package_public_names_are_the_union_of_module_alls():
    public = {
        attr
        for attr, value in vars(qentropy).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = {attr for name in REEXPORTED for attr in _module(name).__all__}
    assert public == declared


@pytest.mark.parametrize("name", ["serialize", "cli"])
def test_unexported_module_all_resolves(name):
    module = _module(name)
    for attr in module.__all__:
        assert hasattr(module, attr)
