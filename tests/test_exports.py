import importlib
import inspect

import pytest

import netaug

#: The modules whose ``__all__`` lists make up ``netaug.__all__``, in order.
MODULES = ["augmentation", "controllability", "errors", "experiments", "graphs"]


@pytest.mark.parametrize("module", ["netaug"] + [f"netaug.{name}" for name in MODULES])
def test_every_exported_name_resolves(module):
    # A name left in __all__ after its definition is gone fails here, not
    # only at ``from module import *``.
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


def test_package_exports_are_the_module_lists():
    lists = [importlib.import_module(f"netaug.{name}").__all__ for name in MODULES]
    assert netaug.__all__ == sum(lists, [])
    assert len(set(netaug.__all__)) == len(netaug.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from netaug import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(netaug.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"netaug.{name}")
    defined = [
        key
        for key, value in vars(module).items()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
        and not key.startswith("_")
    ]
    unlisted = [key for key in defined if key not in module.__all__]
    assert not unlisted, f"netaug.{name} defines public names outside __all__: {unlisted}"
