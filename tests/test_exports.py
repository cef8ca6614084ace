import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["netaug", "netaug.graphs", "netaug.controllability", "netaug.augmentation", "netaug.experiments"],
)
def test_every_exported_name_resolves(module):
    # A name left in __all__ after its definition is gone fails here, not
    # only at ``from module import *``.
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
