"""Every name that the package or a submodule exports resolves, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import randschrod

MODULES = ["randschrod"] + [
    f"randschrod.{info.name}" for info in pkgutil.iter_modules(randschrod.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what {name} does not define: {missing}"
