import importlib
import pkgutil

import pytest

import communityplan

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(communityplan.__path__)
    if info.name != "__main__"  # importing it runs the command line
)


@pytest.mark.parametrize("module_name", ["communityplan"] + [
    f"communityplan.{name}" for name in SUBMODULES
])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []

