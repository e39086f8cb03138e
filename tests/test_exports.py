"""The package's public names: each module's ``__all__`` names what the module
holds, and the package root holds its module map and ``__version__`` alone,
so callers import submodules and a deleted name cannot linger as an export."""

import importlib
import pkgutil
import types

import decaylab


def test_exports_resolve_and_the_root_binds_no_submodule_name():
    for info in pkgutil.iter_modules(decaylab.__path__):
        module = importlib.import_module(f"decaylab.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert missing == [], info.name
    bound = [name for name, value in vars(decaylab).items()
             if not name.startswith("__") and not isinstance(value, types.ModuleType)]
    assert bound == []
