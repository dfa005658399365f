import importlib
import pkgutil

import sglab


def test_every_public_name_is_exported_by_the_package():
    for info in pkgutil.iter_modules(sglab.__path__):
        module = importlib.import_module(f"sglab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sglab.{info.name}.__all__ lists missing {name!r}"
            assert getattr(sglab, name, None) is getattr(module, name), f"sglab does not export {info.name}.{name}"
