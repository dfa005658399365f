import importlib
import importlib.util
import pkgutil
from pathlib import Path

import sglab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_public_name_is_exported_by_the_package():
    for info in pkgutil.iter_modules(sglab.__path__):
        module = importlib.import_module(f"sglab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"sglab.{info.name}.__all__ lists missing {name!r}"
            assert getattr(sglab, name, None) is getattr(module, name), f"sglab does not export {info.name}.{name}"


def test_every_traced_name_is_bound_where_the_tracer_looks_it_up():
    # the benchmark's tracer replaces owner.__dict__[attr]; a name that moved or
    # was deleted would break `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, owner_path, attr in spans.TIMED:
        owner = spans._resolve(owner_path)
        assert callable(owner.__dict__.get(attr)), f"{owner_path} has no {attr!r} of its own"
    import sglab.smallgain

    assert "nx" in vars(sglab.smallgain)
