"""The benchmark's span tracer still finds, wraps and restores every
hypcycles name it traces, so renaming or deleting one fails here and not
only in traced benchmark runs."""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded hypcycles module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hypcycles" or name.startswith("hypcycles.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, key, k), v) for k, v in vars(value).items())
    return out


def test_tracer_install_wraps_and_uninstall_restores():
    module = _load_tracer()
    for layer in module.LAYERS:     # install imports them; load them first
        importlib.import_module(f"hypcycles.{layer}")
    tracer = module.Tracer()
    before = _bindings()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, key, original in saved:
            assert vars(owner)[key] is not original, key
            assert vars(owner)[key].__wrapped__ is original, key
    finally:
        tracer.uninstall()
    for owner, key, original in saved:
        assert vars(owner)[key] is original, key
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
