"""The package's public names: every ``__all__`` entry of every module
resolves.  Tools that wrap functions by ``__all__`` (the benchmark's
tracer) skip a missing name silently, so a stale entry shows up here."""

import importlib
import pkgutil

import wavelab


def test_every_all_entry_resolves():
    # __main__ runs the CLI on import
    names = [m.name for m in pkgutil.iter_modules(wavelab.__path__) if m.name != "__main__"]
    assert "grid" in names
    for name in names:
        module = importlib.import_module(f"wavelab.{name}")
        missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
        assert not missing, (name, missing)
