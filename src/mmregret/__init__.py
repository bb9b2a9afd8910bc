"""Finite-sample regret evaluation of statistical decision rules.

Evaluates treatment-choice rules and point predictors by their state-dependent
regret over finite grids, exactly where the sample space is enumerable and by
seeded Monte Carlo otherwise, and provides closed-form minimax-regret
allocations for treatment choice with missing outcome data.

The package namespace is lazy: ``mmregret.X`` imports the submodule whose
``__all__`` lists ``X`` on first use, so a command line process loads only the
modules its command runs. The package's ``__all__`` is the union of those lists.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the submodules whose __all__ is the package's
_PUBLIC = ("asif", "engine", "errors", "missing", "rules", "sampling", "states")
_SUBMODULES = frozenset(_PUBLIC) | {"cli", "mathutil"}


def __getattr__(name: str):
    """A submodule, a public name of one, or ``__all__``, imported on first use and
    then kept here."""
    if name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    elif name == "__all__":
        value = sorted(n for module in map(__getattr__, _PUBLIC) for n in module.__all__)
    elif name.startswith("__"):  # probed by tools; no submodule defines one
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        home = next((m for m in map(__getattr__, _PUBLIC) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")) | _SUBMODULES)


def _script() -> int:
    """The ``mmregret`` console script: cli.main() with the collector off while the
    cli imports, so no collection walks the import graph that main() freezes."""
    import gc
    gc.disable()
    from .cli import main
    return main()
