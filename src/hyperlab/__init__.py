"""hyperlab: a numerical laboratory for linear operator dynamics with
unimodular point spectrum — random eigenvector series, return-time sets,
Cantor eigenvector fields and visit-density estimation, all at finite
truncation with explicit error bookkeeping.

Importing the package loads none of its modules: ``hyperlab.<name>``
imports the module of that name on first use, so a run compiles only the
modules its pipelines call."""

import importlib

__all__ = [
    "cantor",
    "construction",
    "density",
    "diophantine",
    "eigenfields",
    "ergodicity",
    "linspace",
    "operators",
    "steinhaus",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
