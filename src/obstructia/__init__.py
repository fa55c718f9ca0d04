"""Homotopy posets of finite categories and obstruction classification.

Computes the zeroth and first homotopy posets of a pointed finite category,
uses them to classify obstructions to terminality of objects, to morphisms
being split epi / mono / iso, and to compositionality of lax assignments,
with concrete engines for finite sets, open-graph reachability and
state-functor laxators.
"""

import importlib

from . import errors, fincat, homotopy, opengraph, order, setcat, states

__all__ = [
    "cli",
    "errors",
    "fincat",
    "homotopy",
    "opengraph",
    "order",
    "setcat",
    "states",
]

__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use, so ``python -m obstructia.cli`` runs it fresh
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
