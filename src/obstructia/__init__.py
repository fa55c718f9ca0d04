"""Homotopy posets of finite categories and obstruction classification.

Computes the zeroth and first homotopy posets of a pointed finite category,
uses them to classify obstructions to terminality of objects, to morphisms
being split epi / mono / iso, and to compositionality of lax assignments,
with concrete engines for finite sets, open-graph reachability and
state-functor laxators.

``import obstructia`` loads no submodule: each one in ``__all__`` loads the
first time it is used, as ``obstructia.<name>`` or through an import.  So a
command loads only the engine it runs.  Every ``cat`` command loads ``cli``,
``errors``, ``fincat``, ``homotopy`` and ``order``; a ``set`` command adds
``setcat``, an ``opengraph`` command ``opengraph``, and a ``states`` command
``setcat`` and ``states``.
"""

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
    # importing a submodule binds it here, so this runs once per name; cli
    # loading late also lets ``python -m obstructia.cli`` run it fresh.  The
    # builtin __import__, unlike importlib's, shows in ``-X importtime``.
    if name in __all__:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
