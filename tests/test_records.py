"""The engine's records: equal values compare equal, a record hashes exactly
when its values do, no field can be rebound once it is built, and no other
attribute can be set beside the fields."""

import glob
import io
import os
import re

import pytest

from obstructia import cli, fincat, homotopy, opengraph, setcat, states

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "obstructia")
Z2 = os.path.join(os.path.dirname(__file__), "..", "fixtures", "z2.cat")

WALKING_ARROW = (
    ["0", "1"],
    [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1")],
    {"0": "id0", "1": "id1"},
    {("id0", "id0"): "id0", ("id0", "a"): "a", ("a", "id1"): "a", ("id1", "id1"): "id1"},
)


def category():
    return fincat.validate_category(*WALKING_ARROW)


def nat_trans():
    functor = fincat.identity_functor(category())
    return fincat.validate_nat_trans(functor, functor, {"0": "id0", "1": "id1"})


def report():
    """A report built afresh: the kept one is dropped first, so two builds
    are two objects."""
    homotopy._KEPT = homotopy._KeptReport()
    return homotopy.powerset_report(["a", "b"], ["a"], "{}", "ctx")


def graph():
    return opengraph.OpenGraph(("x",), ("y",), ("w", "v"), frozenset({("v", "w")}), {"x": "v"}, {"y": "w"})


def function():
    return setcat.FiniteFunction(("q", "p"), ("r",), {"p": "r", "q": "r"})


# Each record, a builder of one value afresh, and whether it hashes.
RECORDS = {
    "MorDecl": (lambda: fincat.MorDecl("a", "0", "1"), True),
    "FinCat": (category, False),
    "_Declarations": (lambda: fincat._declarations(*WALKING_ARROW[:3]), False),
    "FunctorData": (lambda: fincat.identity_functor(category()), False),
    "NatTransData": (nat_trans, False),
    "Poset": (lambda: report().invariant.poset, True),
    "PointedPoset": (lambda: report().invariant, True),
    "PointedMap": (lambda: homotopy.induced_map(report(), report(), lambda e: e), False),
    "ObstructionReport": (report, True),
    "MorphismAnalysis": (lambda: homotopy.analyze_morphism(category(), "a"), True),
    "OpenGraph": (graph, False),
    "Relation": (lambda: opengraph.reach(graph()), True),
    "GraphHom": (lambda: opengraph.GraphHom(graph(), graph(), {"v": "v", "w": "w"}), False),
    "FiniteFunction": (function, False),
    "KernelPair": (lambda: setcat.kernel_pair(function()), True),
    "StateContext": (lambda: states.StateContext("gf2"), True),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record(name):
    build, hashes = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b
    if hashes:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        setattr(a, "extra", 1)
    assert a == b


def test_a_shared_category_keeps_its_index():
    """The parse memo hands every reader of a text one category, so its
    index cannot be rebound either."""
    text = "obj x\nmor i : x -> x\nid x = i\ncomp i ; i = i\n"
    c = fincat.parse_category(text)
    for name in ("index", "into", "split_epis"):
        with pytest.raises(AttributeError):
            setattr(c, name, {})
    assert fincat.parse_category(text) is c and c.index == {"i": 0} and c.into == {"x": (0,)} and c.split_epis == {0}


def test_a_shared_category_keeps_its_split_epis():
    """A split epi set written onto a parsed category would reach every
    later command on the same text through the parse memo: it cannot be."""
    with open(Z2, encoding="utf-8") as fh:
        c = fincat.parse_category(fh.read())
    with pytest.raises(AttributeError):
        c.split_epis = frozenset()
    out = io.StringIO()
    assert cli.run(["cat", "pi1", Z2, "--object", "*"], out) == 0
    assert out.getvalue() == (
        "context: pi1 at object '*'\n"
        "trivial: no\n"
        "basepoint: [*]\n"
        "elements (2): (e,s), [*]\n"
        "minimal obstructions (1): (e,s)\n"
        "covers (0): \n"
    )


def test_no_record_skips_its_checks():
    """namedtuple's _make and _replace build a record without its __new__
    or __init__, and so without its checks: src/ calls neither."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            assert not re.search(r"\._(make|replace)\(", fh.read()), path
