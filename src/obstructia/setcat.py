"""Finite-Set specialisations.

The powerset fast paths read off the homotopy posets of a function
directly: obstructions to surjectivity are subsets meeting the complement
of the image, obstructions to injectivity are subsets of the kernel pair
meeting its off-diagonal part.  Both are powerset reports, bounded by
``homotopy.POWERSET_CAP`` generators.
"""

from __future__ import annotations

from collections import namedtuple

from . import fincat, homotopy
from .errors import OracleMismatch, ParseError


class FiniteFunction(namedtuple("FiniteFunction", "dom_set cod_set mapping")):
    __slots__ = ()

    def __new__(cls, dom_set, cod_set, mapping):
        for labels in (dom_set, cod_set):
            if len(set(labels)) != len(labels):
                raise ParseError(f"duplicate element labels in {tuple(labels)!r}")
        dom = tuple(sorted(dom_set))
        cod = tuple(sorted(cod_set))
        for x in dom:
            if x not in mapping:
                raise ParseError(f"function undefined on {x!r}")
        for x, y in mapping.items():
            if x not in dom:
                raise ParseError(f"mapping defined on stray element {x!r}")
            if y not in cod:
                raise ParseError(f"value {y!r} of {x!r} outside codomain")
        return super().__new__(cls, dom, cod, mapping)

    def image(self) -> frozenset:
        return frozenset(self.mapping.values())


class KernelPair(namedtuple("KernelPair", "pairs")):
    """The pullback of a function along itself: all pairs with equal image.
    Always an equivalence relation, which the constructor re-checks on the
    rows R(x) = {y : (x, y)}: x in R(x), x in R(y) for each (x, y), and
    R(y) inside R(x) for each (x, y)."""

    __slots__ = ()

    def __init__(self, pairs):
        rows: dict[str, set] = {}
        for x, y in pairs:
            rows.setdefault(x, set()).add(y)
            rows.setdefault(y, set())
        for x, row in sorted(rows.items()):
            if x not in row:
                raise OracleMismatch(f"kernel pair misses diagonal at {x!r}")
        for x, y in sorted(pairs):
            if x not in rows[y]:
                raise OracleMismatch(f"kernel pair not symmetric at ({x!r}, {y!r})")
        for x, y in pairs:
            if not rows[y] <= rows[x]:
                raise OracleMismatch("kernel pair not transitive")


def kernel_pair(f: FiniteFunction) -> KernelPair:
    fibres: dict[str, list[str]] = {}
    for x in f.dom_set:
        fibres.setdefault(f.mapping[x], []).append(x)
    return KernelPair(frozenset((x0, x1) for fibre in fibres.values() for x0 in fibre for x1 in fibre))


# -- powerset fast paths -------------------------------------------------------


def pi0_function(f: FiniteFunction) -> homotopy.ObstructionReport:
    """Obstructions to surjectivity: the basepoint (everything at or below
    the image) plus all subsets of the codomain that stick out of the image,
    ordered by inclusion.  Minimal obstructions are the singletons over
    missed elements."""
    return homotopy.powerset_report(
        f.cod_set,
        f.image(),
        "{}",
        f"pi0 of function into {homotopy.subset_name(f.cod_set)}",
    )


def pi1_function(f: FiniteFunction) -> homotopy.ObstructionReport:
    """Obstructions to injectivity: subsets of the kernel pair containing an
    off-diagonal pair, ordered by inclusion over a basepoint."""
    universe = [fincat.pair_name(*p) for p in kernel_pair(f).pairs]
    diagonal = [fincat.pair_name(x, x) for x in f.dom_set]
    return homotopy.powerset_report(
        universe,
        diagonal,
        "{}",
        "pi1 of function over its kernel pair",
    )


# -- text format -----------------------------------------------------------------
#
#   fn <name> : {a,b} -> {c,d} ; a=>c, b=>c


def _parse_set(text: str) -> tuple[str, ...]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected a {{...}} set, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    items = tuple(part.strip() for part in inner.split(","))
    seen = set()
    for x in items:
        if not x:
            raise ParseError(f"empty element in set {text!r}")
        if x in seen:
            raise ParseError(f"element {x!r} repeated in set {text!r}")
        seen.add(x)
    return items


def parse_function(text: str) -> tuple[str, FiniteFunction]:
    """Parse the one-line function format; returns (name, function)."""
    line = None
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            if line is not None:
                raise ParseError("more than one function declaration")
            line = stripped
    if line is None:
        raise ParseError("no function declaration found")
    if not line.startswith("fn "):
        raise ParseError("function line must start with 'fn'")
    rest = line[3:]
    if ";" in rest:
        head, assignments = rest.split(";", 1)
    else:
        head, assignments = rest, ""
    try:
        name_part, arrow_part = head.split(":", 1)
        dom_text, cod_text = arrow_part.split("->", 1)
    except ValueError:
        raise ParseError(f"cannot parse function line {line!r}")
    name = name_part.strip()
    if not name:
        raise ParseError(f"empty function name in {line!r}")
    dom, cod = _parse_set(dom_text), _parse_set(cod_text)
    return name, FiniteFunction(dom, cod, parse_assignments(assignments))


def parse_assignments(text: str) -> dict[str, str]:
    """Parse 'a=>c, b=>c' (empty for blank text); an element assigned
    twice is a ParseError."""
    mapping = {}
    for part in text.split(",") if text.strip() else ():
        if "=>" not in part:
            raise ParseError(f"bad assignment {part!r}")
        x, y = (side.strip() for side in part.split("=>", 1))
        if x in mapping:
            raise ParseError(f"element {x!r} assigned twice")
        mapping[x] = y
    return mapping
