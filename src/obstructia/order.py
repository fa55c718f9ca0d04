"""Finite posets, pointed posets, and the order-theoretic half of the engine.

The two workhorses are ``poset_reflection`` (collapse a finite category to
its universal thin skeletal quotient) and ``collapse_lower`` (identify a
down-closed set to a single basepoint).  The reflection reads reachability
only: one routine reflects a preorder given by down-sets, which come from a
category's morphisms or straight from the parallel arrows behind pi1.  Chaining them is how the homotopy
invariants are computed; everything else here is supporting machinery:
lower sets, transitive reduction, pointed-isomorphism search and a DOT
emitter for Hasse diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import fincat
from .errors import EmptyCollapseSet, InvalidMap, InvalidPoset, NotDownClosed, UnknownObject


@dataclass(frozen=True)
class Poset:
    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def lt(self, a: str, b: str) -> bool:
        return a != b and (a, b) in self.leq

    def down(self, e: str) -> frozenset:
        return frozenset(a for a in self.elements if self.le(a, e))

    def up(self, e: str) -> frozenset:
        return frozenset(b for b in self.elements if self.le(e, b))


def make_poset(elements: Iterable[str], leq: Iterable[tuple[str, str]]) -> Poset:
    """Validate and build; elements are stored sorted so equal posets built
    in different orders compare equal."""
    elems = tuple(sorted(set(elements)))
    elem_set = set(elems)
    rel = frozenset(leq)
    up: dict[str, set] = {e: set() for e in elems}
    for a, b in rel:
        if a not in elem_set or b not in elem_set:
            raise InvalidPoset(f"relation mentions unknown element ({a!r}, {b!r})")
        up[a].add(b)
    for a in elems:
        if a not in up[a]:
            raise InvalidPoset(f"not reflexive at {a!r}")
    for a, b in rel:
        if a != b and (b, a) in rel:
            raise InvalidPoset(f"antisymmetry fails on {a!r}, {b!r}")
    for a in elems:
        ua = up[a]
        for b in ua:
            if not up[b] <= ua:
                c = next(iter(up[b] - ua))
                raise InvalidPoset(f"transitivity fails on {a!r} <= {b!r} <= {c!r}")
    return Poset(elems, rel)


@dataclass(frozen=True)
class PointedPoset:
    poset: Poset
    basepoint: str

    def __post_init__(self):
        if self.basepoint not in self.poset.elements:
            raise InvalidPoset(f"basepoint {self.basepoint!r} is not an element")


@dataclass(frozen=True)
class MonotoneMap:
    source: Poset
    target: Poset
    mapping: dict[str, str]


def make_monotone(source: Poset, target: Poset, mapping: Mapping[str, str]) -> MonotoneMap:
    m = dict(mapping)
    for e in source.elements:
        if e not in m:
            raise InvalidMap(f"element {e!r} not mapped")
        if m[e] not in target.elements:
            raise InvalidMap(f"image {m[e]!r} of {e!r} not in target")
    for a, b in source.leq:
        if not target.le(m[a], m[b]):
            raise InvalidMap(f"order not preserved on {a!r} <= {b!r}")
    return MonotoneMap(source, target, m)


@dataclass(frozen=True)
class PointedMap:
    source: PointedPoset
    target: PointedPoset
    mapping: dict[str, str]


def make_pointed(source: PointedPoset, target: PointedPoset, mapping: Mapping[str, str]) -> PointedMap:
    mono = make_monotone(source.poset, target.poset, mapping)
    if mono.mapping[source.basepoint] != target.basepoint:
        raise InvalidMap("basepoint not preserved")
    return PointedMap(source, target, mono.mapping)


def identity_pointed(pp: PointedPoset) -> PointedMap:
    return make_pointed(pp, pp, {e: e for e in pp.poset.elements})


def compose_pointed(first: PointedMap, second: PointedMap) -> PointedMap:
    if first.target != second.source:
        raise InvalidMap("pointed maps not composable")
    return make_pointed(first.source, second.target, {e: second.mapping[v] for e, v in first.mapping.items()})


# -- poset reflection ------------------------------------------------------


def _reflect(down: Mapping[str, set]) -> tuple[Poset, dict[str, str]]:
    """Reflect a preorder given by the down-set of each element (reflexive
    and transitive as given).  The class of x is down(x) & up(x), named by
    its least member, so the output is reproducible; classes are ordered as
    their members are.  Returns the poset and the element -> class map."""
    class_of: dict[str, str] = {}
    for x, below in down.items():
        class_of[x] = min(a for a in below if x in down[a])
    leq = {(class_of[a], class_of[b]) for b, below in down.items() for a in below}
    return make_poset(class_of.values(), leq), class_of


def poset_reflection(c: fincat.FinCat) -> tuple[Poset, dict[str, str]]:
    """Quotient a finite category to a poset.

    Objects x, y are identified when hom(x, y) and hom(y, x) are both
    non-empty; classes are ordered by existence of a connecting morphism.
    Only the morphisms are read (dom below cod), never the composition
    table.  Returns the poset and the object -> class map.
    """
    down: dict[str, set] = {x: set() for x in c.objects}
    for m in c.morphisms:
        down[m.cod].add(m.dom)
    return _reflect(down)


def lower_closure(p: Poset, s: Iterable[str]) -> frozenset:
    """Least down-closed superset of s."""
    wanted = set(s)
    for e in wanted:
        if e not in p.elements:
            raise UnknownObject(e)
    return frozenset(a for a in p.elements if any(p.le(a, t) for t in wanted))


def collapse_lower(p: Poset, lower: Iterable[str], basepoint_name: str) -> PointedPoset:
    """Collapse a non-empty down-closed set to a fresh basepoint.

    Survivors keep their names and order; the basepoint sits below exactly
    the survivors that some collapsed element was below, and never above
    anything.  Down-closure is what keeps the result antisymmetric.
    """
    l = frozenset(lower)
    if not l:
        raise EmptyCollapseSet("cannot collapse an empty set")
    for e in l:
        if e not in p.elements:
            raise UnknownObject(e)
    if l != lower_closure(p, l):
        raise NotDownClosed(f"{sorted(l)} is not down-closed")

    survivors = [e for e in p.elements if e not in l]
    bp = basepoint_name
    while bp in survivors:
        bp = bp + "'"
    elems = [bp] + survivors
    leq = {(bp, bp)}
    for e in survivors:
        leq.add((e, e))
        if any(p.le(x, e) for x in l):
            leq.add((bp, e))
        for e2 in survivors:
            if p.le(e, e2):
                leq.add((e, e2))
    return PointedPoset(make_poset(elems, leq), bp)


def is_trivial(pp: PointedPoset) -> bool:
    return len(pp.poset.elements) == 1


def minimal_obstructions(pp: PointedPoset) -> frozenset:
    """Minimal elements of the complement of the basepoint."""
    rest = [e for e in pp.poset.elements if e != pp.basepoint]
    return frozenset(e for e in rest if not any(pp.poset.lt(o, e) for o in rest))


def hasse(p: Poset) -> tuple[tuple[str, str], ...]:
    """Transitive reduction: the cover pairs, sorted."""
    strict_up = {a: frozenset(b for b in p.elements if p.lt(a, b)) for a in p.elements}
    covers = []
    for a in p.elements:
        ups = strict_up[a]
        for b in ups:
            if not any(b in strict_up[c] for c in ups):
                covers.append((a, b))
    return tuple(sorted(covers))


# -- pointed order isomorphism search ---------------------------------------


def _signature(p: Poset, e: str) -> tuple[int, int]:
    return (len(p.down(e)), len(p.up(e)))


def iso_pointed(pp1: PointedPoset, pp2: PointedPoset) -> Optional[PointedMap]:
    """Search for a basepoint-preserving order isomorphism.

    Backtracking over elements grouped by (down-set size, up-set size)
    signatures; fine at desk scale (acceptance posets stay well under 50
    elements).  Returns None when no isomorphism exists.
    """
    p1, p2 = pp1.poset, pp2.poset
    if len(p1.elements) != len(p2.elements) or len(p1.leq) != len(p2.leq):
        return None
    if _signature(p1, pp1.basepoint) != _signature(p2, pp2.basepoint):
        return None

    sig2: dict[tuple[int, int], list[str]] = {}
    for e in p2.elements:
        sig2.setdefault(_signature(p2, e), []).append(e)
    candidates: dict[str, list[str]] = {}
    for e in p1.elements:
        if e == pp1.basepoint:
            candidates[e] = [pp2.basepoint]
            continue
        cs = [f for f in sig2.get(_signature(p1, e), []) if f != pp2.basepoint]
        if not cs:
            return None
        candidates[e] = cs

    order = sorted(p1.elements, key=lambda e: (len(candidates[e]), e))
    assignment: dict[str, str] = {}
    used: set = set()

    def consistent(e: str, f: str) -> bool:
        for e2, f2 in assignment.items():
            if p1.le(e, e2) != p2.le(f, f2) or p1.le(e2, e) != p2.le(f2, f):
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        e = order[i]
        for f in candidates[e]:
            if f in used or not consistent(e, f):
                continue
            assignment[e] = f
            used.add(f)
            if backtrack(i + 1):
                return True
            del assignment[e]
            used.remove(f)
        return False

    if not backtrack(0):
        return None
    return make_pointed(pp1, pp2, assignment)


# -- DOT output ------------------------------------------------------------


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def hasse_dot(p, basepoint: Optional[str] = None) -> str:
    """Render a (pointed) poset as a DOT digraph of its cover relation.

    Accepts a Poset or a PointedPoset; the basepoint is drawn double-circled.
    Output ordering is lexicographic everywhere, so it is byte-stable.
    """
    if isinstance(p, PointedPoset):
        basepoint = p.basepoint
        p = p.poset
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in sorted(p.elements):
        shape = "doublecircle" if e == basepoint else "ellipse"
        lines.append(f"  {_quote(e)} [shape={shape}];")
    for a, b in hasse(p):
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
