"""Finite posets, pointed posets, and the order-theoretic half of the engine.

A poset is stored as its sorted element names plus one bitmask per element:
bit j of ``up[i]`` is set when elements[i] <= elements[j].  Masks are plain
Python ints, so every order operation below is a handful of word-parallel
ORs, ANDs and popcounts per element instead of lookups in a set of name
pairs; the pairs themselves (``Poset.leq``) are derived on first read, and
no operation here or output format reads them.

The two workhorses are ``poset_reflection`` (collapse a finite category to
its universal thin skeletal quotient) and ``collapse_lower`` (identify a
down-closed set to a single basepoint).  The reflection reads reachability
only: one routine reflects a preorder given by down-sets, which come from a
category's morphisms or straight from the parallel arrows behind pi1.
Chaining them is how the homotopy invariants are computed; everything else
here is supporting machinery: lower sets, transitive reduction (``covers``),
pointed and monotone maps, and DOT string quoting.  Reports, Hasse diagrams
included, are written by ``homotopy.write_report``.

``from_masks`` validates every poset built here.  The one trusted
constructor is ``homotopy.powerset_report``: its posets are orders by
construction, so it builds ``Poset`` directly, cover masks included, and the
tests check it against ``from_masks`` and the general reduction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Optional

from . import fincat
from .errors import EmptyCollapseSet, InvalidMap, InvalidPoset, NotDownClosed, UnknownObject


def _bits(m: int) -> list[int]:
    """Indices of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


# The ASCII digits 0 and 1 as the bytes 0 and 1: a selector for compress.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pick(seq, m: int):
    """The items of seq at the set bits of m, ascending, as an iterator.
    One C-level pass over the binary digits of m, whatever their number:
    the choice for rows with many bits set, such as up-masks.  On a row
    with few, ``_bits`` is cheaper, at one step per set bit."""
    return compress(seq, bin(m)[:1:-1].encode("ascii").translate(_DIGIT_BYTES))


def _low(m: int) -> int:
    """Index of the lowest set bit of a non-zero m."""
    return (m & -m).bit_length() - 1


def _union(masks, m: int) -> int:
    """OR of masks[i] over the set bits i of m."""
    out = 0
    for i in _bits(m):
        out |= masks[i]
    return out


@dataclass(frozen=True)
class Poset:
    """A finite poset: ``elements`` sorted, ``up[i]`` the bitmask of the
    indices j with elements[i] <= elements[j], ``down_masks`` its transpose,
    and ``cover_masks``, when known, the covers of each element (read them
    through ``covers``).  Equality and hashing read (elements, up) only.
    Build one with ``from_masks`` from up-masks, which validates.
    ``homotopy.powerset_report`` builds its posets directly, unvalidated,
    and its check lives in the tests."""

    elements: tuple[str, ...]
    up: tuple[int, ...]
    down_masks: tuple[int, ...] = field(compare=False, repr=False)
    cover_masks: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def leq(self) -> frozenset[tuple[str, str]]:
        """The order as a set of name pairs (a, b) with a <= b."""
        e = self.elements
        return frozenset((e[i], e[j]) for i, ui in enumerate(self.up) for j in _bits(ui))

    def le(self, a: str, b: str) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and bool(self.up[i] >> j & 1)

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.le(a, b)

    def down(self, e: str) -> frozenset:
        i = self.index.get(e)
        return frozenset() if i is None else self._names(self.down_masks[i])

    def _names(self, m: int) -> frozenset:
        return frozenset(self.elements[i] for i in _bits(m))


def from_masks(elements: tuple[str, ...], up: list[int]) -> Poset:
    """The one poset validator: reflexivity, then antisymmetry, then
    transitivity (for each j in up[i], up[j] inside up[i]), each failure
    reported at its least witness in sort order.  The down-masks it computes
    on the way go into the result."""
    for i, e in enumerate(elements):
        if not up[i] >> i & 1:
            raise InvalidPoset(f"not reflexive at {e!r}")
    down = [0] * len(elements)
    broken = None  # least (i, j) with up[j] not inside up[i]
    for i, ui in enumerate(up):
        bit = 1 << i
        for j in _bits(ui):
            down[j] |= bit
            if broken is None and up[j] | ui != ui:
                broken = (i, j)
    for i, e in enumerate(elements):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            raise InvalidPoset(f"antisymmetry fails on {e!r}, {elements[_low(both)]!r}")
    if broken is not None:
        i, j = broken
        c = elements[_low(up[j] & ~up[i])]
        raise InvalidPoset(f"transitivity fails on {elements[i]!r} <= {elements[j]!r} <= {c!r}")
    return Poset(elements, tuple(up), tuple(down))


@dataclass(frozen=True)
class PointedPoset:
    poset: Poset
    basepoint: str

    def __post_init__(self):
        if self.basepoint not in self.poset.index:
            raise InvalidPoset(f"basepoint {self.basepoint!r} is not an element")


@dataclass(frozen=True)
class MonotoneMap:
    source: Poset
    target: Poset
    mapping: dict[str, str]


def _preserves(rows, image: list[int], up: tuple[int, ...]) -> bool:
    """Whether up[image[i]] has bit image[k] for every bit k of each rows[i]."""
    for row, t in zip(rows, image):
        ut = up[t]
        for k in _bits(row):
            if not ut >> image[k] & 1:
                return False
    return True


def make_monotone(source: Poset, target: Poset, mapping: Mapping[str, str]) -> MonotoneMap:
    """Check that mapping is total and monotone.  A map of finite posets is
    monotone iff it preserves covers (<= is the reflexive-transitive closure
    of covering, and the target order is transitive), so the check runs
    along the source's stored cover masks, or else its up-masks.  Only a
    failure scans every pair, to name the least broken one in sort order."""
    m = dict(mapping)
    tindex = target.index
    image = []
    for e in source.elements:
        if e not in m:
            raise InvalidMap(f"element {e!r} not mapped")
        if m[e] not in tindex:
            raise InvalidMap(f"image {m[e]!r} of {e!r} not in target")
        image.append(tindex[m[e]])
    rows = source.up if source.cover_masks is None else source.cover_masks
    if not _preserves(rows, image, target.up):
        for i, t in enumerate(image):
            bad = [k for k in _bits(source.up[i]) if not target.up[t] >> image[k] & 1]
            if bad:
                raise InvalidMap(f"order not preserved on {source.elements[i]!r} <= {source.elements[bad[0]]!r}")
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


def _reflect(names, down: list[int]) -> tuple[Poset, dict[str, str]]:
    """Reflect a preorder on ``names`` given by down-masks (bit j of down[i]
    set when names[j] <= names[i]), reflexive and transitive as given.  The
    class of i is down[i] & up[i], which in a preorder is the set of
    elements with the same down-mask; it is named by its least member, so
    the output is reproducible, and classes are ordered as their members
    are: the classes below one are read off its down-mask, one least member
    at a time.  Returns the poset and the name -> class map."""
    members: dict[int, int] = {}  # down-mask -> the class having it
    for i, d in enumerate(down):
        members[d] = members.get(d, 0) | 1 << i
    cls = {d: min(names[j] for j in _bits(m)) for d, m in members.items()}
    elems = tuple(sorted(cls.values()))
    index = {e: i for i, e in enumerate(elems)}
    up = [0] * len(elems)
    for d in members:
        bit, rest = 1 << index[cls[d]], d
        while rest:
            below = down[_low(rest)]
            up[index[cls[below]]] |= bit
            rest &= ~members[below]
    return from_masks(elems, up), {e: cls[d] for e, d in zip(names, down)}


def poset_reflection(c: fincat.FinCat) -> tuple[Poset, dict[str, str]]:
    """Quotient a finite category to a poset.

    Objects x, y are identified when hom(x, y) and hom(y, x) are both
    non-empty; classes are ordered by existence of a connecting morphism.
    Only the morphisms are read (dom below cod), never the composition
    table.  Returns the poset and the object -> class map.
    """
    index = {x: i for i, x in enumerate(c.objects)}
    down = [0] * len(index)
    for m in c.morphisms:
        down[index[m.cod]] |= 1 << index[m.dom]
    return _reflect(c.objects, down)


def _mask(p: Poset, names: Iterable[str]) -> int:
    """The bitmask of a set of element names; the least unknown name raises."""
    index = p.index
    names = set(names)
    unknown = [e for e in names if e not in index]
    if unknown:
        raise UnknownObject(min(unknown))
    return sum(1 << index[e] for e in names)


def lower_closure(p: Poset, s: Iterable[str]) -> frozenset:
    """Least down-closed superset of s."""
    return p._names(_union(p.down_masks, _mask(p, s)))


def collapse_lower(p: Poset, lower: Iterable[str], basepoint_name: str) -> PointedPoset:
    """Collapse a non-empty down-closed set to a fresh basepoint.

    Survivors keep their names and order; the basepoint sits below exactly
    the survivors that some collapsed element was below, and never above
    anything.  Down-closure is what keeps the result antisymmetric.
    """
    l = frozenset(lower)
    if not l:
        raise EmptyCollapseSet("cannot collapse an empty set")
    lm = _mask(p, l)
    if _union(p.down_masks, lm) != lm:
        raise NotDownClosed(f"{sorted(l)} is not down-closed")

    keep = ((1 << len(p.elements)) - 1) & ~lm
    old = _bits(keep)
    survivors = [p.elements[i] for i in old]
    bp = basepoint_name
    while bp in p.index and keep >> p.index[bp] & 1:
        bp = bp + "'"
    at = bisect_left(survivors, bp)
    elems = tuple(survivors[:at] + [bp] + survivors[at:])
    new_bit = {i: 1 << (k + (k >= at)) for k, i in enumerate(old)}

    def moved(m: int) -> int:
        return sum(new_bit[i] for i in _bits(m & keep))

    up = [moved(p.up[i]) for i in old]
    up.insert(at, 1 << at | moved(_union(p.up, lm)))
    return PointedPoset(from_masks(elems, up), bp)


def is_trivial(pp: PointedPoset) -> bool:
    return len(pp.poset.elements) == 1


def minimal_obstructions(pp: PointedPoset) -> frozenset:
    """Minimal elements of the complement of the basepoint: those whose
    strict down-set is empty or just the basepoint.  Such a down-set has at
    most two bits, which rules out most elements by one popcount."""
    p = pp.poset
    bi = p.index[pp.basepoint]
    b = 1 << bi
    few = compress(range(len(p.elements)), map((3).__gt__, map(int.bit_count, p.down_masks)))
    return frozenset(p.elements[i] for i in few if i != bi and (p.down_masks[i] & ~(1 << i)) in (0, b))


def covers(p: Poset) -> tuple[int, ...]:
    """Bit j of covers(p)[i] set when elements[j] covers elements[i]: the
    stored cover masks, or else the transitive reduction (Aho, Garey and
    Ullman): the covers of a are its strict up-set minus every element
    strictly above one of them."""
    if p.cover_masks is not None:
        return p.cover_masks
    strict_up = [u & ~(1 << i) for i, u in enumerate(p.up)]
    return tuple(su & ~_union(strict_up, su) for su in strict_up)


# -- DOT string literals ---------------------------------------------------


def quote(s: str) -> str:
    """A DOT string literal: backslashes and double quotes escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
