"""Finite posets, pointed posets, and the order-theoretic half of the engine.

A poset is stored as its sorted element names plus one bitmask per element:
bit j of ``up[i]`` is set when elements[i] <= elements[j].  Masks are plain
Python ints, so every order operation below is a handful of word-parallel
ORs, ANDs and popcounts per element instead of lookups in a set of name
pairs, which no operation here or output format reads.

The workhorse is ``pointed_reflection``: the universal thin skeletal
quotient of a preorder given by down-masks, with the lower set of one
element's class identified to a basepoint, built in one pass that names
and orders only the classes that survive.  It reads reachability only: the
down-masks come from a category's morphisms or straight from the walks
behind the slices and parallel arrows, and every homotopy invariant is one
call of it.  Everything else here is supporting machinery: pointed and
monotone maps, and DOT string quoting.  Reports, Hasse diagrams included,
are written by ``homotopy.write_report``.

Every poset carries its cover masks.  ``from_masks`` validates every poset
built here and computes them on the way, as the transitive reduction.  The
one trusted constructor is ``homotopy.powerset_report``: its posets are
orders by construction, so it builds ``Poset`` directly, cover masks
included, and the tests check it against ``from_masks``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from itertools import compress, repeat

from .errors import InvalidMap, InvalidPoset


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


class Poset(namedtuple("Poset", "elements up down_masks cover_masks")):
    """A finite poset: ``elements`` sorted, ``up[i]`` the bitmask of the
    indices j with elements[i] <= elements[j], ``down_masks`` its transpose,
    and ``cover_masks`` the covers of each element: bit j of cover_masks[i]
    set when elements[j] covers elements[i].  The last two follow from
    (elements, up), so equality and hashing, which read all four, compare
    posets by their order.  Build one with ``from_masks`` from up-masks,
    which validates.  ``homotopy.powerset_report`` builds its posets
    directly, unvalidated, and its check lives in the tests."""

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}


def from_masks(elements: tuple[str, ...], up: list[int]) -> Poset:
    """The one poset validator: reflexivity, then antisymmetry, then
    transitivity (for each j in up[i], up[j] inside up[i]), each failure
    reported at its least witness in sort order.  The down-masks and the
    cover masks it computes on the way go into the result: the covers of a
    are its strict up-set minus every element strictly above one of them,
    the transitive reduction (Aho, Garey and Ullman)."""
    for i, e in enumerate(elements):
        if not up[i] >> i & 1:
            raise InvalidPoset(f"not reflexive at {e!r}")
    strict = [u ^ 1 << i for i, u in enumerate(up)]
    down = [1 << i for i in range(len(elements))]
    covers = []
    broken = None  # least (i, j) with up[j] not inside up[i]
    for i, ui in enumerate(up):
        bit, above = 1 << i, 0
        for j in _bits(strict[i]):
            down[j] |= bit
            above |= strict[j]
            if broken is None and up[j] | ui != ui:
                broken = (i, j)
        covers.append(strict[i] & ~above)
    for i, e in enumerate(elements):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            raise InvalidPoset(f"antisymmetry fails on {e!r}, {elements[_low(both)]!r}")
    if broken is not None:
        i, j = broken
        c = elements[_low(up[j] & ~up[i])]
        raise InvalidPoset(f"transitivity fails on {elements[i]!r} <= {elements[j]!r} <= {c!r}")
    return Poset(elements, tuple(up), tuple(down), tuple(covers))


class PointedPoset(namedtuple("PointedPoset", "poset basepoint")):
    __slots__ = ()

    def __init__(self, poset, basepoint):
        if basepoint not in poset.index:
            raise InvalidPoset(f"basepoint {basepoint!r} is not an element")


def _preserves(rows, image: list[int], up: tuple[int, ...]) -> bool:
    """Whether up[image[i]] has bit image[k] for every bit k of each rows[i]."""
    for row, t in zip(rows, image):
        ut = up[t]
        for k in _bits(row):
            if not ut >> image[k] & 1:
                return False
    return True


def make_monotone(source: Poset, target: Poset, mapping: Mapping[str, str]) -> dict[str, str]:
    """Check that mapping is total and monotone, and return it as a dict.
    A map of finite posets is monotone iff it preserves covers (<= is the
    reflexive-transitive closure of covering, and the target order is
    transitive), so the check runs along the source's cover masks.  Only a
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
    if not _preserves(source.cover_masks, image, target.up):
        for i, t in enumerate(image):
            bad = [k for k in _bits(source.up[i]) if not target.up[t] >> image[k] & 1]
            if bad:
                raise InvalidMap(f"order not preserved on {source.elements[i]!r} <= {source.elements[bad[0]]!r}")
    return m


PointedMap = namedtuple("PointedMap", "source target mapping")


def make_pointed(source: PointedPoset, target: PointedPoset, mapping: Mapping[str, str]) -> PointedMap:
    m = make_monotone(source.poset, target.poset, mapping)
    if m[source.basepoint] != target.basepoint:
        raise InvalidMap("basepoint not preserved")
    return PointedMap(source, target, m)


# -- the pointed reflection ------------------------------------------------


def pointed_reflection(names, down: list[int], base: int, basepoint_name: str) -> tuple[PointedPoset, list[str]]:
    """Reflect a preorder on ``names`` given by down-masks (bit j of down[i]
    set when names[j] <= names[i]), reflexive and transitive as given, and
    collapse the lower set of the class of position ``base``, low =
    down[base], to a basepoint: one pass that names and orders only the
    surviving classes.  In a preorder the class of i is the set of elements
    with down-mask down[i], and it is named by its least member: taken in
    name order, the first survivor seen with a mask names its class, so the
    classes come out sorted.  The basepoint is ``basepoint_name``, with
    ``'`` added while a surviving class has that name.  The classes below
    one are read off its down-mask, one least surviving member at a time,
    and the basepoint lies below exactly the classes whose masks meet low.
    ``from_masks`` validates the result.  Returns the pointed poset and
    each position's class, the basepoint for a collapsed one."""
    low = down[base]
    keep = ((1 << len(names)) - 1) & ~low
    members: dict[int, int] = {}  # surviving down-mask -> its members
    elems = []
    for i in sorted(_pick(range(len(names)), keep), key=names.__getitem__):
        d = down[i]
        if d not in members:
            members[d] = 0
            elems.append(names[i])
        members[d] |= 1 << i
    bp = basepoint_name
    taken = set(elems)
    while bp in taken:
        bp += "'"
    at = bisect_left(elems, bp)
    pos = {d: k + (k >= at) for k, d in enumerate(members)}
    up = [0] * (len(elems) + 1)
    up[at] = 1 << at
    for d, k in pos.items():
        bit, rest = 1 << k, d & keep
        if d & low:
            up[at] |= bit
        while rest:
            below = down[_low(rest)]
            up[pos[below]] |= bit
            rest &= ~members[below]
    name_of = dict(zip(members, elems))
    elems.insert(at, bp)
    return PointedPoset(from_masks(tuple(elems), up), bp), list(map(name_of.get, down, repeat(bp)))


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


# -- DOT string literals ---------------------------------------------------


def quote(s: str) -> str:
    """A DOT string literal: backslashes and double quotes escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
