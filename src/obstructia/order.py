"""Finite posets, pointed posets, and the order-theoretic half of the engine.

A poset is stored as its sorted element names plus one bitmask per element:
bit j of ``up[i]`` is set when elements[i] <= elements[j].  Masks are plain
Python ints, so every order operation below is a handful of word-parallel
ORs, ANDs and popcounts per element instead of lookups in a set of name
pairs, which no operation here or output format reads.

The workhorse is ``reflection``: the universal thin skeletal quotient of
a preorder given by down-masks, with the lower set of one element's class
identified to a basepoint, built in one pass that sorts the survivors by
one key each and names only the classes' representatives.  It reads
reachability only: the down-masks come from a category's morphisms or
straight from the walks behind the slices and parallel arrows, and every
homotopy invariant is one call of it.
Everything else here is supporting machinery: pointed and monotone maps,
and DOT string quoting.  Reports, Hasse diagrams included, are written by
``homotopy.write_report``, and read their minimal obstructions off the
cover masks (``homotopy.report_from_pointed``).

Every poset the engine builds carries its cover masks and is an order by
construction, built as ``Poset`` directly: by ``reflection`` (a renamed
reflection reuses the masks kept) and by ``homotopy.powerset_report``.
The tests check each one against the validator they keep,
``oracles.from_masks``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from functools import reduce
from itertools import compress
from operator import or_

from .errors import InvalidMap, InvalidPoset


def _at(seq, m: int) -> list:
    """The items of seq at the set bits of m, ascending, as a list: one
    step per set bit, which appends the item at the low bit's place and
    shifts m past it.  The choice for rows with few bits set, such as cover
    masks; ``_pick`` is its dense partner."""
    out = []
    j = -1
    while m:
        low = (m & -m).bit_length()
        j += low
        out.append(seq[j])
        m >>= low
    return out


def _bits(m: int) -> list[int]:
    """Indices of the set bits of m, ascending."""
    return _at(range(m.bit_length()), m)


# The ASCII digits 0 and 1 as the bytes 0 and 1: a selector for compress.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pick(seq, m: int):
    """The items of seq at the set bits of m, ascending, as an iterator.
    One C-level pass over the binary digits of m, whatever their number:
    the choice for rows with many bits set, such as up-masks.  On a row
    with few, ``_at`` is cheaper, at one step per set bit."""
    return compress(seq, bin(m)[:1:-1].encode("ascii").translate(_DIGIT_BYTES))


# A finite poset: ``elements`` sorted, ``up[i]`` the bitmask of the indices
# j with elements[i] <= elements[j], and ``cover_masks`` the covers of each
# element: bit j of cover_masks[i] set when elements[j] covers elements[i].
# The covers follow from (elements, up), so equality and hashing compare
# posets by their order.  Every poset is built directly, an order by
# construction, and the tests check each against their validator.
Poset = namedtuple("Poset", "elements up cover_masks")


class PointedPoset(namedtuple("PointedPoset", "poset basepoint")):
    __slots__ = ()

    def __init__(self, poset, basepoint):
        if basepoint not in poset.elements:
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
    tindex = {e: i for i, e in enumerate(target.elements)}
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


def reflection(rank, down: list[int], base: int, basepoint_name: str, names, kept=None):
    """Reflect a preorder given by down-masks (bit j of down[i] set when
    element j <= element i), and collapse the lower set of the class of
    position ``base``, low = down[base], to a basepoint: one pass that
    sorts and names only the surviving classes.  ``rank`` is each
    position's sort key, which sorts the elements as their names do, and
    ``names`` names a list of positions.  In a preorder the class of i is
    the set of elements with down-mask down[i], and it is named and
    represented by its least member: the survivors, sorted once, give each
    surviving mask its least member, in order.  Only the representatives
    are named.  The basepoint is ``basepoint_name``, with ``'`` added while
    a class has that name.  The classes below one are the representatives
    in its representative's down-mask, read through one mask with a bit per
    representative, and the basepoint lies below exactly the classes whose
    masks meet low.  The quotient is an order by construction, so its
    ``Poset`` is built directly: the covers of a class are its strict
    up-set minus the strict up-sets of its members, the transitive
    reduction (Aho, Garey and Ullman).  The precondition, met by every
    caller, is reflexive and transitive down-masks (a validated category's
    morphisms, the walks of ``fincat``, the states star); nothing here
    checks it, and on any other input the result is no order.  Returns the
    pointed poset and what to keep: the up- and cover masks and the
    basepoint's place, then the representatives.  The base is read only
    through low, so what is kept holds for every base with that lower set.
    Given ``kept``, taken at these down-masks and lower set under the same
    sort key, its representatives are named and its masks, built there,
    reused, and there is nothing to keep; unless the basepoint sorts to
    another place among the new names, which is reflected afresh."""
    if kept is not None:
        (up, covers, at), reps = kept
        elems = names(reps)
        bp = _free(basepoint_name, elems)
        if bisect_left(elems, bp) == at:
            elems.insert(at, bp)
            return PointedPoset(Poset(tuple(elems), up, covers), bp), None
    low = down[base]
    survivors = sorted(_pick(range(len(down)), ((1 << len(down)) - 1) & ~low), key=rank)
    masks = list(map(down.__getitem__, survivors))
    least = dict(zip(reversed(masks), reversed(survivors)))  # surviving mask -> its least member
    reps = list(map(least.__getitem__, dict.fromkeys(masks)))  # in the order of their least members
    elems = names(reps)
    bp = _free(basepoint_name, elems)
    at = bisect_left(elems, bp)
    elems.insert(at, bp)
    pos = {1 << r: k + (k >= at) for k, r in enumerate(reps)}  # a representative's bit -> its class
    rep_bits = sum(pos)
    up = [0] * len(elems)
    up[at] = 1 << at
    for r, k in zip(reps, pos.values()):
        bit, d = 1 << k, down[r]
        if d & low:
            up[at] |= bit
        below = d & rep_bits
        while below:
            j = below & -below
            up[pos[j]] |= bit
            below ^= j
    strict = [u ^ 1 << i for i, u in enumerate(up)]
    up, covers = tuple(up), tuple(s & ~reduce(or_, _at(strict, s), 0) for s in strict)
    return PointedPoset(Poset(tuple(elems), up, covers), bp), ((up, covers, at), reps)


def _free(name: str, taken: list[str]) -> str:
    """name, with ``'`` added while it is taken."""
    taken = set(taken)
    while name in taken:
        name += "'"
    return name


# -- DOT string literals ---------------------------------------------------


def quote(s: str) -> str:
    """A DOT string literal: backslashes and double quotes escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
