"""Zeroth and first homotopy posets of a pointed finite category.

pi0 is the pointed reflection of the objects' reachability preorder: the
poset reflection with the lower set of the chosen object's class collapsed
to a basepoint, built in one pass by ``order.reflection``; pi1 is pi0 of
the category of parallel arrows over the object, pointed at the pair of
identities.  As pi0 reads reachability only, every other invariant
points the reachability preorder of a category of elements of c, handed
over by one walk, and none is materialised: the slice C/y at f: x -> y is
read off the morphisms into y (pi0) and the pairs into x that f equalises
(pi1).  Non-basepoint elements rank the obstructions: to weak terminality
for pi0, to subterminality for pi1.

Where pi_i is read, at an object x or at a slice object f: x -> y, is one
fact, ``_end``: the walk, the base element's position and the point name.
``pi0``, ``pi1`` and ``analyze_morphism`` read it, and so does each flow
(along a morphism, along a functor, and along a natural transformation
over a morphism of the domain), one call of ``_flow`` on two ends.  Every
element key is a tuple, (y,) for an object y, (h,) for a slice object and
(h0, h1) for a pair, so a flow moves any key position by position.  Every
walk is read through the walk memo ``fincat._WALKS``, so ends and ops on one
category share it by key: the slice over y by y, the pairs into x that f
equalises by the partition h |-> h;f induces on hom(-, x), which pi1 at x
shares with every f of constant kernel, and the objects' preorder by 0.
Only the names and the pointing depend on f.  In a ranked walk
(``fincat._apart``) an element sorts by its position, whatever f, so
the memo keeps each reflection's representatives and masks by walk and
lower set: the reflection reads its base only as the lower set of the
base's class, so every f in one class of a slice shares it.
Every later call there names only those representatives and reuses the
masks, unless its basepoint sorts to another place (``order.reflection``);
``report_from_pointed`` still checks every report.  A flow points each
end once, names its keys on demand, and reads the class of each target
key off the target's reflection (``_classes``, the one class list built).
Like every flow, it is built by ``induced_map``: it maps class
representatives, sends collapsed images to the basepoint, and then
*checks* the result to be monotone, along the covers of the source poset,
and basepoint-preserving, so a broken table shows up as an error instead
of a silently wrong poset.

A powerset report, pi0 or pi1 of a function and either laxator, is fixed
by its description: the universe, its collapsed part, the basepoint and
the context.  ``powerset_report`` keeps the last one it built by that key
(``_KEPT``), so a function shown in a second format reuses its report.

``write_report`` is the one writer of a report, as text, as a DOT Hasse
diagram or as an interchange document.  Every list of name pairs in them
(text and DOT covers, interchange ``covers`` and ``leq``) comes from one
row generator, one ``str.join`` per element's row.
"""

from __future__ import annotations

from _thread import RLock
from collections import namedtuple
from collections.abc import Iterable
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import and_, eq, or_, rshift

from . import fincat, order
from .errors import CapExceeded, InvalidPoset, OracleMismatch, UnknownObject

# Generators past which no powerset poset is built (it has up to 2^n elements).
POWERSET_CAP = 12
# Translations of a byte to the digit 1 or 0: _BIT[i] reads its bit i,
# _ONLY[k] whether it is k.
_BIT = [bytes(48 + (j >> i & 1) for j in range(256)) for i in range(8)]
_ONLY = [bytes(48 + (j == k) for j in range(256)) for k in range(POWERSET_CAP + 2)]


ObstructionReport = namedtuple("ObstructionReport", "invariant minimal trivial context")
MorphismAnalysis = namedtuple("MorphismAnalysis", "pi0 pi1 split_epi mono iso")


def report_from_pointed(pp: order.PointedPoset, context: str) -> ObstructionReport:
    """The report of a pointed poset: its minimal obstructions and whether
    it is trivial, under ``context``.  Both read one OR of the cover masks
    of the non-basepoint elements.  The basepoint covers one of them iff
    one lies below it, so it is minimal, as it must be, iff it is outside
    the OR; then the elements outside it are the minimal ones, as a chain
    up from a non-basepoint element never passes the basepoint.  Only a
    basepoint inside it is searched for through the up-masks, and
    OracleMismatch names the least element below it."""
    p = pp.poset
    b = p.elements.index(pp.basepoint)
    cov = p.cover_masks
    covering = reduce(or_, cov[:b], 0) | reduce(or_, cov[b + 1 :], 0)
    if covering >> b & 1:
        below = next(i for i, u in enumerate(p.up) if i != b and u >> b & 1)
        raise OracleMismatch(f"basepoint fails minimality below {p.elements[below]!r}")
    minimal = ((1 << len(cov)) - 1) & ~covering & ~(1 << b)
    return ObstructionReport(pp, frozenset(order._at(p.elements, minimal)), len(cov) == 1, context)


# -- the two invariants ------------------------------------------------------


def _object_preorder(c: fincat.FinCat):
    index = {y: i for i, y in enumerate(c.objects)}
    down = [0] * len(index)
    for m in c.morphisms:
        down[index[m.cod]] |= 1 << index[m.dom]
    return list(zip(c.objects)), down


def _end(c: fincat.FinCat, i: int, x: str, f: str | None = None):
    """Where pi_i is read: at the object x, or, given f: x -> y, at the
    slice object f, read off c (pi0 on the slice over y, pi1 on the pairs
    into x that f equalises).  Returns the walk, a ``fincat.Walk``, then
    the base element's position in it and the point name.  Every key is a
    tuple: (y,) for an object y of the objects' preorder, read from
    ``fincat._WALKS`` at the key 0, and a tuple of positions for an element
    of hom(-, x)^k."""
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    if i == 0 and f is None:
        if not c.has_object(x):
            raise UnknownObject(x)
        walk, _ = fincat._WALKS.get(c, 0, lambda: _object_preorder(c))
        return fincat.Walk(*walk, c.objects.__getitem__, fincat._read(c.objects), (c, 0, True)), c.objects.index(x), x
    if i == 0:
        return *fincat._elements_preorder(c, c.cod(f), 1, c.index[f]), f
    return *fincat._elements_preorder(c, x, 2, c.index[c.id_of(x)], f), x if f is None else f


def _pi_at(end, i: int) -> ObstructionReport:
    """pi_i at an ``_end``: the pointed reflection of its walk at the base
    element, pointed at [point], kept by the base's lower set."""
    walk, base, point = end
    pp = fincat._WALKS.reflect(walk.at, walk.down[base], lambda kept: order.reflection(walk.rank, walk.down, base, f"[{point}]", walk.names, kept))
    return report_from_pointed(pp, f"pi{i} at object {point!r}")


def pi0(c: fincat.FinCat, x: str) -> ObstructionReport:
    """Pointed poset of obstructions to weak terminality of x."""
    return _pi_at(_end(c, 0, x), 0)


def pi1(c: fincat.FinCat, x: str) -> ObstructionReport:
    """Pointed poset of obstructions to subterminality of x.  Refuses with
    SizeCapExceeded past ``fincat.OBJECTS_CAP`` parallel pairs over x."""
    return _pi_at(_end(c, 1, x), 1)


# -- terminality oracles (independent of the poset machinery) ----------------


def is_weak_terminal(c: fincat.FinCat, x: str) -> bool:
    if not c.has_object(x):
        raise UnknownObject(x)
    return all(c.hom(y, x) for y in c.objects)


def is_subterminal(c: fincat.FinCat, x: str) -> bool:
    if not c.has_object(x):
        raise UnknownObject(x)
    return all(len(c.hom(y, x)) <= 1 for y in c.objects)


def is_terminal(c: fincat.FinCat, x: str) -> bool:
    if not c.has_object(x):
        raise UnknownObject(x)
    return all(len(c.hom(y, x)) == 1 for y in c.objects)


# -- induced maps -------------------------------------------------------------


def induced_map(src: ObstructionReport, dst: ObstructionReport, image_class) -> order.PointedMap:
    """Send each non-basepoint element e of src to the class image_class(e)
    of dst, or to dst's basepoint when that class was collapsed, and check
    that the result is monotone and basepoint-preserving."""
    targets = set(dst.invariant.poset.elements)
    mapping = {src.invariant.basepoint: dst.invariant.basepoint}
    for e in src.invariant.poset.elements:
        if e == src.invariant.basepoint:
            continue
        cls = image_class(e)
        mapping[e] = cls if cls in targets else dst.invariant.basepoint
    return order.make_pointed(src.invariant, dst.invariant, mapping)


def _classes(walk: fincat.Walk, pp: order.PointedPoset) -> list[str]:
    """The class of each element of a walk in pp, its pointed reflection,
    in walk order: the basepoint for a collapsed one, else its class's
    least member, the one member named in pp, as a walk's names are
    distinct and the basepoint is named apart from every class."""
    named = set(pp.poset.elements) - {pp.basepoint}
    name_of = {d: name for name, d in zip(walk.names(range(len(walk.down))), walk.down) if name in named}
    return list(map(name_of.get, walk.down, repeat(pp.basepoint)))


def _flow(i: int, src_end, dst_end, move) -> order.PointedMap:
    """The map from pi_i at one ``_end`` to pi_i at the other: an element
    goes to the class of its key moved position by position, read off one
    key -> class dict of the target end (``_classes``)."""
    src, dst = _pi_at(src_end, i), _pi_at(dst_end, i)
    walk, target = src_end[0], dst_end[0]
    key_of, lookup = dict(zip(walk.names(range(len(walk.keys))), walk.keys)), dict(zip(target.keys, _classes(target, dst.invariant)))
    return induced_map(src, dst, lambda e: lookup[tuple(map(move, key_of[e]))])


def pi_object_action(c: fincat.FinCat, f: str, i: int) -> order.PointedMap:
    """Covariant action of a morphism f: x -> y on pi_i(-, x) -> pi_i(-, y).

    For i = 0 a surviving class keeps its name unless it acquires a morphism
    into y, in which case it lands on the basepoint.  For i = 1 a pair class
    maps to the class of the postcomposed pair.
    """
    x, y = c.dom(f), c.cod(f)
    move = (lambda z: z) if i == 0 else c.rows[c.index[f]].__getitem__
    return _flow(i, _end(c, i, x), _end(c, i, y), move)


def pi_functor_map(functor: fincat.FunctorData, x: str, i: int) -> order.PointedMap:
    """Component at x of the transformation pi_i(C, -) => pi_i(D, F-)."""
    if not functor.source.has_object(x):
        raise UnknownObject(x)
    c, d = functor.source, functor.target
    move = functor.obj_map if i == 0 else [d.index[functor.mor_map[m.name]] for m in c.morphisms]
    return _flow(i, _end(c, i, x), _end(d, i, functor.obj_map[x]), move.__getitem__)


def covariance_map(alpha: fincat.NatTransData, f: str, i: int) -> order.PointedMap:
    """Flow of obstructions of a natural transformation along f: x -> y.

    Maps pi_i(D/Gx, alpha_x) to pi_i(D/Gy, alpha_y), read off D as in
    ``analyze_morphism``, by postcomposition with Gf on morphisms into Gx
    (componentwise with Ff on the pairs into Fx when i = 1).  Naturality of
    alpha is what makes the basepoint land on the basepoint; the
    construction re-checks that instead of assuming it.
    """
    F, G = alpha.source, alpha.target
    c, d = F.source, F.target
    x, y = c.dom(f), c.cod(f)
    ends = (_end(d, i, F.obj_map[z], alpha.components[z]) for z in (x, y))
    post = d.rows[d.index[(F if i else G).mor_map[f]]]
    return _flow(i, *ends, post.__getitem__)


# -- morphism classification ---------------------------------------------------


def analyze_morphism(c: fincat.FinCat, f: str) -> MorphismAnalysis:
    """Classify f through the homotopy posets of its slice over cod f, read
    off c: f is split epi iff pi0 there is trivial, and mono iff pi1 is.
    The slice and the pairs f equalises are guarded as in ``pi1``."""
    x = c.dom(f)
    r0 = _pi_at(_end(c, 0, x, f), 0)
    r1 = _pi_at(_end(c, 1, x, f), 1)
    return MorphismAnalysis(r0, r1, r0.trivial, r1.trivial, r0.trivial and r1.trivial)


# -- powerset-shaped reports --------------------------------------------------


def subset_name(items: Iterable[str]) -> str:
    return "{" + ",".join(sorted(items)) + "}"


class _KeptReport:
    """The last report ``powerset_report`` built, as one pair (key, report)
    replaced whole, so no thread reads one call's key with another's
    report; ``hits`` counts the calls it answered since it was built, and
    ``misses`` the others, refusals among them.  Each count holds the
    lock.  The report is shared by every caller of its key and, like every
    record, cannot be written to."""

    __slots__ = ("last", "hits", "misses", "lock")

    def __init__(self):
        self.last, self.hits, self.misses, self.lock = (None, None), 0, 0, RLock()


_KEPT = _KeptReport()


def powerset_report(universe: Iterable[str], collapsed: Iterable[str], basepoint: str, context: str) -> ObstructionReport:
    """Inclusion-ordered report: basepoint below everything, survivors are
    the subsets that meet the free part F, the universe minus the collapsed
    set.  Refuses with InvalidPoset when a generator is named twice or two
    elements would render alike, with UnknownObject when a collapsed name is
    not a generator, and with CapExceeded past POWERSET_CAP generators,
    before any subset is built.

    The report is a function of its description (the universe's names in
    order, the collapsed names as a set, the basepoint and the context),
    so the last one built is kept by that key in ``_KEPT`` until the next
    report is built, and a call with an equal key returns it: a function
    shown in a second format builds its report once.  A call that raises
    keeps nothing, so a refusal raises alike on every call.

    Subsets are bitmasks over the sorted universe, the basepoint standing
    in for the empty one, and the poset is an order by construction, so it
    is built directly, as every poset of the engine is.  In a Boolean
    lattice up(S) is the intersection of the up({i}), i in S (Davey and
    Priestley).  So once the elements are sorted, per-generator masks over
    their positions are read off at C speed, one byte translation each:
    has[i], the elements that contain generator i.  Then
    up(S) = up(S - top) & has[top], and the covers of S are
    up(S) & next_size[|S|], the elements of one generator more: one AND
    each per subset, built a list at a time.
    """
    given, coll = tuple(universe), frozenset(collapsed)
    key, kept = (given, coll, basepoint, context), _KEPT
    with kept.lock:
        last_key, last = kept.last
        hit = last_key == key
        kept.hits, kept.misses = kept.hits + hit, kept.misses + (not hit)
    if hit:
        return last
    uni = sorted(given)
    if any(map(eq, uni, islice(uni, 1, None))):
        raise InvalidPoset(f"two generators render as {next(a for a, b in zip(uni, uni[1:]) if a == b)!r}")
    n = len(uni)
    if n > POWERSET_CAP:
        raise CapExceeded(f"powerset of {n} generators exceeds cap {POWERSET_CAP}")
    index = dict(zip(uni, range(n)))
    unknown = coll - index.keys()
    if unknown:
        raise UnknownObject(min(unknown))
    full = (1 << n) - 1
    free = full & ~sum(1 << index[c] for c in coll)

    # names[S] lists the generators of S in index order, grown from the name
    # of S without its top generator.  uni is sorted, so index order is name
    # order, and an empty generator still takes its comma: {'', 'a'} is {,a}.
    # Sorted by name, the subsets that meet F and the empty one, which names
    # the basepoint, give the subset at each position.
    names = [basepoint]
    for u in uni:
        last = "," + u + "}"
        names += ["{" + u + "}", *[q[:-1] + last for q in names[1:]]]
    masks = sorted(compress(range(full + 1), chain((1,), map(free.__and__, range(1, full + 1)))), key=names.__getitem__)
    elems = tuple(map(names.__getitem__, masks))
    if any(map(eq, elems, islice(elems, 1, None))):
        raise InvalidPoset(f"two elements render as {next(a for a, b in zip(elems, elems[1:]) if a == b)!r}")

    # One byte per position, last position first, translated to the binary
    # digits of a mask: the subsets' low and high bytes give has[i], their
    # bit counts next_size[k], the elements of k + 1 generators.
    rev = masks[::-1]
    octets = [bytes(rev)] if n <= 8 else [bytes(map(and_, rev, repeat(255))), bytes(map(rshift, rev, repeat(8)))]
    counts = bytes(map(int.bit_count, rev))
    next_size = [int(counts.translate(t), 2) for t in _ONLY[1 : n + 2]]
    every = (1 << len(elems)) - 1
    up = [every]  # by subset
    for i in range(n):
        has = int(octets[i >> 3].translate(_BIT[i & 7]), 2)
        up += [m & has for m in up]
    ups = tuple(map(up.__getitem__, masks))
    covers = map(and_, ups, map(next_size.__getitem__, reversed(counts)))
    p = order.Poset(elems, ups, tuple(covers))
    r = report_from_pointed(order.PointedPoset(p, basepoint), context)
    kept.last = key, r
    return r


# -- rendering ----------------------------------------------------------------


def _rows(names, masks, pre: str, mid: str, glue: str, end: str, sep: str, pick):
    """For each non-empty masks[i], three strings: lead + head, then
    (glue + head).join(pick(names, masks[i])), then end, with head = pre +
    names[i] + mid and lead sep on every row but the first.  The pairs are
    one C-level ``str.join``, copied once more only by the write: a
    ``powerset`` report of 10 generators has 52,266 ``leq`` pairs in about
    1,000 rows.  Cover rows hold a few bits of many, so pick=``order._at``
    reads them one set bit at a time; up-mask rows are dense, and
    pick=``order._pick`` reads them in one pass over their binary digits."""
    lead = ""
    for i, m in enumerate(masks):
        if m:
            head = pre + names[i] + mid
            yield lead + head
            yield (glue + head).join(pick(names, m))
            yield end
            lead = sep


def write_report(r: ObstructionReport, fmt: str, out) -> None:
    """Write r to out as ``text`` (one "key: value" line each for context,
    trivial flag, basepoint, elements, minimal obstructions and covers),
    ``dot`` (the Hasse diagram, the basepoint double-circled) or
    ``interchange``: the bytes of ``json.dumps(doc, sort_keys=True,
    indent=2)`` and a newline, where doc holds version, kind, context,
    basepoint, the elements and their count, the order ``leq`` and the
    ``covers`` as sorted name pairs, the sorted minimal obstructions and the
    trivial flag.  Each name is DOT-quoted or JSON-encoded once, and each
    element's row of pairs goes to out in three writes: head, pairs, end."""
    pp = r.invariant
    p = pp.poset
    cov = p.cover_masks
    if fmt == "text":
        head = (
            f"context: {r.context}\ntrivial: {'yes' if r.trivial else 'no'}\nbasepoint: {pp.basepoint}\n"
            f"elements ({len(p.elements)}): " + ", ".join(p.elements) + "\n"
            f"minimal obstructions ({len(r.minimal)}): " + ", ".join(sorted(r.minimal)) + "\n"
            f"covers ({sum(map(int.bit_count, cov))}): "
        )
        parts = ((head,), _rows(p.elements, cov, "", " < ", "; ", "", "; ", order._at), ("\n",))
    elif fmt == "dot":
        q = [order.quote(e) for e in p.elements]
        b = p.elements.index(pp.basepoint)
        nodes = "".join(f"  {e} [shape={'doublecircle' if i == b else 'ellipse'}];\n" for i, e in enumerate(q))
        parts = (("digraph hasse {\n  rankdir=BT;\n" + nodes,), _rows(q, cov, "  ", " -> ", ";\n", ";\n", "", order._at), ("}\n",))
    elif fmt == "interchange":
        import json  # here only, so text and DOT runs never load it

        enc = [json.dumps(e) for e in p.elements]
        low = [json.dumps(e) for e in sorted(r.minimal)]
        pair = ("\n    [\n      ", ",\n      ", "\n    ],", "\n    ]", ",")  # a list of [name, name] at depth 1
        parts = (
            (f'{{\n  "basepoint": {json.dumps(pp.basepoint)},\n  "context": {json.dumps(r.context)},\n  "covers": [',),
            _rows(enc, cov, *pair, order._at),
            ("\n  ]" if any(cov) else "]", f',\n  "element_count": {len(enc)},\n  "elements": [\n    ', ",\n    ".join(enc)),
            ('\n  ],\n  "kind": "obstruction-report",\n  "leq": [',),
            _rows(enc, p.up, *pair, order._pick),
            ('\n  ],\n  "minimal": ', "[\n    " + ",\n    ".join(low) + "\n  ]" if low else "[]"),
            (f',\n  "trivial": {"true" if r.trivial else "false"},\n  "version": 1\n}}\n',),
        )
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    for piece in chain.from_iterable(parts):
        out.write(piece)
