"""Zeroth and first homotopy posets of a pointed finite category.

pi0 is the pointed reflection of the objects' reachability preorder: the
poset reflection with the lower set of the chosen object's class collapsed
to a basepoint, built in one pass by ``order.pointed_reflection``; pi1 is
pi0 of the category of parallel arrows over the object, pointed at the pair
of identities.  As pi0 reads reachability only, every other invariant
points the reachability preorder of a category of elements of c, handed
over by one walk, and none is materialised: the slice C/y at f: x -> y is
read off the morphisms into y (pi0) and the pairs into x that f equalises
(pi1).  Non-basepoint elements rank the obstructions: to weak terminality
for pi0, to subterminality for pi1.

Where pi_i is read, at an object x or at a slice object f: x -> y, is one
fact, ``_end``: the walk's arguments, the base key and the point name.
``pi0``, ``pi1`` and ``analyze_morphism`` read it, and so does each flow
(along a morphism, along a functor, and along a natural transformation
over a morphism of the domain), one call of ``_flow`` on two ends: it walks
a walk the ends share once, points it once per end, and, like every flow,
is built by ``induced_map``: it maps class representatives, sends
collapsed images to the basepoint, and then *checks* the result to be
monotone, along the covers of the source poset, and basepoint-preserving,
so a broken table shows up as an error instead of a silently wrong
poset.

``write_report`` is the one writer of a report, as text, as a DOT Hasse
diagram or as an interchange document.  Every list of name pairs in them
(text and DOT covers, interchange ``covers`` and ``leq``) comes from one
row generator, one ``str.join`` per element's row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import chain, compress, islice, repeat
from operator import and_, eq, rshift

from . import fincat, order
from .errors import CapExceeded, InvalidPoset, OracleMismatch, UnknownMorphism, UnknownObject

# Generators past which no powerset poset is built (it has up to 2^n elements).
POWERSET_CAP = 12
# Translations of a byte to the digit 1 or 0: _BIT[i] reads its bit i,
# _ONLY[k] whether it is k.
_BIT = [bytes(48 + (j >> i & 1) for j in range(256)) for i in range(8)]
_ONLY = [bytes(48 + (j == k) for j in range(256)) for k in range(POWERSET_CAP + 2)]


ObstructionReport = namedtuple("ObstructionReport", "invariant minimal trivial context")
MorphismAnalysis = namedtuple("MorphismAnalysis", "pi0 pi1 split_epi mono iso")


def report_from_pointed(pp: order.PointedPoset, context: str) -> ObstructionReport:
    p = pp.poset
    b = p.index[pp.basepoint]
    below = p.down_masks[b] & ~(1 << b)
    if below:  # the elements are sorted: the lowest bit names the least
        raise OracleMismatch(f"basepoint fails minimality below {p.elements[order._low(below)]!r}")
    return ObstructionReport(pp, order.minimal_obstructions(pp), order.is_trivial(pp), context)


# -- the two invariants ------------------------------------------------------


def _pi_data(c: fincat.FinCat, k: int, x: str | None = None, over: str | None = None):
    """The walk behind pi_i: the element names, each with its key, and, in
    that order, their down-masks.  At k = 0 the elements are the objects of
    c, each its own key, and each object's mask has the domains of the
    morphisms into it; at k = 1, 2 they are the category of elements of
    hom(-, x)^k (only the tuples that ``over`` equalises, if given), keyed
    by tuple of positions."""
    if k:
        return fincat._elements_preorder(c, x, k, over)
    index = {y: i for i, y in enumerate(c.objects)}
    down = [0] * len(index)
    for m in c.morphisms:
        down[index[m.cod]] |= 1 << index[m.dom]
    return dict(zip(c.objects, c.objects)), down


def _end(c: fincat.FinCat, i: int, x: str, f: str | None = None):
    """Where pi_i is read: at the object x, or, given f: x -> y, at the
    slice object f, read off c (pi0 on the slice over y, pi1 on the pairs
    into x that f equalises).  Returns the ``_pi_data`` arguments, the key
    of the base element and the point name."""
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    point = x if f is None else f
    if i == 0 and f is None:
        if not c.has_object(x):
            raise UnknownObject(x)
        return (c, 0), x, point
    if i == 0:
        return (c, 1, c.cod(f)), (c.index[f],), point
    return (c, 2, x, f), (c.index[c.id_of(x)],) * 2, point


def _pi_at(walk, base, point: str, i: int) -> tuple[ObstructionReport, list[str]]:
    """pi_i pointed at ``point``: the pointed reflection of the walk at the
    element keyed ``base``, an object or a tuple of positions, and the class
    of each element in walk order."""
    elements, down = walk
    pp, class_of = order.pointed_reflection(list(elements), down, list(elements.values()).index(base), f"[{point}]")
    return report_from_pointed(pp, f"pi{i} at object {point!r}"), class_of


def _pi(c: fincat.FinCat, i: int, x: str, f: str | None = None) -> ObstructionReport:
    """pi_i at the ``_end`` of x and f."""
    args, base, point = _end(c, i, x, f)
    return _pi_at(_pi_data(*args), base, point, i)[0]


def pi0(c: fincat.FinCat, x: str) -> ObstructionReport:
    """Pointed poset of obstructions to weak terminality of x."""
    return _pi(c, 0, x)


def pi1(c: fincat.FinCat, x: str) -> ObstructionReport:
    """Pointed poset of obstructions to subterminality of x.  Refuses with
    SizeCapExceeded past ``fincat.OBJECTS_CAP`` parallel pairs over x."""
    return _pi(c, 1, x)


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


def _flow(i: int, src_end, dst_end, move) -> order.PointedMap:
    """The map from pi_i at one ``_end`` to pi_i at the other: an element
    goes to the class of the move of its key, an object, or each position
    of a tuple, read off one key -> class dict of the target end.  A walk
    the two ends share, as the slice over one object pointed at two of its
    objects does, is taken once."""
    (args, base, point), (dst_args, dst_base, dst_point) = src_end, dst_end
    walk = _pi_data(*args)
    dst_walk = walk if dst_args == args else _pi_data(*dst_args)
    src = _pi_at(walk, base, point, i)[0]
    dst, class_of = _pi_at(dst_walk, dst_base, dst_point, i)
    elements, lookup = walk[0], dict(zip(dst_walk[0].values(), class_of))
    image = move if args[1] == 0 else lambda t: tuple(map(move, t))
    return induced_map(src, dst, lambda e: lookup[image(elements[e])])


def pi_object_action(c: fincat.FinCat, f: str, i: int) -> order.PointedMap:
    """Covariant action of a morphism f: x -> y on pi_i(-, x) -> pi_i(-, y).

    For i = 0 a surviving class keeps its name unless it acquires a morphism
    into y, in which case it lands on the basepoint.  For i = 1 a pair class
    maps to the class of the postcomposed pair.
    """
    if not c.has_morphism(f):
        raise UnknownMorphism(f)
    move = (lambda x: x) if i == 0 else c.rows[c.index[f]].__getitem__
    return _flow(i, _end(c, i, c.dom(f)), _end(c, i, c.cod(f)), move)


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
    if not c.has_morphism(f):
        raise UnknownMorphism(f)
    x, y = c.dom(f), c.cod(f)
    ends = (_end(d, i, F.obj_map[z], alpha.components[z]) for z in (x, y))
    post = d.rows[d.index[(F if i else G).mor_map[f]]]
    return _flow(i, *ends, post.__getitem__)


# -- morphism classification ---------------------------------------------------


def brute_split_epi(c: fincat.FinCat, f: str) -> bool:
    """Some s: y -> x has s;f = id_y, read off f's row: its values are the
    h;f, and h;f = id_y needs h: y -> x."""
    return c.index[c.id_of(c.cod(f))] in c.rows[c.index[f]].values()


def brute_mono(c: fincat.FinCat, f: str) -> bool:
    """g |-> g;f is one-to-one on every hom(w, x), read off f's row: g;f has
    the domain of g, so that is one-to-one on the whole row."""
    row = c.rows[c.index[f]]
    return len(set(row.values())) == len(row)


def analyze_morphism(c: fincat.FinCat, f: str) -> MorphismAnalysis:
    """Classify f through the homotopy posets of its slice over cod f, read
    off c, and cross-check the verdicts against direct split-epi / mono
    searches.  A disagreement raises OracleMismatch: it can only mean a bug.
    The slice and the pairs f equalises are guarded as in ``pi1``."""
    if not c.has_morphism(f):
        raise UnknownMorphism(f)
    x = c.dom(f)
    r0 = _pi(c, 0, x, f)
    r1 = _pi(c, 1, x, f)
    split_epi = r0.trivial
    mono = r1.trivial
    if split_epi != brute_split_epi(c, f):
        raise OracleMismatch(f"split-epi flag disagrees with search at {f!r}")
    if mono != brute_mono(c, f):
        raise OracleMismatch(f"mono flag disagrees with search at {f!r}")
    return MorphismAnalysis(r0, r1, split_epi, mono, split_epi and mono)


# -- powerset-shaped reports --------------------------------------------------


def subset_name(items: Iterable[str]) -> str:
    return "{" + ",".join(sorted(items)) + "}"


def powerset_report(universe: Iterable[str], collapsed: Iterable[str], basepoint: str, context: str) -> ObstructionReport:
    """Inclusion-ordered report: basepoint below everything, survivors are
    the subsets that meet the free part F, the universe minus the collapsed
    set.  Refuses with InvalidPoset when a generator is named twice or two
    elements would render alike, with UnknownObject when a collapsed name is
    not a generator, and with CapExceeded past POWERSET_CAP generators,
    before any subset is built.

    Subsets are bitmasks over the sorted universe, the basepoint standing
    in for the empty one, and the poset is an order by construction, so it
    is built directly, not through ``order.from_masks``.  In a Boolean
    lattice up(S) is the intersection of the up({i}), i in S, and down(S)
    that of the down(U - {i}), i not in S (Davey and Priestley).  So once
    the elements are sorted, per-generator masks over their positions are
    read off at C speed, one byte translation each: has[i], the elements
    that contain generator i, and lacks[i], the others.  Then
    up(S) = up(S - top) & has[top] and down(S) = down(S + low) & lacks[low],
    and the covers of S are up(S) & next_size[|S|], the elements of one
    generator more: one AND each per subset, built a list at a time.
    """
    uni = sorted(universe)
    if any(map(eq, uni, islice(uni, 1, None))):
        raise InvalidPoset(f"two generators render as {next(a for a, b in zip(uni, uni[1:]) if a == b)!r}")
    n = len(uni)
    if n > POWERSET_CAP:
        raise CapExceeded(f"powerset of {n} generators exceeds cap {POWERSET_CAP}")
    index = dict(zip(uni, range(n)))
    coll = set(collapsed)
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
    up, down = [every], [every]  # by subset; down by complement until reversed
    for i in range(n):
        has = int(octets[i >> 3].translate(_BIT[i & 7]), 2)
        lacks = every ^ has
        up += [m & has for m in up]
        down += [m & lacks for m in down]
    down.reverse()
    ups = tuple(map(up.__getitem__, masks))
    covers = map(and_, ups, map(next_size.__getitem__, reversed(counts)))
    p = order.Poset(elems, ups, tuple(map(down.__getitem__, masks)), tuple(covers))
    return report_from_pointed(order.PointedPoset(p, basepoint), context)


# -- rendering ----------------------------------------------------------------


def _rows(names, masks, pre: str, mid: str, glue: str, end: str, sep: str = "", pick=None):
    """For each non-empty masks[i], one string of its pairs: head +
    (glue + head).join(picked) + end, with head = pre + names[i] + mid and
    picked the names at the set bits of masks[i]; every row but the first is
    led by sep.  Each row is one C-level ``str.join``, not one Python string
    per pair: a ``powerset`` report of 10 generators has 52,266 ``leq`` pairs
    in about 1,000 rows.  Cover rows hold a few bits of many, so they are
    walked by ``order._bits``; up-mask rows are dense, and pick=``order._pick``
    reads them in one pass over the mask's binary digits."""
    lead = ""
    for i, m in enumerate(masks):
        if m:
            head = pre + names[i] + mid
            yield lead + head + (glue + head).join(pick(names, m) if pick else map(names.__getitem__, order._bits(m))) + end
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
    element's row of pairs goes to out in one write."""
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
        parts = ((head,), _rows(p.elements, cov, "", " < ", "; ", "", "; "), ("\n",))
    elif fmt == "dot":
        q = [order.quote(e) for e in p.elements]
        b = p.index[pp.basepoint]
        nodes = "".join(f"  {e} [shape={'doublecircle' if i == b else 'ellipse'}];\n" for i, e in enumerate(q))
        parts = (("digraph hasse {\n  rankdir=BT;\n" + nodes,), _rows(q, cov, "  ", " -> ", ";\n", ";\n"), ("}\n",))
    elif fmt == "interchange":
        import json  # here only, so text and DOT runs never load it

        enc = [json.dumps(e) for e in p.elements]
        low = [json.dumps(e) for e in sorted(r.minimal)]
        pair = ("\n    [\n      ", ",\n      ", "\n    ],", "\n    ]", ",")  # a list of [name, name] at depth 1
        parts = (
            (f'{{\n  "basepoint": {json.dumps(pp.basepoint)},\n  "context": {json.dumps(r.context)},\n  "covers": [',),
            _rows(enc, cov, *pair),
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
