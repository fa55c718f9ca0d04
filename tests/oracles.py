"""Independent oracles.

Everything here recomputes results from first principles (hom-set scans,
span searches, exhaustive enumeration) without touching the library's
pointed reflection, so agreement with the library is a real check and not a
tautology.  The one exception is ``covariance_map``: it builds the flow
through the materialised slices and their projections, the construction
that the library now reads off the category directly.

The validator section keeps ``from_masks``, the mask validator the
library ran on its reflections until every poset it builds was an order
by construction; ``trusted_differs`` checks such a poset against it, and
the tests run it on every reflection and powerset report (``conftest``).
The self-checks section keeps the three checks the library ran on every
call of ``analyze_morphism``, ``kernel_pair`` and ``act`` until each result
held by construction, now run by the tests on every call: the analysis
flags against the searches by name, the kernel pair against the pullback
by name and the equivalence laws, and the reachability along a graph
homomorphism against ``reach_pairs``.

The two-step section keeps the pipeline that ``order.reflection``
replaced: reflect every class (``_reflect``, and ``poset_reflection`` over
a category's objects), then collapse the lower closure of the basepoint's
class (``lower_closure``, ``collapse_lower``), each step validated by
``from_masks``; ``two_step`` chains them as the library's routine is
called.

The category section keeps what ``fincat`` replaced: the composition
table keyed by names (``comp``), the line loop that reads a ``.cat`` file
into name-keyed tables, the name-keyed validator, which scans every
composable triple, the functor and naturality checks by name, a builder
of a category from name-keyed tables without checks, the walk over every
arrow of a category of elements, where the library hands down-sets along
split epis, and the materialised categories of elements (slices and
parallel arrows) with their composition tables, still guarded at 600,000
entries.

The order section keeps the string-pair implementations that the bitmask
core in ``order`` replaced: a poset there is a sorted element tuple and a
frozenset of name pairs, and every check is a set lookup; ``leq`` reads
such pairs off a library ``Poset``, and ``poset_from_pairs`` writes them
down as one.  ``compose_pointed`` composes pointed maps by their mappings.
Its monotonicity check scans every pair of the source's up-masks, where the
library runs along covers.  The renderings at the end write the interchange
document through the standard library's encoder, and DOT and text one
f-string per cover pair, as the code that the row joins in ``order``,
``homotopy`` and ``cli`` replaced did.
"""

import json
from bisect import bisect_left
from itertools import combinations, product, repeat
from types import MappingProxyType
from typing import Iterable, NamedTuple

from obstructia import fincat, homotopy, order
from obstructia.order import PointedPoset, Poset, _bits
from obstructia.errors import (
    BadCompositionTyping,
    DanglingReference,
    EngineError,
    InvalidMap,
    InvalidPoset,
    MissingIdentity,
    NonAssociative,
    NotAFunctor,
    NotNatural,
    OracleMismatch,
    ParseError,
    SizeCapExceeded,
    UnknownObject,
)

BP = object()  # marker for the basepoint in oracle outputs


class NotDownClosed(EngineError):
    """The set handed to a lower-set collapse is not down-closed."""


class EmptyCollapseSet(EngineError):
    """A lower-set collapse needs a non-empty set to collapse."""


def weak_terminal(c, x):
    return all(c.hom(y, x) for y in c.objects)


def subterminal(c, x):
    return all(len(c.hom(y, x)) <= 1 for y in c.objects)


def terminal(c, x):
    return weak_terminal(c, x) and subterminal(c, x)


def comp(c):
    """``comp(c)[(f, g)]`` is f;g by name: the composition table keyed by
    names, a read-only view built from the rows, row by row."""
    names = [m.name for m in c.morphisms]
    return MappingProxyType({(names[h], names[g]): names[hg] for g, row in enumerate(c.rows) for h, hg in row.items()})


def split_epi(c, f, table=None):
    x, y = c.dom(f), c.cod(f)
    table = comp(c) if table is None else table
    return any(table[(s, f)] == c.id_of(y) for s in c.hom(y, x))


def mono(c, f, table=None):
    x = c.dom(f)
    table = comp(c) if table is None else table
    for w in c.objects:
        for g, h in combinations(c.hom(w, x), 2):
            if table[(g, f)] == table[(h, f)]:
                return False
    return True


def split_mono(c, f):
    x, y = c.dom(f), c.cod(f)
    table = comp(c)
    return any(table[(f, r)] == c.id_of(x) for r in c.hom(y, x))


def law_failure(morphisms, identity, comp):
    """The first categorical law broken by a well-typed composition table
    that is total on composable pairs, as the exception validation raises,
    or None.  The identity laws come first, by declared morphism, left
    before right.  Associativity is checked on every triple by a plain loop
    over the entries of comp, and the witness is the failing triple least
    in declaration order."""
    for m, d, c in morphisms:
        left, right = comp[(identity[d], m)], comp[(m, identity[c])]
        if left != m:
            return MissingIdentity(m, f"comp(id, {m!r}) = {left!r}")
        if right != m:
            return MissingIdentity(m, f"comp({m!r}, id) = {right!r}")
    after = {}
    for (f, g), fg in comp.items():
        after.setdefault(f, {})[g] = fg
    failing = [(f, g, h) for (f, g), fg in comp.items() for h, gh in after[g].items()
               if comp[(fg, h)] != comp[(f, gh)]]
    if not failing:
        return None
    pos = {m: i for i, (m, _, _) in enumerate(morphisms)}
    return NonAssociative(*min(failing, key=lambda t: [pos[m] for m in t]))


# -- categories by name -------------------------------------------------------


def validate_category(objects, morphisms, identity, comp):
    """Every categorical law checked on string rows, in the order
    ``fincat.validate_category`` keeps, with the same exceptions and
    messages.  Associativity is a scan over every composable triple, f, g
    and h each in declaration order; its first failure is the witness."""
    objs = tuple(objects)
    seen = set()
    for x in objs:
        if x in seen:
            raise DanglingReference(f"duplicate object id {x!r}")
        seen.add(x)
    mors = tuple(fincat.MorDecl(*m) for m in morphisms)
    dom, cod = {}, {}
    for m in mors:
        if m.name in dom:
            raise DanglingReference(f"duplicate morphism id {m.name!r}")
        if m.dom not in seen:
            raise DanglingReference(f"morphism {m.name!r} has unknown domain {m.dom!r}")
        if m.cod not in seen:
            raise DanglingReference(f"morphism {m.name!r} has unknown codomain {m.cod!r}")
        dom[m.name], cod[m.name] = m.dom, m.cod

    ident = dict(identity)
    for x, i in ident.items():
        if x not in seen:
            raise DanglingReference(f"identity declared for unknown object {x!r}")
        if i not in dom:
            raise DanglingReference(f"identity of {x!r} is unknown morphism {i!r}")
    for x in objs:
        if x not in ident:
            raise MissingIdentity(x, "no identity declared")
        if dom[ident[x]] != x or cod[ident[x]] != x:
            raise MissingIdentity(x, f"identity {ident[x]!r} is not an endomorphism of {x!r}")

    table = dict(comp)
    row = {m: {} for m in dom}  # row[f][g] = f;g
    for (f, g), h in table.items():
        for m in (f, g):
            if m not in dom:
                raise DanglingReference(f"composition entry uses unknown morphism {m!r}")
        if h not in dom:
            raise DanglingReference(f"composite {h!r} is not a declared morphism")
        if cod[f] != dom[g]:
            raise BadCompositionTyping(f"entry ({f!r}, {g!r}) is not a composable pair")
        if dom[h] != dom[f] or cod[h] != cod[g]:
            raise BadCompositionTyping(f"composite of ({f!r}, {g!r}) must go {dom[f]!r} -> {cod[g]!r}, got {h!r}")
        row[f][g] = h
    out_of = {x: [m for m in dom if dom[m] == x] for x in objs}
    for f in dom:
        for g in out_of[cod[f]]:
            if g not in row[f]:
                raise BadCompositionTyping(f"missing composite for composable pair ({f!r}, {g!r})")

    for m in dom:
        left, right = row[ident[dom[m]]][m], row[m][ident[cod[m]]]
        if left != m:
            raise MissingIdentity(m, f"comp(id, {m!r}) = {left!r}")
        if right != m:
            raise MissingIdentity(m, f"comp({m!r}, id) = {right!r}")
    for f in dom:
        for g in out_of[cod[f]]:
            for h in out_of[cod[g]]:
                if row[row[f][g]][h] != row[f][row[g][h]]:
                    raise NonAssociative(f, g, h)
    return build(objs, [(m.name, m.dom, m.cod) for m in mors], ident, table)


def build(objects, morphisms, identity, comp):
    """The FinCat of name-keyed tables, unchecked: each morphism its
    position in sorted order, each entry of comp interned one at a time."""
    mors = tuple(sorted((fincat.MorDecl(*m) for m in morphisms), key=lambda m: m.name))
    index = {m.name: i for i, m in enumerate(mors)}
    rows = [{} for _ in mors]
    for (f, g), h in comp.items():
        rows[index[g]][index[f]] = index[h]
    return fincat.FinCat(tuple(sorted(objects)), mors, dict(identity), tuple(rows))


def parse_category(text):
    """The ``.cat`` format read line by line into name-keyed tables, each
    line split on its own, and handed to ``validate_category``: a line that
    does not parse, a repeated comp entry and a repeated identity are
    ParseErrors naming their line."""
    objects, morphisms, identity, comp = [], [], {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if len(parts) == 6 and parts[0] == "comp" and parts[2] == ";" and parts[4] == "=":
            if (parts[1], parts[3]) in comp:
                raise ParseError(f"line {lineno}: duplicate composition entry {(parts[1], parts[3])!r}")
            comp[parts[1], parts[3]] = parts[5]
        elif len(parts) == 6 and parts[0] == "mor" and parts[2] == ":" and parts[4] == "->":
            morphisms.append((parts[1], parts[3], parts[5]))
        elif len(parts) == 2 and parts[0] == "obj":
            objects.append(parts[1])
        elif len(parts) == 4 and parts[0] == "id" and parts[2] == "=":
            if parts[1] in identity:
                raise ParseError(f"line {lineno}: duplicate identity for {parts[1]!r}")
            identity[parts[1]] = parts[3]
        elif parts:
            raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
    return validate_category(objects, morphisms, identity, comp)


def isos(c):
    """The names of the morphisms with a two-sided inverse, by a search over
    every morphism back."""
    table = comp(c)
    return frozenset(
        m.name for m in c.morphisms
        if any(table[m.name, g] == c.id_of(m.dom) and table[g, m.name] == c.id_of(m.cod)
               for g in c.hom(m.cod, m.dom))
    )


def validate_functor(source, target, obj_map, mor_map):
    """The functor check by name, which ``fincat.validate_functor``
    replaced: the same checks in the same order, composition read from the
    name-keyed tables in the order ``comp(source)`` lists its entries."""
    om = dict(obj_map)
    mm = dict(mor_map)
    for x in source.objects:
        if x not in om:
            raise NotAFunctor(x, "object not mapped")
        if not target.has_object(om[x]):
            raise NotAFunctor(x, f"image object {om[x]!r} not in target")
    for x in om:
        if not source.has_object(x):
            raise NotAFunctor(x, "not an object of the source")
    for m in source.morphisms:
        if m.name not in mm:
            raise NotAFunctor(m.name, "morphism not mapped")
        fm = mm[m.name]
        if not target.has_morphism(fm):
            raise NotAFunctor(m.name, f"image morphism {fm!r} not in target")
        if target.dom(fm) != om[m.dom] or target.cod(fm) != om[m.cod]:
            raise NotAFunctor(m.name, "image morphism mistyped")
    for m in mm:
        if not source.has_morphism(m):
            raise NotAFunctor(m, "not a morphism of the source")
    for x in source.objects:
        if mm[source.id_of(x)] != target.id_of(om[x]):
            raise NotAFunctor(x, "identity not preserved")
    there = comp(target)
    for (f, g), h in comp(source).items():
        if there[(mm[f], mm[g])] != mm[h]:
            raise NotAFunctor((f, g), "composition not preserved")
    return fincat.FunctorData(source, target, om, mm)


def validate_nat_trans(source, target, components):
    """The naturality check by name, which ``fincat.validate_nat_trans``
    replaced: each square read from the name-keyed table of the target."""
    if source.source != target.source or source.target != target.target:
        raise NotNatural("functor boundaries differ")
    c, d = source.source, source.target
    comps = dict(components)
    for x in c.objects:
        a = comps.get(x)
        if a is None or not d.has_morphism(a) or d.dom(a) != source.obj_map[x] or d.cod(a) != target.obj_map[x]:
            raise NotNatural(x)
    table = comp(d)
    for m in c.morphisms:
        # F f ; alpha_y  ==  alpha_x ; G f
        if table[(source.mor_map[m.name], comps[m.cod])] != table[(comps[m.dom], target.mor_map[m.name])]:
            raise NotNatural(m.name)
    return fincat.NatTransData(source, target, comps)


COMP_ENTRIES_CAP = 600_000


class ElementsCategory(NamedTuple):
    """A category of elements of hom(-, x)^k with its projection to c.
    ``elements`` maps each object name to its k-tuple of morphisms into x."""

    cat: fincat.FinCat
    projection: fincat.FunctorData
    elements: dict


def _arrows(c, tuples):
    """Walk the morphisms of the category of elements, one step per arrow.
    For each target tuple t, in order, yield the morphisms h into its domain
    and, for each, the position of its source h;t: a k-tuple of ints g is
    looked up by its code g_1*M + g_2 (g_1 when k = 1), M the number of
    morphisms."""
    rows, into = c.rows, c.into
    size = len(rows)
    at = {t[0] if len(t) == 1 else t[0] * size + t[1]: j for j, (_, t) in enumerate(tuples)}
    for y, t in tuples:
        hs, r0, r1 = into[y], rows[t[0]], rows[t[-1]]
        if len(t) == 1:
            yield hs, [at[r0[h]] for h in hs]
        else:
            yield hs, [at[r0[h] * size + r1[h]] for h in hs]


def enumerate_elements(c, x, k, over=None):
    """The elements of ``fincat._elements_preorder``, each name mapped to its
    tuple, and, in that order, each y with its tuple: the library's fibres
    and names, read fresh, without the walk memo."""
    fibres = fincat._fibres(c, x, k, over)
    tuples = [(y, t) for y, fibre in fibres for t in product(fibre, repeat=k)]
    return dict(zip(fincat._named(c, fibres, k, over), (t for _, t in tuples))), tuples


def elements_down_masks(c, x, k, over=None):
    """The down-masks of ``fincat._elements_preorder`` by the full walk: each
    element ORs the position of the source of every arrow into it."""
    elements, tuples = enumerate_elements(c, x, k, over)
    down = []
    for _, sources in _arrows(c, tuples):
        mask = 0
        for j in sources:
            mask |= 1 << j
        down.append(mask)
    return elements, down


def _fresh_name(base: str, used: set) -> str:
    name = base
    n = 1
    while name in used:
        n += 1
        name = f"{base}#{n}"
    used.add(name)
    return name


def _elements_category(c, x, k):
    """Materialised category of elements of hom(-, x)^k over the library's
    enumeration and the walk over every arrow: a morphism to the tuple
    (g_1, .., g_k) is an h with h;g_i = f_i for every i, and the projection
    sends a tuple to its domain and each morphism to its witness h.  Past the library's object
    and morphism guards, its composition entries are guarded too: one per
    morphism h into dom m and tuple over cod m, for every morphism m."""
    elements, tuples = enumerate_elements(c, x, k)
    names = [m.name for m in c.morphisms]
    elements = {p: tuple(map(names.__getitem__, t)) for p, t in elements.items()}
    arrows = _arrows(c, tuples)
    into = {z: 0 for z in c.objects}
    for m in c.morphisms:
        into[m.cod] += 1
    entries = sum(into[m.dom] * len(c.hom(m.cod, x)) ** k for m in c.morphisms)
    if entries > COMP_ENTRIES_CAP:
        raise SizeCapExceeded(f"{('slice', 'parallel arrows')[k - 1]} over {x!r} composition entries", entries, COMP_ENTRIES_CAP)
    objs = list(elements)
    used = set()
    mors = []
    witness = {}
    by_key = {}
    incoming = {p: [] for p in elements}
    outgoing = {p: [] for p in elements}
    for tgt, (hs, sources) in zip(objs, arrows):
        for i, j in zip(hs, sources):
            src, h = objs[j], names[i]
            name = _fresh_name(f"{h}[{src}=>{tgt}]", used)
            mors.append((name, src, tgt))
            witness[name] = (src, h, tgt)
            by_key[(src, h, tgt)] = name
            incoming[tgt].append(name)
            outgoing[src].append(name)

    ident = {p: by_key[(p, c.id_of(c.dom(t[0])), p)] for p, t in elements.items()}

    table, entries = comp(c), {}
    for mid in elements:
        for m1 in incoming[mid]:
            src, h1, _ = witness[m1]
            for m2 in outgoing[mid]:
                _, h2, tgt = witness[m2]
                entries[(m1, m2)] = by_key[(src, table[(h1, h2)], tgt)]

    cat = build(elements, mors, ident, entries)
    projection = fincat.FunctorData(
        cat, c, {p: c.dom(t[0]) for p, t in elements.items()}, {name: w[1] for name, w in witness.items()}
    )
    return ElementsCategory(cat, projection, elements)


def slice_category(c, x):
    """The slice over x: objects are the morphisms into x (k = 1)."""
    return _elements_category(c, x, 1)


def parallel_arrows(c, x):
    """Category of ordered parallel pairs (f0, f1): y -> x (k = 2)."""
    return _elements_category(c, x, 2)


# -- the poset validator ------------------------------------------------------


def from_masks(elements: tuple[str, ...], up: list[int]) -> Poset:
    """The validator of every poset the library builds: reflexivity, then
    antisymmetry (no j in the strict up-set of i has i in its own), then
    transitivity (for each j in up[i], up[j] inside up[i]), each failure
    reported at its least witness in sort order.  The cover masks it computes on the way go into the
    result: the covers of a are its strict up-set minus every element
    strictly above one of them, the transitive reduction (Aho, Garey and
    Ullman)."""
    for i, e in enumerate(elements):
        if not up[i] >> i & 1:
            raise InvalidPoset(f"not reflexive at {e!r}")
    strict = [u ^ 1 << i for i, u in enumerate(up)]
    covers = []
    broken = None  # least (i, j) with up[j] not inside up[i]
    for i, ui in enumerate(up):
        above = 0
        for j in _bits(strict[i]):
            if strict[j] >> i & 1:  # the least i, and its least j
                raise InvalidPoset(f"antisymmetry fails on {elements[i]!r}, {elements[j]!r}")
            above |= strict[j]
            if broken is None and up[j] | ui != ui:
                broken = (i, j)
        covers.append(strict[i] & ~above)
    if broken is not None:
        i, j = broken
        gap = up[j] & ~up[i]
        c = elements[(gap & -gap).bit_length() - 1]
        raise InvalidPoset(f"transitivity fails on {elements[i]!r} <= {elements[j]!r} <= {c!r}")
    return Poset(elements, tuple(up), tuple(covers))


def trusted_differs(p):
    """The fields of a poset the library built, an order by construction,
    that differ from the validated rebuild by from_masks: up- and cover
    masks, and the Hasse pairs.  A poset that is no order raises here."""
    checked = from_masks(p.elements, list(p.up))
    fields = [
        ("elements", p.elements == checked.elements),
        ("up", p.up == checked.up),
        ("cover_masks", p.cover_masks == checked.cover_masks),
        ("hasse", cover_pairs(p) == cover_pairs(checked)),
    ]
    return [name for name, same in fields if not same]


# -- the two-step pointed reflection ----------------------------------------


def _low(m: int) -> int:
    """Index of the lowest set bit of a non-zero m."""
    return (m & -m).bit_length() - 1


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


def _union(masks, m: int) -> int:
    """OR of masks[i] over the set bits i of m."""
    out = 0
    for i in _bits(m):
        out |= masks[i]
    return out


def _mask(p: Poset, names: Iterable[str]) -> int:
    """The bitmask of a set of element names; the least unknown name raises."""
    index = {e: i for i, e in enumerate(p.elements)}
    names = set(names)
    unknown = [e for e in names if e not in index]
    if unknown:
        raise UnknownObject(min(unknown))
    return sum(1 << index[e] for e in names)


def _down_masks(p: Poset) -> list[int]:
    """Bit i of the j-th mask set when elements[i] <= elements[j], read off
    the order's name pairs."""
    index = {e: i for i, e in enumerate(p.elements)}
    down = [0] * len(index)
    for a, b in leq(p):
        down[index[b]] |= 1 << index[a]
    return down


def lower_closure(p: Poset, s: Iterable[str]) -> frozenset:
    """Least down-closed superset of s."""
    return frozenset(p.elements[i] for i in _bits(_union(_down_masks(p), _mask(p, s))))


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
    if _union(_down_masks(p), lm) != lm:
        raise NotDownClosed(f"{sorted(l)} is not down-closed")

    keep = ((1 << len(p.elements)) - 1) & ~lm
    old = _bits(keep)
    survivors = [p.elements[i] for i in old]
    bp = basepoint_name
    while bp in p.elements and keep >> p.elements.index(bp) & 1:
        bp = bp + "'"
    at = bisect_left(survivors, bp)
    elems = tuple(survivors[:at] + [bp] + survivors[at:])
    new_bit = {i: 1 << (k + (k >= at)) for k, i in enumerate(old)}

    def moved(m: int) -> int:
        return sum(new_bit[i] for i in _bits(m & keep))

    up = [moved(p.up[i]) for i in old]
    up.insert(at, 1 << at | moved(_union(p.up, lm)))
    return PointedPoset(from_masks(elems, up), bp)


def named_walk(names, down) -> fincat.Walk:
    """A ``fincat.Walk`` of a preorder given by distinct names and
    down-masks, each position sorting by its name, as an unranked walk's
    do; it has no keys and keeps nothing."""
    return fincat.Walk(None, down, names.__getitem__, fincat._read(names), None)


def two_step(names, down, base, basepoint_name):
    """``order.reflection`` in two steps: reflect every class, then
    collapse the lower closure of the class of position ``base``.  Returns
    the pointed poset and each position's class, the basepoint for a
    collapsed one."""
    p, class_of = _reflect(names, down)
    pp = collapse_lower(p, lower_closure(p, {class_of[names[base]]}), basepoint_name)
    return pp, [e if e in pp.poset.elements else pp.basepoint for e in map(class_of.get, names)]


# -- homotopy by hom-set scans -------------------------------------------------


def _classes(items, related):
    """Partition items by mutual relatedness; names classes by least member."""
    out = {}
    for a in items:
        members = [b for b in items if related(a, b) and related(b, a)]
        out[a] = min(members)
    return out


def reflection(c):
    """Poset reflection by a scan over every hom-set: the class map (least
    member names a class) and the order on classes."""
    cls = _classes(c.objects, lambda a, b: bool(c.hom(a, b)))
    leq = {(cls[a], cls[b]) for a in c.objects for b in c.objects if c.hom(a, b)}
    return cls, frozenset(leq)


def pi0_explicit(c, x):
    """The case-by-case description of pi0: elements are the basepoint plus
    classes of objects with no morphism into x; the basepoint sits below a
    class iff a span connects x to it."""
    obstructions = [y for y in c.objects if not c.hom(y, x)]
    cls = _classes(obstructions, lambda a, b: bool(c.hom(a, b)))
    elems = sorted(set(cls.values()))
    bp = f"[{x}]"
    while bp in elems:
        bp += "'"
    leq = {(bp, bp)}
    for a in elems:
        leq.add((a, a))
        if any(c.hom(z, x) and c.hom(z, a) for z in c.objects):
            leq.add((bp, a))
        for b in elems:
            if c.hom(a, b):
                leq.add((a, b))
    return frozenset([bp] + elems), frozenset(leq), bp


def pair_element_names(c, x, over=None):
    """The name of each pair of ``fincat._elements_preorder(c, x, 2,
    over)``, keyed by its pair of morphism ids: the pair of ids, or of slice
    morphisms h[k=>over], k = h;over, given ``over``, each pair in the
    order the library documents, object by object, the morphisms y -> x
    split by their composite with ``over`` in the order of their first
    member, and the tuples of each part in product order; the n-th pair
    named alike gets ``#n``."""
    table = comp(c)
    label = (lambda h: h) if over is None else (lambda h: f"{h}[{table[h, over]}=>{over}]")
    pairs, out = [], {}
    for y in c.objects:
        parts = {}
        for h in (m.name for m in c.morphisms if m.dom == y and m.cod == x):
            parts.setdefault(None if over is None else table[h, over], []).append(h)
        pairs += [pair for part in parts.values() for pair in product(part, repeat=2)]
    for h0, h1 in pairs:
        name = f"({label(h0)},{label(h1)})"
        n, free = 1, name
        while free in out.values():
            n += 1
            free = f"{name}#{n}"
        out[h0, h1] = free
    return out


def pi1_explicit(c, x, name_of=None):
    """The case-by-case description of pi1 over parallel pairs into x, each
    pair named by ``name_of``: by default as the library names the pairs
    into x (``pair_element_names``)."""
    table = comp(c)
    pairs = [
        (f, g)
        for y in c.objects
        for f in c.hom(y, x)
        for g in c.hom(y, x)
    ]

    def related(p, q):
        f, g = p
        f2, g2 = q
        return any(
            table[(h, f2)] == f and table[(h, g2)] == g
            for h in c.hom(c.dom(f), c.dom(f2))
        )

    cls = _classes(pairs, related)
    collapsed = {cls[p] for p in pairs if p[0] == p[1]}
    name = dict(zip(pairs, map(name_of or pair_element_names(c, x).__getitem__, pairs)))
    reps = {}
    for p in pairs:
        key = cls[p]
        reps.setdefault(key, []).append(p)
    surviving = {k: min(name[p] for p in ps) for k, ps in reps.items() if k not in collapsed}

    elems = sorted(surviving.values())
    bp = f"[{x}]"
    while bp in elems:
        bp += "'"
    rep_of = {surviving[k]: k for k in surviving}
    leq = {(bp, bp)}
    for a in elems:
        leq.add((a, a))
        fa, ga = rep_of[a]
        if any(
            table[(h, fa)] == table[(h, ga)]
            for z in c.objects
            for h in c.hom(z, c.dom(fa))
        ):
            leq.add((bp, a))
        for b in elems:
            if related(rep_of[a], rep_of[b]):
                leq.add((a, b))
    return frozenset([bp] + elems), frozenset(leq), bp


def report_shape(report):
    """(elements, leq, basepoint) triple of a library report, for comparison
    with the explicit descriptions."""
    pp = report.invariant
    return frozenset(pp.poset.elements), leq(pp.poset), pp.basepoint


def covariance_map(alpha, f, i):
    """The flow of obstructions of alpha along f: x -> y through the
    materialised slices D/Gx and D/Gy and their projections to D: slice
    objects are postcomposed with Gf (i = 0); a pair of parallel slice
    morphisms into alpha_x maps componentwise to the slice morphisms over
    Gy whose witnesses are postcomposed with Ff (i = 1)."""
    F, G = alpha.source, alpha.target
    d = F.target
    x, y = F.source.dom(f), F.source.cod(f)
    ax, ay = alpha.components[x], alpha.components[y]
    gf, ff = G.mor_map[f], F.mor_map[f]
    table = comp(d)
    sx = slice_category(d, G.obj_map[x])
    sy = slice_category(d, G.obj_map[y])
    if i == 0:
        src, dst = homotopy.pi0(sx.cat, ax), homotopy.pi0(sy.cat, ay)
        class_of = poset_reflection(sy.cat)[1]

        def image(e):
            return class_of[table[(e, gf)]]

    else:
        src, dst = homotopy.pi1(sx.cat, ax), homotopy.pi1(sy.cat, ay)
        pairs_x = parallel_arrows(sx.cat, ax).elements
        pa_y = parallel_arrows(sy.cat, ay)
        class_of = poset_reflection(pa_y.cat)[1]
        name_of = {pair: name for name, pair in pa_y.elements.items()}
        sy_by_key = {(m.dom, sy.projection.mor_map[m.name], m.cod): m.name for m in sy.cat.morphisms}

        def slice_image(p):
            h = sx.cat.dom(p)  # a morphism of D into Gx
            k = sx.projection.mor_map[p]  # its witness k: dom h -> Fx, k;alpha_x = h
            return sy_by_key[(table[(h, gf)], table[(k, ff)], ay)]

        def image(e):
            return class_of[name_of[tuple(slice_image(p) for p in pairs_x[e])]]

    bp = dst.invariant.basepoint
    targets = set(dst.invariant.poset.elements)
    mapping = {src.invariant.basepoint: bp}
    for e in src.invariant.poset.elements:
        if e != src.invariant.basepoint:
            mapping[e] = image(e) if image(e) in targets else bp
    return order.make_pointed(src.invariant, dst.invariant, mapping)


def compose_relation_pairs(r_pairs, s_pairs):
    out = set()
    for x, y in r_pairs:
        for y2, z in s_pairs:
            if y == y2:
                out.add((x, z))
    return frozenset(out)


def reach_pairs(g):
    """Path existence per boundary pair, by plain DFS on each query."""
    succ = {}
    for u, v in g.edges:
        succ.setdefault(u, set()).add(v)

    def path(a, b):
        seen, stack = {a}, [a]
        while stack:
            u = stack.pop()
            if u == b:
                return True
            for v in succ.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return a == b

    return frozenset(
        (x, y)
        for x in g.inputs
        for y in g.outputs
        if path(g.in_leg[x], g.out_leg[y])
    )


# -- the self-checks ----------------------------------------------------------


def check_analysis(c, f, an):
    """Refuse an analysis of f whose split-epi or mono flag disagrees with
    the search by name, both searches on one table ``comp(c)``."""
    table = comp(c)
    if an.split_epi != split_epi(c, f, table):
        raise OracleMismatch(f"split-epi flag disagrees with search at {f!r}")
    if an.mono != mono(c, f, table):
        raise OracleMismatch(f"mono flag disagrees with search at {f!r}")


def kernel_pair(f):
    """The pullback of a function along itself, by name: every (a, b) with
    f(a) = f(b)."""
    return frozenset((a, b) for a in f.dom_set for b in f.dom_set if f.mapping[a] == f.mapping[b])


def check_equivalence(pairs):
    """Refuse pairs that are no equivalence relation, read on the rows
    R(x) = {y : (x, y)}: x in R(x), x in R(y) for each (x, y), and R(y)
    inside R(x) for each (x, y), the first two named at their least
    witness."""
    rows = {}
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


def check_growth(hom, reached):
    """Refuse ``reached``, the reachability of the target of hom, when it
    misses a pair that the source reaches: paths survive a graph
    homomorphism."""
    if not reach_pairs(hom.source) <= reached.pairs:
        raise OracleMismatch("reachability must grow along a graph homomorphism")


def open_graph_iso(g, h):
    """Boundary-preserving graph isomorphism search (backtracking)."""
    if set(g.inputs) != set(h.inputs) or set(g.outputs) != set(h.outputs):
        return False
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    forced = {}
    for x in g.inputs:
        forced[g.in_leg[x]] = h.in_leg[x]
    for y in g.outputs:
        if g.out_leg[y] in forced and forced[g.out_leg[y]] != h.out_leg[y]:
            return False
        forced[g.out_leg[y]] = h.out_leg[y]

    gv = sorted(g.vertices)
    hv = set(h.vertices)

    def degree(graph, v):
        return (
            sum(1 for e in graph.edges if e[0] == v),
            sum(1 for e in graph.edges if e[1] == v),
        )

    def ok(mapping):
        mapped = set(mapping)
        for u, v in g.edges:
            if u in mapped and v in mapped:
                if (mapping[u], mapping[v]) not in h.edges:
                    return False
        return True

    def backtrack(i, mapping, used):
        if i == len(gv):
            image_edges = {(mapping[u], mapping[v]) for u, v in g.edges}
            return image_edges == set(h.edges)
        v = gv[i]
        if v in mapping:
            return backtrack(i + 1, mapping, used)
        for w in sorted(hv - used):
            if degree(g, v) != degree(h, w):
                continue
            mapping[v] = w
            if ok(mapping) and backtrack(i + 1, mapping, used | {w}):
                return True
            del mapping[v]
        return False

    start = dict(forced)
    if len(set(start.values())) != len(start):
        return False
    if not ok(start):
        return False
    return backtrack(0, start, set(start.values()))


def graph_hom_text(hom):
    """The .gh text of hom, the writer no command needs: one map line per
    source vertex, identities included."""
    return "".join(f"map {v} = {hom.vertex_map[v]}\n" for v in hom.source.vertices)


def gf2_tensor(a, b):
    return tuple(x & y for x in a for y in b)


def separable_vectors(m, n):
    """Brute force over all input pairs; the independent separability oracle."""
    vecs_a = [tuple(reversed(v)) for v in product((0, 1), repeat=m)] if m else [()]
    vecs_b = [tuple(reversed(v)) for v in product((0, 1), repeat=n)] if n else [()]
    return frozenset(gf2_tensor(a, b) for a in vecs_a for b in vecs_b)


# -- posets as sets of name pairs ----------------------------------------------


def leq(p: Poset) -> frozenset[tuple[str, str]]:
    """The order as a set of name pairs (a, b) with a <= b."""
    e = p.elements
    return frozenset((e[i], e[j]) for i, ui in enumerate(p.up) for j in _bits(ui))


def make_poset(elements, leq):
    """Validate (elements, leq) as a poset by set lookups on name pairs;
    returns the sorted elements and the relation."""
    elems = tuple(sorted(set(elements)))
    elem_set = set(elems)
    rel = frozenset(leq)
    up = {e: set() for e in elems}
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
    return elems, rel


def poset_from_pairs(elements, leq):
    """The library's ``Poset`` from name pairs, validated by
    ``from_masks``; elements are stored sorted so equal posets built
    in different orders compare equal."""
    elems = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(elems)}
    up = [0] * len(elems)
    unknown = []
    for a, b in leq:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            unknown.append((a, b))
        else:
            up[i] |= 1 << j
    if unknown:
        a, b = min(unknown)
        raise InvalidPoset(f"relation mentions unknown element ({a!r}, {b!r})")
    return from_masks(elems, up)


def make_monotone(source, target, mapping):
    """The check that ``order.make_monotone`` runs along covers, as a scan of
    every pair of the source order: each pair's images looked up in the
    target's up-masks, the least broken pair in sort order named."""
    m = dict(mapping)
    tindex = {e: i for i, e in enumerate(target.elements)}
    image = []
    for e in source.elements:
        if e not in m:
            raise InvalidMap(f"element {e!r} not mapped")
        if m[e] not in tindex:
            raise InvalidMap(f"image {m[e]!r} of {e!r} not in target")
        image.append(tindex[m[e]])
    for i, t in enumerate(image):
        bad = [k for k in order._bits(source.up[i]) if not target.up[t] >> image[k] & 1]
        if bad:
            raise InvalidMap(f"order not preserved on {source.elements[i]!r} <= {source.elements[bad[0]]!r}")
    return m


def pointed_iso(src, dst, mapping):
    """Check that mapping is an isomorphism of pointed posets: a pointed
    map (``order.make_pointed``) that is a bijection and whose inverse is
    a pointed map too."""
    there = order.make_pointed(src, dst, mapping)
    inverse = {v: k for k, v in there.mapping.items()}
    if not len(inverse) == len(there.mapping) == len(src.poset.elements) == len(dst.poset.elements):
        raise InvalidMap("not a bijection")
    order.make_pointed(dst, src, inverse)
    return there


def compose_pointed(first, second):
    """The pointed map "first then second", checked by ``order.make_pointed``."""
    if first.target != second.source:
        raise InvalidMap("pointed maps not composable")
    return order.make_pointed(first.source, second.target, {e: second.mapping[v] for e, v in first.mapping.items()})


def lower_closure_pairs(elements, leq, s):
    wanted = set(s)
    for e in wanted:
        if e not in elements:
            raise UnknownObject(e)
    return frozenset(a for a in elements if any((a, t) in leq for t in wanted))


def collapse_lower_pairs(elements, leq, lower, basepoint_name):
    """Collapse a down-closed set to a basepoint; returns (elements, leq,
    basepoint) of the pointed result."""
    l = frozenset(lower)
    if not l:
        raise EmptyCollapseSet("cannot collapse an empty set")
    for e in l:
        if e not in elements:
            raise UnknownObject(e)
    if l != lower_closure_pairs(elements, leq, l):
        raise NotDownClosed(f"{sorted(l)} is not down-closed")
    survivors = [e for e in elements if e not in l]
    bp = basepoint_name
    while bp in survivors:
        bp = bp + "'"
    out = {(bp, bp)}
    for e in survivors:
        out.add((e, e))
        if any((x, e) in leq for x in l):
            out.add((bp, e))
        for e2 in survivors:
            if (e, e2) in leq:
                out.add((e, e2))
    elems, rel = make_poset([bp] + survivors, out)
    return elems, rel, bp


def minimal_obstructions(elements, leq, basepoint):
    rest = [e for e in elements if e != basepoint]
    return frozenset(e for e in rest if not any(o != e and (o, e) in leq for o in rest))


def hasse(elements, leq):
    """Covers by the textbook definition: a < b with nothing in between."""
    strict_up = {a: frozenset(b for b in elements if a != b and (a, b) in leq) for a in elements}
    covers = []
    for a in elements:
        ups = strict_up[a]
        for b in ups:
            if not any(b in strict_up[c] for c in ups):
                covers.append((a, b))
    return tuple(sorted(covers))


def cover_pairs(p):
    """The engine's covers of p (``Poset.cover_masks``) as sorted name
    pairs, to hold against ``hasse``."""
    e = p.elements
    return tuple((e[i], e[j]) for i, m in enumerate(p.cover_masks) for j in order._bits(m))


def powerset_members(universe, collapsed=()):
    """The subsets of the universe that are not inside the collapsed part,
    keyed by name: the non-basepoint elements of a powerset report."""
    uni = sorted(set(universe))
    coll = set(collapsed)
    subsets = (items for r in range(1, len(uni) + 1) for items in combinations(uni, r))
    return {homotopy.subset_name(items): frozenset(items) for items in subsets if not set(items) <= coll}


def powerset_report(universe, collapsed, basepoint):
    """(elements, leq, basepoint) of the inclusion-ordered powerset report,
    as name pairs: the basepoint below everything, and each subset below
    each of its supersets.  The supersets of a subset a are a with each
    subset of its complement added, listed by doubling, one generator at a
    time, so the pairs take 3^n steps, not the 4^n of testing every pair of
    subsets.  A superset of a subset that sticks out of the collapsed part
    sticks out too, so each pair is of elements.  The pairs are not
    re-validated: inclusion is an order, and the callers pass universes
    whose subsets render apart."""
    uni = sorted(set(universe))
    n = len(uni)
    full = (1 << n) - 1
    coll = set(collapsed)
    name_of = {}
    for mask in range(1, full + 1):
        items = [uni[i] for i in range(n) if mask >> i & 1]
        if not set(items) <= coll:
            name_of[mask] = homotopy.subset_name(items)
    leq = {(basepoint, basepoint)} | {(basepoint, nm) for nm in name_of.values()}
    for a, na in name_of.items():
        supersets = [a]
        for i in range(n):
            if not a >> i & 1:
                supersets += [b | 1 << i for b in supersets]
        leq.update(zip(repeat(na), map(name_of.__getitem__, supersets)))
    return tuple(sorted({basepoint, *name_of.values()})), frozenset(leq), basepoint


def gf2_local_flow(fm, gm):
    """The flow of ``states.local_action`` over GF(2) by brute force: each
    non-separable state of the source tensor, its bits the row-major matrix
    V, goes to f V g^T, entry (k, l) the sum over i, j of f[k][i] V[i][j]
    g[l][j], or to the basepoint {} when that is separable.  States are
    named by their bits, minimal obstructions {bits}."""
    m, n, m2, n2 = len(fm[0]), len(gm[0]), len(fm), len(gm)
    sep, sep2 = separable_vectors(m, n), separable_vectors(m2, n2)

    def name(bits):
        return "{" + "".join(map(str, bits)) + "}"

    flow = {"{}": "{}"}
    for v in product((0, 1), repeat=m * n):
        if v not in sep:
            w = tuple(
                sum(fm[k][i] * v[i * n + j] * gm[l][j] for i in range(m) for j in range(n)) % 2
                for k in range(m2)
                for l in range(n2)
            )
            flow[name(v)] = "{}" if w in sep2 else name(w)
    return flow


# -- the interchange document --------------------------------------------------


def report_to_dict(r):
    """The interchange form of a report; pairs come out sorted because
    elements are."""
    p = r.invariant.poset
    return {
        "version": 1,
        "kind": "obstruction-report",
        "context": r.context,
        "basepoint": r.invariant.basepoint,
        "elements": list(p.elements),
        "element_count": len(p.elements),
        "leq": [list(pair) for pair in sorted(leq(p))],
        "covers": [list(pair) for pair in cover_pairs(p)],
        "minimal": sorted(r.minimal),
        "trivial": r.trivial,
    }


def interchange(r):
    """The interchange document of a report, by the standard library's
    encoder: what ``homotopy.write_report`` must write byte for byte."""
    return json.dumps(report_to_dict(r), sort_keys=True, indent=2) + "\n"


# -- the text and DOT renderings ------------------------------------------------


def _quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(pp):
    """The DOT digraph of a pointed poset, one f-string per element and per
    textbook cover pair: what ``homotopy.write_report`` must write byte for
    byte."""
    p = pp.poset
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in p.elements:
        shape = "doublecircle" if e == pp.basepoint else "ellipse"
        lines.append(f"  {_quote(e)} [shape={shape}];")
    lines.extend(f"  {_quote(a)} -> {_quote(b)};" for a, b in hasse(p.elements, leq(p)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def text_report(r):
    """The text rendering of a report, one f-string per textbook cover pair:
    what the CLI's text format must write byte for byte."""
    p = r.invariant.poset
    covers = hasse(p.elements, leq(p))
    lines = [
        f"context: {r.context}",
        f"trivial: {'yes' if r.trivial else 'no'}",
        f"basepoint: {r.invariant.basepoint}",
        f"elements ({len(p.elements)}): " + ", ".join(p.elements),
        f"minimal obstructions ({len(r.minimal)}): " + ", ".join(sorted(r.minimal)),
        f"covers ({len(covers)}): " + "; ".join(f"{a} < {b}" for a, b in covers),
    ]
    return "\n".join(lines) + "\n"
