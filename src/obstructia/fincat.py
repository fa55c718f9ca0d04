"""Finite categories as validated composition tables, plus derived categories.

A category is given extensionally: object ids, morphism ids with domain and
codomain, an identity table, and a composition table that is total exactly on
composable pairs.  The composite f;g is diagrammatic, "f then g", so it
requires ``cod f == dom g`` and has domain ``dom f`` and codomain ``cod g``.
Everything is immutable after validation and safe to share: the rows are a
tuple, and no code writes to their dicts once a category is built (they are
left as plain dicts because every invariant reads them in its inner loop).

Categories are ints first.  Each morphism is its position in the sorted
``morphisms``, and composition is the rows alone: ``FinCat.rows`` holds one
row per morphism g mapping each h into dom g to h;g.  Every law, the
functor and naturality checks and every walk read those rows, and names
are read only at parse, render and error time.  ``parse_category`` reads a
``.cat`` file in one pass, whatever its line order, into the name-keyed
tables ``validate_category`` takes, and that is the one check: it puts each
entry straight into its row, and names are read again only to say what is
wrong with tables that raise.  Two bounded memos here and the last
powerset report (``homotopy._KEPT``) are all the state kept between
calls.  The parse memo, keyed by the whole text, hands a repeat the
immutable category its first read checked; failures are not kept.
Derived constructions name their objects and morphisms canonically so
outputs are reproducible byte for byte.  They are categories of elements of
hom(-, x)^k (the slice over x at k = 1, parallel arrows at k = 2): one
split of hom(-, x) into fibres behind the size caps below, from its split
by domain, taken once per category (``FinCat.homs``), and one walk over
the rows, one object at a time, that reads every arrow into each element
and hands each down-set along ``FinCat.split_epis``: the preorder
``order.reflection`` points.  The walk reads no name, so the walk memo
``_WALKS`` keeps it, by its fibres, for the category last walked, within
``OBJECTS_CAP`` elements, with the objects the category keeps apart,
taken when the memo first walks it.  In a ranked walk no id into its
object is the id before it extended by a character at or below the
suffix that follows it in the walk's names (``_apart``), so every derived
name sorts as its parts' positions do and no two render alike: an element
is sorted by its packed key, a reflection's classes are kept by the lower
set it collapses and reused on every call with that lower set, whatever
its base, and only their representatives are named.  Any other walk
names every element on every call, ``#n`` and all, and reflects afresh.
The caps are checked on every call.  The tests keep the ``.cat`` writer
and the opposite, and, as oracles, the walk of every element, the
composition tables of the derived categories, the table keyed by names
and the functor and naturality checks by name.
"""

from __future__ import annotations

from _thread import RLock
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import product
from operator import itemgetter
from types import MappingProxyType

from .errors import (
    BadCompositionTyping,
    DanglingReference,
    MissingIdentity,
    NonAssociative,
    NotAFunctor,
    NotNatural,
    ParseError,
    SizeCapExceeded,
    UnknownMorphism,
    UnknownObject,
)


# A morphism declaration: name, domain object, codomain object.
MorDecl = namedtuple("MorDecl", "name dom cod")


# Guards on a derived category, predicted from hom-set cardinalities before
# anything is built, so hitting one is cheap: its objects and its morphisms
# (the arrows walked).
OBJECTS_CAP = 20_000
MORPHISMS_CAP = 50_000


class FinCat(namedtuple("FinCat", "objects morphisms identity rows index into homs split_epis")):
    """Storage is canonical: objects and morphisms sorted by id, and the one
    composition table ``rows``, where ``rows[g][h]`` is h;g for the
    positions g and h in ``morphisms``.  So two categories with the same
    tables compare equal however they were built.  The one index is built
    from them here: ``index``, each morphism's position by name, ``into``,
    the positions into each object, ascending, ``homs``, the same split by
    domain, as (y, the positions y -> x ascending) for each y with one, in
    object order, ``split_epis``, the positions of the split epimorphisms:
    h: z -> y is one iff id_y = s;h for some s in h's row, a section of h.
    As it follows from the tables, it changes no comparison.  ``identity``
    is a read-only view; the rows are a tuple of plain dicts, which must
    not be written to.  Composition is read from the rows alone: names are
    looked up only to read arguments and to write results and errors."""

    __slots__ = ()

    def __new__(cls, objects, morphisms, identity, rows):
        into: dict[str, list[int]] = {x: [] for x in objects}
        for i, m in enumerate(morphisms):
            into[m.cod].append(i)
        into = {x: tuple(v) for x, v in into.items()}
        place, homs = {x: i for i, x in enumerate(objects)}, {}
        for x, hs in into.items():
            by: dict[str, list[int]] = {}
            for h in hs:
                by.setdefault(morphisms[h].dom, []).append(h)
            homs[x] = tuple((y, tuple(by[y])) for y in sorted(by, key=place.__getitem__))
        index = {m.name: i for i, m in enumerate(morphisms)}
        split = frozenset(h for h, (m, row) in enumerate(zip(morphisms, rows)) if index[identity[m.cod]] in row.values())
        return super().__new__(cls, objects, morphisms, MappingProxyType(identity), rows, index, into, homs, split)

    # -- lookups ---------------------------------------------------------

    def dom(self, m: str) -> str:
        if m not in self.index:
            raise UnknownMorphism(m)
        return self.morphisms[self.index[m]].dom

    def cod(self, m: str) -> str:
        if m not in self.index:
            raise UnknownMorphism(m)
        return self.morphisms[self.index[m]].cod

    def has_object(self, x: str) -> bool:
        return x in self.identity

    def has_morphism(self, m: str) -> bool:
        return m in self.index

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        mors = self.morphisms
        return tuple(mors[i].name for i in self.into.get(y, ()) if mors[i].dom == x)

    def id_of(self, x: str) -> str:
        if x not in self.identity:
            raise UnknownObject(x)
        return self.identity[x]


def validate_category(
    objects: Iterable[str],
    morphisms: Iterable[tuple[str, str, str]],
    identity: Mapping[str, str],
    comp: Mapping[tuple[str, str], str],
) -> FinCat:
    """Check every categorical law on the given tables and build a FinCat.

    Raises the first failed law with a witness: DanglingReference for unknown
    ids, BadCompositionTyping when comp is partial / overfull / mistyped,
    MissingIdentity for identity failures, NonAssociative with the witness
    triple.  Each entry goes straight into its row, and each row is checked
    for typing: h;g = k needs cod h = dom g, cod k = cod g, dom k = dom h.
    comp is read again by name, in its order, only when the rows fail to
    type.
    """
    decls = _declarations(objects, morphisms, identity)
    index, dom, cod, into = decls.index, decls.dom, decls.cod, decls.into
    rows: list[dict[int, int]] = [{} for _ in index]  # rows[g][f] = f;g
    try:
        for (f, g), h in comp.items():
            rows[index[g]][index[f]] = index[h]
        # a key or a value outside its hom-set is a KeyError here
        typed = all(itemgetter(*row)(into[dom[g]]) == itemgetter(*row.values())(into[cod[g]]) for g, row in enumerate(rows) if row)
    except KeyError:
        typed = False
    if not typed:
        _refuse(decls.mors, comp)
    return _laws(decls, rows)


def _refuse(mors, comp) -> None:
    """Raise what is wrong with entries ``validate_category`` could not
    type, found by name in comp's order: the first unknown or mistyped
    entry."""
    mors = {m.name: m for m in mors}
    for (f, g), h in comp.items():
        for m in (f, g):
            if m not in mors:
                raise DanglingReference(f"composition entry uses unknown morphism {m!r}")
        if h not in mors:
            raise DanglingReference(f"composite {h!r} is not a declared morphism")
        fm, gm, hm = mors[f], mors[g], mors[h]
        if fm.cod != gm.dom:
            raise BadCompositionTyping(f"entry ({f!r}, {g!r}) is not a composable pair")
        if hm.dom != fm.dom or hm.cod != gm.cod:
            raise BadCompositionTyping(f"composite of ({f!r}, {g!r}) must go {fm.dom!r} -> {gm.cod!r}, got {h!r}")
    raise AssertionError("tables that fail to intern pass every check by name")


# objs in declaration order; mors sorted by id, and index their positions;
# dom and cod, object positions in objs, per morphism; into, per object,
# h: dom h for each h into it, ascending; decl, the morphism positions in
# declaration order; ident, each object's identity.
_Declarations = namedtuple("_Declarations", "objs mors index dom cod into decl ident")


def _declarations(objects, morphisms, identity) -> _Declarations:
    """The objects, morphisms and identities, checked in that order: for
    repeats and unknown ends, and for one declared endomorphism as the
    identity of every object and of nothing else."""
    objs = tuple(objects)
    oid: dict[str, int] = {}
    for x in objs:
        if x in oid:
            raise DanglingReference(f"duplicate object id {x!r}")
        oid[x] = len(oid)

    decls = tuple(MorDecl(*m) for m in morphisms)
    declared: set[str] = set()
    for m in decls:
        if m.name in declared:
            raise DanglingReference(f"duplicate morphism id {m.name!r}")
        if m.dom not in oid:
            raise DanglingReference(f"morphism {m.name!r} has unknown domain {m.dom!r}")
        if m.cod not in oid:
            raise DanglingReference(f"morphism {m.name!r} has unknown codomain {m.cod!r}")
        declared.add(m.name)
    mors = tuple(sorted(decls, key=lambda m: m.name))
    index = {m.name: i for i, m in enumerate(mors)}
    dom = [oid[m.dom] for m in mors]
    cod = [oid[m.cod] for m in mors]
    into: list[dict[int, int]] = [{} for _ in objs]
    for m, y in enumerate(cod):
        into[y][m] = dom[m]

    ident = dict(identity)
    for x, i in ident.items():
        if x not in oid:
            raise DanglingReference(f"identity declared for unknown object {x!r}")
        if i not in index:
            raise DanglingReference(f"identity of {x!r} is unknown morphism {i!r}")
    for x in objs:
        if x not in ident:
            raise MissingIdentity(x, "no identity declared")
        i = ident[x]
        if dom[index[i]] != oid[x] or cod[index[i]] != oid[x]:
            raise MissingIdentity(x, f"identity {i!r} is not an endomorphism of {x!r}")
    return _Declarations(objs, mors, index, dom, cod, into, [index[m.name] for m in decls], ident)


def _laws(decls: _Declarations, rows: list[dict[int, int]]) -> FinCat:
    """The FinCat of rows of distinct, well-typed entries, once the laws
    hold: totality, the identity laws and associativity, checked in the
    order and with the witnesses a check on names in declaration order
    gives."""
    objs, mors, index, dom, cod, into, decl, ident = decls
    names = [m.name for m in mors]
    # The entries are distinct and composable, so the table is total iff it
    # has one entry per composable pair.  Only a short one is scanned for its
    # witness: out_of keeps declaration order, so the first missing pair is
    # the one an all-pairs scan would find.
    out_of: list[list[int]] = [[] for _ in objs]
    for m in decl:
        out_of[dom[m]].append(m)
    if sum(map(len, rows)) != sum(len(a) * len(b) for a, b in zip(into, out_of)):
        for f in decl:
            for g in out_of[cod[f]]:
                if f not in rows[g]:
                    raise BadCompositionTyping(f"missing composite for composable pair ({names[f]!r}, {names[g]!r})")

    ids = [index[ident[x]] for x in objs]
    for m in decl:
        left = rows[m][ids[dom[m]]]
        if left != m:
            raise MissingIdentity(names[m], f"comp(id, {names[m]!r}) = {names[left]!r}")
        right = rows[ids[cod[m]]][m]
        if right != m:
            raise MissingIdentity(names[m], f"comp({names[m]!r}, id) = {names[right]!r}")

    # Associativity by F. W. Light's test (Clifford & Preston, The Algebraic
    # Theory of Semigroups I, 1.2).  With the identity laws in hand, the
    # middles t with (f;t);h = f;(t;h) for all f, h contain the identities and
    # are closed under composition, so generator middles suffice.  A failure
    # reruns the scan over every middle for its first failing triple.
    squares = _squares(_generators(decl, dom, cod, ids, rows), rows, cod, out_of)
    if any(a != b for a, b in squares):
        raise NonAssociative(*(names[m] for m in _first_non_associative(decl, rows, cod, out_of)))

    return FinCat(tuple(sorted(objs)), mors, ident, tuple(rows))


def _generators(decl, dom, cod, ids, rows) -> set:
    """A generating set, by a greedy semi-naive closure: walk the morphisms
    in declaration order, the identities reached from the start, and make
    each one not yet reached a generator.  A morphism entering the closure
    is composed on both sides with those that entered before it (and with
    itself), so each composable pair of the closure is composed once."""
    reached, gens = set(ids), set()
    ends, starts = {}, {}  # object -> closure morphisms into it, out of it
    for m in decl:
        queue = [] if m in reached else [m]
        gens.update(queue)
        reached.update(queue)
        while queue:
            a = queue.pop()
            ends.setdefault(cod[a], []).append(a)
            starts.setdefault(dom[a], []).append(a)
            new = set(map(rows[a].__getitem__, ends.get(dom[a], ())))
            new.update(map(itemgetter(a), map(rows.__getitem__, starts.get(cod[a], ()))))
            queue += new - reached
            reached |= new
    return gens


def _squares(middles, rows, cod, out_of):
    """For each composable (g, h) with g in middles, (f;g);h and f;(g;h) for
    every f into dom g, in one order (bare ids when f can only be the
    identity)."""
    for g in middles:
        rg = rows[g]
        fg_then, f_then = itemgetter(*rg.values()), itemgetter(*rg)
        for h in out_of[cod[g]]:
            rh = rows[h]
            yield fg_then(rh), f_then(rows[rh[g]])


def _first_non_associative(decl, rows, cod, out_of):
    """The first triple on which (f;g);h and f;(g;h) differ, with f, g and h
    each running in declaration order."""
    for f in decl:
        for g in out_of[cod[f]]:
            fg = rows[g][f]
            for h in out_of[cod[g]]:
                rh = rows[h]
                if rh[fg] != rows[rh[g]][f]:
                    return f, g, h


# -- functors and natural transformations --------------------------------


FunctorData = namedtuple("FunctorData", "source target obj_map mor_map")


def validate_functor(source: FinCat, target: FinCat, obj_map: Mapping[str, str], mor_map: Mapping[str, str]) -> FunctorData:
    """Exhaustively check that the maps cover the source and name nothing
    else, and preserve dom, cod, identities and composition; NotAFunctor
    carries the first witness otherwise.  F(h;g) = F h ; F g is checked on
    the rows, source rows in order and each in its own order, with F as a
    list of target positions."""
    om = dict(obj_map)
    mm = dict(mor_map)
    for x in source.objects:
        if x not in om:
            raise NotAFunctor(x, "object not mapped")
        if not target.has_object(om[x]):
            raise NotAFunctor(x, f"image object {om[x]!r} not in target")
    if len(om) > len(source.objects):  # every object is mapped, and more
        raise NotAFunctor(next(x for x in om if not source.has_object(x)), "not an object of the source")
    for m in source.morphisms:
        if m.name not in mm:
            raise NotAFunctor(m.name, "morphism not mapped")
        fm = mm[m.name]
        if not target.has_morphism(fm):
            raise NotAFunctor(m.name, f"image morphism {fm!r} not in target")
        if target.dom(fm) != om[m.dom] or target.cod(fm) != om[m.cod]:
            raise NotAFunctor(m.name, "image morphism mistyped")
    if len(mm) > len(source.morphisms):
        raise NotAFunctor(next(m for m in mm if not source.has_morphism(m)), "not a morphism of the source")
    for x in source.objects:
        if mm[source.id_of(x)] != target.id_of(om[x]):
            raise NotAFunctor(x, "identity not preserved")
    image = [target.index[mm[m.name]] for m in source.morphisms]
    for g, row in enumerate(source.rows):
        fg = target.rows[image[g]]
        for h, hg in row.items():
            if fg[image[h]] != image[hg]:
                raise NotAFunctor((source.morphisms[h].name, source.morphisms[g].name), "composition not preserved")
    return FunctorData(source, target, om, mm)


def identity_functor(c: FinCat) -> FunctorData:
    return FunctorData(c, c, {x: x for x in c.objects}, {m.name: m.name for m in c.morphisms})


def compose_functors(first: FunctorData, second: FunctorData) -> FunctorData:
    """The composite "first then second", once both are checked
    (``validate_functor``)."""
    if first.target is not second.source and first.target != second.source:
        raise NotAFunctor("composite", "middle categories differ")
    for functor in (first, second):
        validate_functor(functor.source, functor.target, functor.obj_map, functor.mor_map)
    return FunctorData(
        first.source,
        second.target,
        {x: second.obj_map[y] for x, y in first.obj_map.items()},
        {m: second.mor_map[n] for m, n in first.mor_map.items()},
    )


NatTransData = namedtuple("NatTransData", "source target components")


def validate_nat_trans(source: FunctorData, target: FunctorData, components: Mapping[str, str]) -> NatTransData:
    """Check both functors (``validate_functor``), then each component's
    ends and each naturality square: NotNatural at the first that fails."""
    if source.source != target.source or source.target != target.target:
        raise NotNatural("functor boundaries differ")
    c = source.source
    d = source.target
    for functor in (source, target):
        validate_functor(c, d, functor.obj_map, functor.mor_map)
    comps = dict(components)
    for x in c.objects:
        a = comps.get(x)
        if a is None or not d.has_morphism(a) or d.dom(a) != source.obj_map[x] or d.cod(a) != target.obj_map[x]:
            raise NotNatural(x)
    at, rows = d.index, d.rows
    for m in c.morphisms:
        # F f ; alpha_y  ==  alpha_x ; G f
        left = rows[at[comps[m.cod]]][at[source.mor_map[m.name]]]
        right = rows[at[target.mor_map[m.name]]][at[comps[m.dom]]]
        if left != right:
            raise NotNatural(m.name)
    return NatTransData(source, target, comps)


# -- derived categories ---------------------------------------------------


def pair_names(pairs) -> list[str]:
    """The one rendering of pairs of names, for every module: "(a,b)" for
    each (a, b) in pairs, in order.  One call names a whole list, so there
    is no Python frame per pair, and each name is one f-string: on CPython
    3.11 ``str.format`` or ``%`` would parse their template for every
    pair, at twice the time."""
    return [f"({a},{b})" for a, b in pairs]


def _fibres(c: FinCat, x: str, k: int, over: str | None = None) -> tuple:
    """The fibres the category of elements of hom(-, x)^k draws its tuples
    from, k = 1 (the slice) or k = 2 (parallel arrows), as (y, fibre) in
    enumeration order: for each y in object order, the positions of the
    morphisms y -> x, ascending, as ``FinCat.homs`` holds them, each split
    by the value h;over when ``over`` is given, each part in the order of
    its first member.  An element is a k-tuple of one fibre, so the fibres
    are the partition that h |-> h;over induces on hom(-, x), and no name
    is read.  The sizes are checked on every call, against ``OBJECTS_CAP``
    and ``MORPHISMS_CAP``: an object y carries |F|^k tuples for each of its
    fibres F, and every morphism into y acts on each of them."""
    if not c.has_object(x):
        raise UnknownObject(x)
    fibres, into = c.homs[x], c.into
    if over is not None:
        after, split = c.rows[c.index[over]], []
        for y, hom in fibres:
            parts: dict[int, list[int]] = {}
            for h in hom:
                parts.setdefault(after[h], []).append(h)
            split += [(y, tuple(part)) for part in parts.values()]
        fibres = tuple(split)
    checks = [("objects", sum(len(fibre) ** k for _, fibre in fibres), OBJECTS_CAP),
              ("morphisms", sum(len(into[y]) * len(fibre) ** k for y, fibre in fibres), MORPHISMS_CAP)]
    point = x if over is None else over
    for part, n, cap in checks:
        if n > cap:
            raise SizeCapExceeded(f"{('slice', 'parallel arrows')[k - 1]} over {point!r} {part}", n, cap)
    return fibres


def _label(c: FinCat, over: str | None):
    """A slice object's name, by the position of its morphism h: the id of
    h, or the slice morphism h[g=>over], g = h;over, given ``over``."""
    mors = c.morphisms
    if over is None:
        return lambda h: mors[h].name
    after = c.rows[c.index[over]]
    return lambda h: f"{mors[h].name}[{mors[after[h]].name}=>{over}]"


def _named(c: FinCat, fibres: tuple, k: int, over: str | None) -> list[str]:
    """Each element's name, in walk order: the k-tuples of each fibre in
    turn.  A slice object is named by ``_label``, and a pair by
    ``pair_names`` of those; if a name repeats, the n-th rendered alike
    gets ``#n``, so distinct tuples stay apart."""
    label, names = _label(c, over), []
    for _, fibre in fibres:
        labels = list(map(label, fibre))
        names += labels if k == 1 else pair_names(product(labels, repeat=2))
    if len(set(names)) < len(names):  # a name repeats
        taken = set()
        for i, name in enumerate(names):
            n, free = 1, name
            while free in taken:
                n += 1
                free = f"{name}#{n}"
            taken.add(free)
            names[i] = free
    return names


def _apart(c: FinCat) -> dict:
    """For each suffix s a part of a derived name ends in (``[`` for either
    part of h[g=>f] or a pair of those, ``,`` for a and ``)`` for b in
    (a,b)), the objects x into which some morphism id, taken in id order,
    is the id just before it extended by a character at or below s.  A
    walk at any other x, whose parts are ids into x, is *ranked*: its
    derived names compare as their parts' ids do, first part first, and no
    two render alike, so its elements sort by position.  Checking each id
    against the one before it is enough: if ids a < b into x misorder with
    s appended, or clash with it, then b starts with a, and the id right
    after a also extends a, by a character at or below s."""
    names = [m.name for m in c.morphisms]
    return {s: {x for x, hs in c.into.items() if any(
        names[b].startswith(names[a]) and names[b][len(names[a])] <= s for a, b in zip(hs, hs[1:]))} for s in "[,)"}


class _WalkMemo:
    """The walks of the category last walked, by key, the objects it keeps
    apart (``_apart``), and what the reflections of its ranked walks keep,
    by walk key and lower set, tied to it by identity: a walk of another
    category starts the memo afresh, so nothing is handed to a category it
    was not taken on, and nothing outlives the next category walked.  An
    entry is kept whole while the elements kept (walked, or classes
    reflected) stay within ``OBJECTS_CAP``, a walk dropping the oldest
    first to make room, a reflection none; ``hits`` and ``misses`` count
    walk reads since the memo was built, ``reused`` reflections (renamed
    from what was kept) and ``fresh`` ones (built afresh), and ``named``
    the element names built.  Each read and count holds one lock, so
    threads that share the memo cannot interleave a switch of category
    with a read; a reflection counts the names it builds while it holds
    it.  Entries are shared by every reader of a key
    and must not be written to."""

    __slots__ = ("of", "apart", "walks", "kept", "hits", "misses", "reused", "fresh", "named", "lock")

    def __init__(self):
        self.of, self.apart, self.walks, self.kept = None, None, {}, 0
        self.hits = self.misses = self.reused = self.fresh = self.named = 0
        self.lock = RLock()

    def get(self, c: FinCat, key, walk):
        """The walk of c at ``key``, its element keys and their down-masks
        (and packed keys, from ``_walk``), taken by ``walk()`` on a miss,
        and ``_apart(c)``."""
        with self.lock:
            if self.of is not c:
                self.of, self.apart, self.walks, self.kept = c, _apart(c), {}, 0
            found = self.walks.get(key)
            if found is not None:
                self.hits += 1
                return found, self.apart
            self.misses += 1
            found = walk()
            n = len(found[1])
            if n <= OBJECTS_CAP:
                while self.kept + n > OBJECTS_CAP:
                    self.kept -= len(self.walks.pop(next(iter(self.walks)))[1])
                self.walks[key] = found
                self.kept += n
            return found, self.apart

    def reflect(self, at: tuple, low: int, reflect):
        """What ``reflect(kept)`` returns first, with kept what is kept at
        the lower set ``low`` (a down-mask) of the walk ``at`` (category,
        key, ranked), or None; it returns second None if it renamed kept,
        else what to keep where none is.  A reflection reads its base only
        through that lower set, so every base in one class shares the
        entry.  A walk that is not ranked keeps nothing."""
        c, key, ranked = at
        with self.lock:
            mine = self.of is c and ranked
            kept = self.walks.get((key, low)) if mine else None
            got, keep = reflect(kept)
            self.reused, self.fresh = self.reused + (keep is None), self.fresh + (keep is not None)
            if mine and kept is None and self.kept + len(keep[1]) <= OBJECTS_CAP:
                self.walks[key, low], self.kept = keep, self.kept + len(keep[1])
            return got

    def built(self, n: int) -> None:
        """Count n element names built."""
        with self.lock:
            self.named += n


_WALKS = _WalkMemo()


# A walk as an end reads it, by position: keys and down-masks, shared with
# ``_WALKS``; ``rank``, the sort key of a position, and ``names``, the
# names of a list of positions; and ``at``, where its reflections are kept:
# (c, key, ranked), ranked true where positions sort as names do.
Walk = namedtuple("Walk", "keys down rank names at")


def _read(names):
    """The names of a list of positions, read off ``names``."""
    return lambda ps: list(map(names.__getitem__, ps))


def _walk(c: FinCat, k: int, fibres: tuple):
    """The tuples of the category of elements of hom(-, x)^k over
    ``fibres``, in enumeration order, their down-masks and their packed
    keys: the walk without names.  A tuple t over y has one source h;t for
    each h into y, and its mask ORs the bits of them all.  Identities and
    composites make it reflexive and transitive.  A tuple of ints is keyed
    g_1*M + g_2 (g_1 if k = 1), M morphisms.  For a split epi h with section s, h;t and t
    reach each other along h and s, so t's mask is handed to h;t, which is
    then not walked.  The objects are walked in ascending count of
    morphisms into them, ties in object order: if h: z -> y is split epi,
    y is a retract of z, no more arrows go into y than into z, and so the
    masks go from the cheaper end to the dearer.  The tuples of a fibre
    partition are closed under every h;-, as h;t_1;over = h;t_2;over when
    t_1;over = t_2;over, so the walk never leaves them."""
    rows, size, into = c.rows, len(c.rows), c.into
    tuples, runs = [], {}  # each object's positions: one run, in object order
    for y, fibre in fibres:
        start = runs[y].start if y in runs else len(tuples)
        tuples += product(fibre, repeat=k)
        runs[y] = range(start, len(tuples))
    at = {t[0] if k == 1 else t[0] * size + t[1]: j for j, t in enumerate(tuples)}
    down = [0] * len(tuples)
    for y in sorted(runs, key=lambda y: len(into[y])):
        hs = into[y]
        split_at = [i for i, h in enumerate(hs) if h in c.split_epis]
        for e in runs[y]:
            if down[e]:
                continue
            t = tuples[e]
            r0, r1 = rows[t[0]], rows[t[-1]]
            sources = [at[r0[h]] for h in hs] if k == 1 else [at[r0[h] * size + r1[h]] for h in hs]
            mask = 0
            for j in sources:
                mask |= 1 << j
            for i in split_at:
                down[sources[i]] = mask
    return tuples, down, list(at)


def _elements_preorder(c: FinCat, x: str, k: int, base: int, over: str | None = None):
    """The reachability preorder of the category of elements of
    hom(-, x)^k, or of the tuples that ``over`` equalises, without its
    composition table, as a ``Walk`` of k-tuples of positions, and the
    position in it of (base, ..., base), read off the fibres.  The sizes
    are checked on every call (``_fibres``); the walk is read from
    ``_WALKS`` at the key (x, k, the fibres), so every morphism out of x
    that induces one partition of hom(-, x) shares one walk, and so does
    the partition by domain, which is what pi1 at x walks.  In a ranked
    walk, at an x that no suffix of its names keeps apart (``_apart``), a
    position sorts by its packed key, and only the names asked for are
    built.  Otherwise every element is named (``_named``) and sorts by its
    name."""
    fibres = _fibres(c, x, k, over)
    key, memo = (x, k, fibres), _WALKS
    (tuples, down, packed), apart = memo.get(c, key, lambda: _walk(c, k, fibres))
    i = next(i for i, (_, fibre) in enumerate(fibres) if base in fibre)
    n, j = len(fibres[i][1]), fibres[i][1].index(base)  # base is the j-th of n in its fibre
    at = sum(len(fibre) ** k for _, fibre in fibres[:i]) + (j if k == 1 else j * n + j)
    if any(x in apart[s] for s in ("[" if over is not None else "" if k == 1 else ",)")):
        names = _named(c, fibres, k, over)
        memo.built(len(names))
        return Walk(tuples, down, names.__getitem__, _read(names), (c, key, False)), at
    label = _label(c, over)

    def names(ps):
        memo.built(len(ps))
        if k == 1:
            return [label(tuples[p][0]) for p in ps]
        return pair_names([(label(a), label(b)) for a, b in map(tuples.__getitem__, ps)])

    return Walk(tuples, down, packed.__getitem__, names, (c, key, True)), at


def is_groupoid(c: FinCat) -> bool:
    """True iff every morphism has a two-sided inverse, that is iff every
    one is split epi: a section s of f has a section t, and f = t;s;f = t."""
    return len(c.split_epis) == len(c.morphisms)


# -- text format -----------------------------------------------------------
#
#   obj <id>
#   mor <id> : <dom> -> <cod>
#   id <obj> = <mor>
#   comp <f> ; <g> = <h>
#
# '#' starts a comment; blank lines are ignored.


_PARSE_MEMO = 4  # distinct texts kept parsed, the least recently read dropped


def parse_category(text: str) -> FinCat:
    """The category of a text, read once while the text is among the last
    ``_PARSE_MEMO`` read: a repeat returns the same immutable category.  A
    text that raises is never kept, so it raises alike on every call."""
    return _parse(text)


@lru_cache(maxsize=_PARSE_MEMO)
def _parse(text: str) -> FinCat:
    """Read the text format above in one pass, whatever its line order, into
    the tables ``validate_category`` takes, and validate them there.  Lines
    are split one at a time, comp and mor lines, the bulk of a file, tried
    first.  A line that does not parse or repeats a comp entry or an
    identity is a ParseError naming it, raised when the loop meets it."""
    objects: list[str] = []
    morphisms: list[tuple[str, str, str]] = []
    identity: dict[str, str] = {}
    comp: dict[tuple[str, str], str] = {}
    lines = text.splitlines()
    for lineno, line in enumerate([raw.partition("#")[0] for raw in lines] if "#" in text else lines, start=1):
        parts = line.split()
        if len(parts) == 6:
            tag, a, sep, b, eq, c = parts
            if tag == "comp" and sep == ";" and eq == "=":
                if (a, b) in comp:
                    raise ParseError(f"line {lineno}: duplicate composition entry {(a, b)!r}")
                comp[a, b] = c
                continue
            if tag == "mor" and sep == ":" and eq == "->":
                morphisms.append((a, b, c))
                continue
        elif not parts:
            continue
        elif parts[0] == "obj" and len(parts) == 2:
            objects.append(parts[1])
            continue
        elif parts[0] == "id" and len(parts) == 4 and parts[2] == "=":
            if parts[1] in identity:
                raise ParseError(f"line {lineno}: duplicate identity for {parts[1]!r}")
            identity[parts[1]] = parts[3]
            continue
        raise ParseError(f"line {lineno}: cannot parse {lines[lineno - 1].strip()!r}")
    return validate_category(objects, morphisms, identity, comp)


def check_label(text: str, what: str, fmt: str, breaks: tuple[str, ...]) -> None:
    """Refuse, with a ParseError naming it, a label that a ``fmt`` line would
    not read back verbatim: anything but one non-empty line without
    surrounding whitespace and without any of ``breaks``.  A space among the
    breaks bars all whitespace, for a format that splits lines into words."""
    whole = text.split() == [text] if " " in breaks else text == text.strip() and text.splitlines() == [text]
    if not whole or any(b in text for b in breaks):
        raise ParseError(f"{what} {text!r} would not read back from a {fmt} line")
