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
wrong with tables that raise.  A bounded memo keyed by the whole text hands a
repeat the immutable category its first read checked; failures and query
results are not kept.  Derived constructions name their objects and
morphisms canonically so outputs are reproducible byte for byte.  They are
categories of elements of hom(-, x)^k (the slice over x at k = 1, parallel
arrows at k = 2): one enumeration behind the size caps below and one walk
over the rows that hands each down-set along ``FinCat.split_epis``, the
preorder ``order.pointed_reflection`` points.  The tests keep the ``.cat``
writer and the opposite, and, as oracles, the walk over every arrow, the
composition tables of the derived categories, the table keyed by names and
the functor and naturality checks by name.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property, lru_cache
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


class FinCat(namedtuple("FinCat", "objects morphisms identity rows index into")):
    """Storage is canonical: objects and morphisms sorted by id, and the one
    composition table ``rows``, where ``rows[g][h]`` is h;g for the
    positions g and h in ``morphisms``.  So two categories with the same
    tables compare equal however they were built.  The one index is built
    from them here: ``index``, each morphism's position by name, and
    ``into``, the positions into each object, ascending; as it follows from
    the tables, it changes no comparison.  ``identity`` is a read-only
    view; the rows are a tuple of plain dicts, which must not be written
    to.  Composition is read from the rows alone: names are looked up only
    to read arguments and to write results and errors."""

    def __new__(cls, objects, morphisms, identity, rows):
        into: dict[str, list[int]] = {x: [] for x in objects}
        for i, m in enumerate(morphisms):
            into[m.cod].append(i)
        index = {m.name: i for i, m in enumerate(morphisms)}
        return super().__new__(cls, objects, morphisms, MappingProxyType(identity), rows, index, {x: tuple(v) for x, v in into.items()})

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

    @cached_property
    def split_epis(self) -> frozenset[int]:
        """The split epimorphisms, as positions: h: z -> y is one iff
        id_y = s;h for some s in h's row, a section of h."""
        index = self.index
        return frozenset(h for h, (m, row) in enumerate(zip(self.morphisms, self.rows)) if index[self.identity[m.cod]] in row.values())


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


def pair_name(f0: str, f1: str) -> str:
    """The one rendering of a pair of names, for every module."""
    return f"({f0},{f1})"


def _enumerate(c: FinCat, x: str, k: int, over: str | None = None):
    """Objects of the category of elements of hom(-, x)^k, k = 1 (the slice)
    or k = 2 (parallel arrows): ``elements`` maps each name to its k-tuple
    (f_1, .., f_k): y -> x of positions, and ``tuples`` lists, in that
    order, each y with its tuple.  Given ``over``, only tuples with one
    g = f_i;over are kept, named as slice morphisms f_i[g=>over].  The
    fibres are read off ``into[x]`` and the row of ``over``; names are read
    only to name the elements.  A slice object is named by its morphism id,
    a pair by ``pair_name``; if a name repeats, the n-th rendered alike
    gets ``#n``, so distinct pairs stay apart.  The sizes are checked
    first, against ``OBJECTS_CAP`` and ``MORPHISMS_CAP``."""
    if not c.has_object(x):
        raise UnknownObject(x)
    mors, into = c.morphisms, c.into

    # Predicted sizes from hom-set cardinalities only: an object z carries
    # |F|^k tuples for each fibre F of hom(z, x) (all of it, or one fibre per
    # value of f;over), and every morphism into z acts on each of them.
    fibres: dict[str, dict] = {z: {} for z in c.objects}
    after = None if over is None else c.rows[c.index[over]]
    for f in into[x]:
        fibres[mors[f].dom].setdefault(None if after is None else after[f], []).append(f)
    weight = {z: sum(len(fb) ** k for fb in fibres[z].values()) for z in c.objects}
    checks = [("objects", sum(weight.values()), OBJECTS_CAP),
              ("morphisms", sum(len(into[z]) * weight[z] for z in c.objects), MORPHISMS_CAP)]
    point = x if over is None else over
    for part, n, cap in checks:
        if n > cap:
            raise SizeCapExceeded(f"{('slice', 'parallel arrows')[k - 1]} over {point!r} {part}", n, cap)

    names, tuples = [], []  # each element's name, and its (domain, tuple)
    for y in c.objects:
        for g, fibre in fibres[y].items():
            labels = [mors[f].name if over is None else f"{mors[f].name}[{mors[g].name}=>{over}]" for f in fibre]
            names += labels if k == 1 else [pair_name(*parts) for parts in product(labels, repeat=2)]
            tuples += [(y, t) for t in product(fibre, repeat=k)]
    elements = dict(zip(names, map(itemgetter(1), tuples)))
    if len(elements) < len(names):  # a name repeats
        elements = {}
        for name, (_, t) in zip(names, tuples):
            n, free = 1, name
            while free in elements:
                n += 1
                free = f"{name}#{n}"
            elements[free] = t
    return elements, tuples


def _elements_preorder(c: FinCat, x: str, k: int, over: str | None = None):
    """The reachability preorder of the category of elements of hom(-, x)^k,
    without its composition table: ``elements`` and, in that order, their
    down-masks, a tuple t's mask the OR of bit j for each source h;t at j (h
    into dom t).  Identities and composites make it reflexive and transitive.
    A tuple of ints is keyed g_1*M + g_2 (g_1 if k = 1), M morphisms.  For a
    split epi h with section s, h;t and t reach each other along h and s, so
    t's mask is handed to its sources along split epis, which are not walked.
    Objects go in ascending count of morphisms into them: a retract first."""
    elements, tuples = _enumerate(c, x, k, over)
    rows, into = c.rows, c.into
    size = len(rows)
    at = {t[0] if k == 1 else t[0] * size + t[1]: j for j, (_, t) in enumerate(tuples)}
    split_at = {y: [i for i, h in enumerate(hs) if h in c.split_epis] for y, hs in into.items()}
    down = [0] * len(tuples)
    weight = [len(into[y]) for y, _ in tuples]
    for e in sorted(range(len(tuples)), key=weight.__getitem__):
        if down[e]:
            continue
        y, t = tuples[e]
        hs, r0, r1 = into[y], rows[t[0]], rows[t[-1]]
        sources = [at[r0[h]] for h in hs] if k == 1 else [at[r0[h] * size + r1[h]] for h in hs]
        mask = 0
        for j in sources:
            mask |= 1 << j
        for i in split_at[y]:
            down[sources[i]] = mask
    return elements, down


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
