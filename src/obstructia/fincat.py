"""Finite categories as validated composition tables, plus derived categories.

A category is given extensionally: object ids, morphism ids with domain and
codomain, an identity table, and a composition table that is total exactly on
composable pairs.  ``comp[(f, g)]`` is the diagrammatic composite "f then g",
so it requires ``cod f == dom g`` and has domain ``dom f`` and codomain
``cod g``.  Everything is immutable after validation and safe to share.

Derived constructions name their objects and morphisms canonically so outputs
are reproducible byte for byte.  Besides the opposite, they are categories of
elements of hom(-, x)^k (the slice over x at k = 1, parallel arrows at k = 2):
one enumeration of the objects behind the size caps below and one walk over
the arrows, kept either as the reachability preorder, which is all the
invariants read, or as a materialised category with its composition table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

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


@dataclass(frozen=True)
class MorDecl:
    """A morphism declaration: name, domain object, codomain object."""

    name: str
    dom: str
    cod: str


# Guards on a derived category, predicted from hom-set cardinalities before
# anything is built, so hitting one is cheap: its objects, its morphisms (the
# arrows walked) and its composition entries.  The last guards materialised
# tables only; the invariants read reachability alone and are not bound by
# it.  ``homotopy.pi1`` and ``homotopy.analyze_morphism`` take the object
# cap as a parameter.
OBJECTS_CAP = 20_000
MORPHISMS_CAP = 50_000
COMP_ENTRIES_CAP = 600_000


@dataclass(frozen=True)
class FinCat:
    """Storage is canonical (objects and morphisms sorted by id), so two
    categories with the same tables compare equal however they were built.
    The tables are read-only views, so nothing derived from them goes stale."""

    objects: tuple[str, ...]
    morphisms: tuple[MorDecl, ...]
    identity: Mapping[str, str]
    comp: Mapping[tuple[str, str], str]
    _dom: dict[str, str] = field(init=False, repr=False, compare=False)
    _cod: dict[str, str] = field(init=False, repr=False, compare=False)
    _hom: dict[tuple[str, str], tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dom = {m.name: m.dom for m in self.morphisms}
        cod = {m.name: m.cod for m in self.morphisms}
        hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            hom.setdefault((m.dom, m.cod), []).append(m.name)
        object.__setattr__(self, "_dom", dom)
        object.__setattr__(self, "_cod", cod)
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in hom.items()})
        object.__setattr__(self, "identity", MappingProxyType(self.identity))
        object.__setattr__(self, "comp", MappingProxyType(self.comp))

    @cached_property
    def interned(self) -> tuple[dict[str, int], list[dict[int, int]], dict[str, list[int]]]:
        """The morphisms as ints, their positions in ``morphisms``: the index,
        one row per morphism g mapping each h into dom g to h;g, and the
        morphisms into each object in that order."""
        index = {m.name: i for i, m in enumerate(self.morphisms)}
        rows: list[dict[int, int]] = [{} for _ in self.morphisms]
        for (h, g), hg in self.comp.items():
            rows[index[g]][index[h]] = index[hg]
        into: dict[str, list[int]] = {x: [] for x in self.objects}
        for i, m in enumerate(self.morphisms):
            into[m.cod].append(i)
        return index, rows, into

    # -- lookups ---------------------------------------------------------

    def dom(self, m: str) -> str:
        if m not in self._dom:
            raise UnknownMorphism(m)
        return self._dom[m]

    def cod(self, m: str) -> str:
        if m not in self._cod:
            raise UnknownMorphism(m)
        return self._cod[m]

    def has_object(self, x: str) -> bool:
        return x in self.identity

    def has_morphism(self, m: str) -> bool:
        return m in self._dom

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def id_of(self, x: str) -> str:
        if x not in self.identity:
            raise UnknownObject(x)
        return self.identity[x]

    def morphism_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.morphisms)


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
    triple.
    """
    objs = tuple(objects)
    seen = set()
    for x in objs:
        if x in seen:
            raise DanglingReference(f"duplicate object id {x!r}")
        seen.add(x)
    obj_set = set(objs)

    mors = tuple(MorDecl(*m) for m in morphisms)
    dom = {}
    cod = {}
    for m in mors:
        if m.name in dom:
            raise DanglingReference(f"duplicate morphism id {m.name!r}")
        if m.dom not in obj_set:
            raise DanglingReference(f"morphism {m.name!r} has unknown domain {m.dom!r}")
        if m.cod not in obj_set:
            raise DanglingReference(f"morphism {m.name!r} has unknown codomain {m.cod!r}")
        dom[m.name] = m.dom
        cod[m.name] = m.cod

    ident = dict(identity)
    for x, i in ident.items():
        if x not in obj_set:
            raise DanglingReference(f"identity declared for unknown object {x!r}")
        if i not in dom:
            raise DanglingReference(f"identity of {x!r} is unknown morphism {i!r}")
    for x in objs:
        if x not in ident:
            raise MissingIdentity(x, "no identity declared")
        i = ident[x]
        if dom[i] != x or cod[i] != x:
            raise MissingIdentity(x, f"identity {i!r} is not an endomorphism of {x!r}")

    table = dict(comp)
    row: dict[str, dict[str, str]] = {m: {} for m in dom}  # row[f][g] = f;g
    for (f, g), h in table.items():
        if f not in dom:
            raise DanglingReference(f"composition entry uses unknown morphism {f!r}")
        if g not in dom:
            raise DanglingReference(f"composition entry uses unknown morphism {g!r}")
        if h not in dom:
            raise DanglingReference(f"composite {h!r} is not a declared morphism")
        if cod[f] != dom[g]:
            raise BadCompositionTyping(f"entry ({f!r}, {g!r}) is not a composable pair")
        if dom[h] != dom[f] or cod[h] != cod[g]:
            raise BadCompositionTyping(
                f"composite of ({f!r}, {g!r}) must go {dom[f]!r} -> {cod[g]!r}, got {h!r}"
            )
        row[f][g] = h
    # Totality through adjacency: out_of keeps declaration order, so the first
    # missing pair is the one an all-pairs scan would find.
    out_of: dict[str, list[str]] = {x: [] for x in objs}
    for m in dom:
        out_of[dom[m]].append(m)
    for f in dom:
        for g in out_of[cod[f]]:
            if g not in row[f]:
                raise BadCompositionTyping(f"missing composite for composable pair ({f!r}, {g!r})")

    for m in dom:
        left = row[ident[dom[m]]][m]
        if left != m:
            raise MissingIdentity(m, f"comp(id, {m!r}) = {left!r}")
        right = row[m][ident[cod[m]]]
        if right != m:
            raise MissingIdentity(m, f"comp({m!r}, id) = {right!r}")

    # Associativity by F. W. Light's test (Clifford & Preston, The Algebraic
    # Theory of Semigroups I, 1.2).  With the identity laws in hand, the
    # middles t with (f;t);h = f;(t;h) for all f, h contain the identities and
    # are closed under composition, so generator middles suffice.  A failure
    # reruns the scan over every middle for its first failing triple.
    if next(_non_associative(_triples(_generators(dom, cod, ident, row), dom, cod, out_of), row), None):
        raise NonAssociative(*next(_non_associative(_triples(dom, dom, cod, out_of), row)))

    return FinCat(tuple(sorted(objs)), tuple(sorted(mors, key=lambda m: m.name)), ident, table)


def _generators(dom, cod, ident, row) -> set:
    """A generating set, by a greedy semi-naive closure: walk the morphisms
    in declaration order, the identities reached from the start, and make
    each one not yet reached a generator.  A morphism entering the closure
    is composed on both sides with those that entered before it (and with
    itself), so each composable pair of the closure is composed once."""
    reached, gens = set(ident.values()), set()
    ends, starts = {}, {}  # object -> closure morphisms into it, out of it
    for m in dom:
        queue = [] if m in reached else [m]
        gens.update(queue)
        reached.update(queue)
        while queue:
            a = queue.pop()
            ends.setdefault(cod[a], []).append(a)
            starts.setdefault(dom[a], []).append(a)
            new = {row[b][a] for b in ends.get(dom[a], ())} | {row[a][b] for b in starts.get(cod[a], ())}
            queue += new - reached
            reached |= new
    return gens


def _triples(middles, dom, cod, out_of):
    """The composable triples (f, g, h) with g in middles, as (f, g, hs) with
    hs every h: f, g and h each run in declaration order."""
    for f in dom:
        for g in out_of[cod[f]]:
            if g in middles:
                yield f, g, out_of[cod[g]]


def _non_associative(triples, row):
    """The triples on which (f;g);h and f;(g;h) differ, in order."""
    for f, g, hs in triples:
        rf, rg, rfg = row[f], row[g], row[row[f][g]]
        for h in hs:
            if rfg[h] != rf[rg[h]]:
                yield f, g, h


def _build(objects, morphisms, identity, comp) -> FinCat:
    """Construct without re-running the validator (derived categories are
    correct by construction; tests re-validate small instances)."""
    mors = tuple(sorted((MorDecl(*m) for m in morphisms), key=lambda m: m.name))
    return FinCat(tuple(sorted(objects)), mors, dict(identity), dict(comp))


# -- functors and natural transformations --------------------------------


@dataclass(frozen=True)
class FunctorData:
    source: FinCat
    target: FinCat
    obj_map: dict[str, str]
    mor_map: dict[str, str]


def validate_functor(source: FinCat, target: FinCat, obj_map: Mapping[str, str], mor_map: Mapping[str, str]) -> FunctorData:
    """Exhaustively check that the maps preserve dom, cod, identities and
    composition; NotAFunctor carries the first witness otherwise."""
    om = dict(obj_map)
    mm = dict(mor_map)
    for x in source.objects:
        if x not in om:
            raise NotAFunctor(x, "object not mapped")
        if not target.has_object(om[x]):
            raise NotAFunctor(x, f"image object {om[x]!r} not in target")
    for m in source.morphisms:
        if m.name not in mm:
            raise NotAFunctor(m.name, "morphism not mapped")
        fm = mm[m.name]
        if not target.has_morphism(fm):
            raise NotAFunctor(m.name, f"image morphism {fm!r} not in target")
        if target.dom(fm) != om[m.dom] or target.cod(fm) != om[m.cod]:
            raise NotAFunctor(m.name, "image morphism mistyped")
    for x in source.objects:
        if mm[source.id_of(x)] != target.id_of(om[x]):
            raise NotAFunctor(x, "identity not preserved")
    for (f, g), h in source.comp.items():
        if target.comp[(mm[f], mm[g])] != mm[h]:
            raise NotAFunctor((f, g), "composition not preserved")
    return FunctorData(source, target, om, mm)


def identity_functor(c: FinCat) -> FunctorData:
    return FunctorData(c, c, {x: x for x in c.objects}, {m.name: m.name for m in c.morphisms})


def compose_functors(first: FunctorData, second: FunctorData) -> FunctorData:
    if first.target is not second.source and first.target != second.source:
        raise NotAFunctor("composite", "middle categories differ")
    return FunctorData(
        first.source,
        second.target,
        {x: second.obj_map[y] for x, y in first.obj_map.items()},
        {m: second.mor_map[n] for m, n in first.mor_map.items()},
    )


@dataclass(frozen=True)
class NatTransData:
    source: FunctorData
    target: FunctorData
    components: dict[str, str]


def validate_nat_trans(source: FunctorData, target: FunctorData, components: Mapping[str, str]) -> NatTransData:
    if source.source != target.source or source.target != target.target:
        raise NotNatural("functor boundaries differ")
    c = source.source
    d = source.target
    comps = dict(components)
    for x in c.objects:
        if x not in comps:
            raise NotNatural(x)
        a = comps[x]
        if not d.has_morphism(a):
            raise NotNatural(x)
        if d.dom(a) != source.obj_map[x] or d.cod(a) != target.obj_map[x]:
            raise NotNatural(x)
    for m in c.morphisms:
        # F f ; alpha_y  ==  alpha_x ; G f
        left = d.comp[(source.mor_map[m.name], comps[m.cod])]
        right = d.comp[(comps[m.dom], target.mor_map[m.name])]
        if left != right:
            raise NotNatural(m.name)
    return NatTransData(source, target, comps)


# -- derived categories ---------------------------------------------------


def opposite(c: FinCat) -> FinCat:
    """Reverse every arrow; an involution on the nose."""
    mors = tuple((m.name, m.cod, m.dom) for m in c.morphisms)
    comp = {(g, f): h for (f, g), h in c.comp.items()}
    return _build(c.objects, mors, c.identity, comp)


def _fresh_name(base: str, used: set) -> str:
    name = base
    n = 1
    while name in used:
        n += 1
        name = f"{base}#{n}"
    used.add(name)
    return name


class ElementsCategory(NamedTuple):
    """A category of elements of hom(-, x)^k with its projection to c.
    ``elements`` maps each object name to its k-tuple of morphisms into x."""

    cat: FinCat
    projection: FunctorData
    elements: dict[str, tuple[str, ...]]


def pair_name(f0: str, f1: str) -> str:
    """The one rendering of a pair of names, for every module."""
    return f"({f0},{f1})"


def _enumerate(c: FinCat, x: str, k: int, table: bool, over: str | None = None, cap_objects: int = OBJECTS_CAP):
    """Objects of the category of elements of hom(-, x)^k, k = 1 (the slice)
    or k = 2 (parallel arrows), and the walk over its arrows: ``elements``
    maps each name to its k-tuple (f_1, .., f_k): y -> x.  Given ``over``,
    only tuples with one g = f_i;over are kept, named as slice morphisms
    f_i[g=>over].  A slice object is named by its morphism id, a pair by
    ``pair_name``; ``_fresh_name`` keeps distinct pairs apart when two
    render alike.  The sizes are checked first, the objects against
    ``cap_objects``, the composition entries only when a ``table`` will be
    built."""
    if not c.has_object(x):
        raise UnknownObject(x)
    index, _, into = c.interned

    # Predicted sizes from hom-set cardinalities only: an object z carries
    # |F|^k tuples for each fibre F of hom(z, x) (all of it, or one fibre per
    # value of f;over), and every morphism into z acts on each of them.
    fibres: dict[str, dict] = {z: {} for z in c.objects}
    for z in c.objects:
        for f in c.hom(z, x):
            fibres[z].setdefault(None if over is None else c.comp[f, over], []).append(f)
    weight = {z: sum(len(fb) ** k for fb in fibres[z].values()) for z in c.objects}
    outp = dict.fromkeys(c.objects, 0)
    for m in c.morphisms:
        outp[m.dom] += weight[m.cod]
    checks = [("objects", sum(weight.values()), cap_objects),
              ("morphisms", sum(len(into[z]) * weight[z] for z in c.objects), MORPHISMS_CAP)]
    if table:
        checks.append(("composition entries", sum(len(into[z]) * outp[z] for z in c.objects), COMP_ENTRIES_CAP))
    point = x if over is None else over
    for part, n, cap in checks:
        if n > cap:
            raise SizeCapExceeded(f"{('slice', 'parallel arrows')[k - 1]} over {point!r} {part}", n, cap)

    used: set = set()
    elements: dict[str, tuple[str, ...]] = {}
    tuples: list[tuple[str, tuple[int, ...]]] = []  # (domain, interned tuple) per element
    for y in c.objects:
        for g, fibre in fibres[y].items():
            ids = [index[f] for f in fibre]
            for t, it in zip(product(fibre, repeat=k), product(ids, repeat=k)):
                parts = t if over is None else [f"{f}[{g}=>{over}]" for f in t]
                elements[_fresh_name(parts[0] if k == 1 else pair_name(*parts), used)] = t
                tuples.append((y, it))
    return elements, _arrows(c, tuples)


def _arrows(c: FinCat, tuples):
    """Walk the morphisms of the category of elements over the interned
    tables.  For each target tuple t, in order, yield the morphisms h into
    its domain and, for each, the position of its source h;t: a k-tuple of
    ints g is looked up by its code g_1*M + g_2 (g_1 when k = 1), M the
    number of morphisms."""
    _, rows, into = c.interned
    size = len(rows)
    at = {t[0] if len(t) == 1 else t[0] * size + t[1]: j for j, (_, t) in enumerate(tuples)}
    for y, t in tuples:
        hs, r0, r1 = into[y], rows[t[0]], rows[t[-1]]
        if len(t) == 1:
            yield hs, [at[r0[h]] for h in hs]
        else:
            yield hs, [at[r0[h] * size + r1[h]] for h in hs]


def _elements_preorder(c: FinCat, x: str, k: int, over: str | None = None, cap_objects: int = OBJECTS_CAP):
    """The reachability preorder of the category of elements of hom(-, x)^k,
    without its composition table: ``elements`` and, in that order, their
    down-masks (bit j set when element j has a morphism to it).  Identities
    and composites make it reflexive and transitive: no closure is needed."""
    elements, arrows = _enumerate(c, x, k, False, over, cap_objects)
    down = []
    for _, sources in arrows:
        mask = 0
        for j in sources:
            mask |= 1 << j
        down.append(mask)
    return elements, down


def _elements_category(c: FinCat, x: str, k: int) -> ElementsCategory:
    """Materialised category of elements of hom(-, x)^k: a morphism to the
    tuple (g_1, .., g_k) is an h with h;g_i = f_i for every i, and the
    projection sends a tuple to its domain and each morphism to its witness h."""
    elements, arrows = _enumerate(c, x, k, True)
    names = list(elements)
    used: set = set()
    mors = []
    witness: dict[str, tuple[str, str, str]] = {}
    by_key: dict[tuple[str, str, str], str] = {}
    incoming: dict[str, list[str]] = {p: [] for p in elements}
    outgoing: dict[str, list[str]] = {p: [] for p in elements}
    for tgt, (hs, sources) in zip(names, arrows):
        for i, j in zip(hs, sources):
            src, h = names[j], c.morphisms[i].name
            name = _fresh_name(f"{h}[{src}=>{tgt}]", used)
            mors.append((name, src, tgt))
            witness[name] = (src, h, tgt)
            by_key[(src, h, tgt)] = name
            incoming[tgt].append(name)
            outgoing[src].append(name)

    ident = {p: by_key[(p, c.id_of(c.dom(t[0])), p)] for p, t in elements.items()}

    comp = {}
    for mid in elements:
        for m1 in incoming[mid]:
            src, h1, _ = witness[m1]
            for m2 in outgoing[mid]:
                _, h2, tgt = witness[m2]
                comp[(m1, m2)] = by_key[(src, c.comp[(h1, h2)], tgt)]

    cat = _build(elements, mors, ident, comp)
    projection = FunctorData(
        cat, c, {p: c.dom(t[0]) for p, t in elements.items()}, {name: w[1] for name, w in witness.items()}
    )
    return ElementsCategory(cat, projection, elements)


def slice_category(c: FinCat, x: str) -> ElementsCategory:
    """The slice over x: objects are the morphisms into x (k = 1)."""
    return _elements_category(c, x, 1)


def parallel_arrows(c: FinCat, x: str) -> ElementsCategory:
    """Category of ordered parallel pairs (f0, f1): y -> x (k = 2)."""
    return _elements_category(c, x, 2)


def is_groupoid(c: FinCat) -> bool:
    """True iff every morphism has a two-sided inverse in the table."""
    for m in c.morphisms:
        if not any(
            c.comp[(m.name, g)] == c.id_of(m.dom) and c.comp[(g, m.name)] == c.id_of(m.cod)
            for g in c.hom(m.cod, m.dom)
        ):
            return False
    return True


# -- text format -----------------------------------------------------------
#
#   obj <id>
#   mor <id> : <dom> -> <cod>
#   id <obj> = <mor>
#   comp <f> ; <g> = <h>
#
# '#' starts a comment; blank lines are ignored.


def parse_category(text: str) -> FinCat:
    objects: list[str] = []
    morphisms: list[tuple[str, str, str]] = []
    identity: dict[str, str] = {}
    comp: dict[tuple[str, str], str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "obj" and len(parts) == 2:
                objects.append(parts[1])
            elif parts[0] == "mor" and len(parts) == 6 and parts[2] == ":" and parts[4] == "->":
                morphisms.append((parts[1], parts[3], parts[5]))
            elif parts[0] == "id" and len(parts) == 4 and parts[2] == "=":
                if parts[1] in identity:
                    raise ParseError(f"line {lineno}: duplicate identity for {parts[1]!r}")
                identity[parts[1]] = parts[3]
            elif parts[0] == "comp" and len(parts) == 6 and parts[2] == ";" and parts[4] == "=":
                key = (parts[1], parts[3])
                if key in comp:
                    raise ParseError(f"line {lineno}: duplicate composition entry {key!r}")
                comp[key] = parts[5]
            else:
                raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
        except IndexError:
            raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
    return validate_category(objects, morphisms, identity, comp)


def serialize_category(c: FinCat) -> str:
    lines = [f"obj {x}" for x in sorted(c.objects)]
    lines += [f"mor {m.name} : {m.dom} -> {m.cod}" for m in sorted(c.morphisms, key=lambda m: m.name)]
    lines += [f"id {x} = {c.identity[x]}" for x in sorted(c.identity)]
    lines += [f"comp {f} ; {g} = {h}" for (f, g), h in sorted(c.comp.items())]
    return "\n".join(lines) + "\n"
