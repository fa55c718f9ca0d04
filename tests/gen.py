"""Seeded generators for random categories, functors, natural
transformations and open graphs, the finite skeleton of the category of
sets that the finite-set fast paths are checked against, and the writers
of the ``.cat`` and ``.fn`` inputs that tests build.

Validity by construction: free categories on acyclic multigraphs, known
monoid/group tables, free (co)terminal extensions, disjoint unions,
products and opposites.  Every generated value still goes through the
exhaustive validators, so a generator bug cannot silently leak.
"""

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

import oracles
from obstructia import fincat, homotopy, opengraph, order, setcat, states
from obstructia.errors import CapExceeded

# -- building blocks -------------------------------------------------------


@dataclass(frozen=True)
class FreeCat:
    cat: fincat.FinCat
    edges: tuple  # (name, dom, cod) generator edges
    paths: dict  # morphism name -> tuple of edge names


def _path_name(obj: str, edge_seq: tuple) -> str:
    if not edge_seq:
        return f"id_{obj}"
    return "-".join(edge_seq)


def free_dag_category(rng, max_objects=4, max_edges=4, max_morphisms=22) -> FreeCat:
    while True:
        n = rng.randint(1, max_objects)
        objects = [f"o{i}" for i in range(n)]
        edges = []
        for j in range(rng.randint(0, max_edges)):
            if n < 2:
                break
            i1 = rng.randrange(n - 1)
            i2 = rng.randrange(i1 + 1, n)
            edges.append((f"e{j}", f"o{i1}", f"o{i2}"))

        succ = {}
        for name, u, v in edges:
            succ.setdefault(u, []).append((name, v))

        paths = {}  # name -> (dom, cod, edge seq)
        for obj in objects:
            stack = [(obj, ())]
            while stack:
                at, seq = stack.pop()
                paths[_path_name(obj, seq)] = (obj, at, seq)
                for name, v in succ.get(at, ()):
                    stack.append((v, seq + (name,)))
        if len(paths) > max_morphisms:
            continue

        morphisms = [(nm, d, c) for nm, (d, c, _) in paths.items()]
        identity = {obj: f"id_{obj}" for obj in objects}
        comp = {}
        for n1, (d1, c1, s1) in paths.items():
            for n2, (d2, c2, s2) in paths.items():
                if c1 == d2:
                    comp[(n1, n2)] = _path_name(d1, s1 + s2)
        cat = fincat.validate_category(objects, morphisms, identity, comp)
        return FreeCat(cat, tuple(edges), {nm: p[2] for nm, p in paths.items()})


def _table_category(obj: str, elements, op) -> fincat.FinCat:
    mors = [(e, obj, obj) for e in elements]
    comp = {(a, b): op(a, b) for a in elements for b in elements}
    return fincat.validate_category([obj], mors, {obj: elements[0]}, comp)


def cyclic_group_category(n: int, obj: str = "*") -> fincat.FinCat:
    elems = [f"g{k}" if k else "e" for k in range(n)]

    def op(a, b):
        ka = 0 if a == "e" else int(a[1:])
        kb = 0 if b == "e" else int(b[1:])
        return elems[(ka + kb) % n]

    return _table_category(obj, elems, op)


def klein_four_category(obj: str = "*") -> fincat.FinCat:
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b", ("e", "c"): "c",
        ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "c", ("a", "c"): "b",
        ("b", "e"): "b", ("b", "a"): "c", ("b", "b"): "e", ("b", "c"): "a",
        ("c", "e"): "c", ("c", "a"): "b", ("c", "b"): "a", ("c", "c"): "e",
    }
    return _table_category(obj, ["e", "a", "b", "c"], lambda a, b: table[(a, b)])


def idempotent_monoid_category(obj: str = "*") -> fincat.FinCat:
    return _table_category(obj, ["e", "p"], lambda a, b: b if b != "e" else a)


def flipflop_monoid_category(obj: str = "*") -> fincat.FinCat:
    return _table_category(obj, ["e", "p", "q"], lambda a, b: b if b != "e" else a)


def disjoint_union(c1: fincat.FinCat, c2: fincat.FinCat, p1="A.", p2="B.") -> fincat.FinCat:
    objects = [p1 + x for x in c1.objects] + [p2 + x for x in c2.objects]
    morphisms = [(p1 + m.name, p1 + m.dom, p1 + m.cod) for m in c1.morphisms]
    morphisms += [(p2 + m.name, p2 + m.dom, p2 + m.cod) for m in c2.morphisms]
    identity = {p1 + x: p1 + i for x, i in c1.identity.items()}
    identity.update({p2 + x: p2 + i for x, i in c2.identity.items()})
    comp = {(p1 + f, p1 + g): p1 + h for (f, g), h in oracles.comp(c1).items()}
    comp.update({(p2 + f, p2 + g): p2 + h for (f, g), h in oracles.comp(c2).items()})
    return fincat.validate_category(objects, morphisms, identity, comp)


def free_terminal_extension(c: fincat.FinCat, t: str = "T"):
    """Freely add a terminal object; returns (category, its name, bang map)."""
    while c.has_object(t):
        t += "'"
    objects = list(c.objects) + [t]
    taken = set(morphism_names(c))
    prefix = "!"
    while any(f"{prefix}{x}" in taken for x in objects):
        prefix += "!"
    bang = {x: f"{prefix}{x}" for x in objects}
    morphisms = [(m.name, m.dom, m.cod) for m in c.morphisms]
    morphisms += [(bang[x], x, t) for x in objects]
    identity = dict(c.identity)
    identity[t] = bang[t]
    comp = dict(oracles.comp(c))
    for m in c.morphisms:
        comp[(m.name, bang[m.cod])] = bang[m.dom]
    for x in objects:
        comp[(bang[x], bang[t])] = bang[x]
    return fincat.validate_category(objects, morphisms, identity, comp), t, bang


def add_free_terminal(c: fincat.FinCat, t: str = "T") -> fincat.FinCat:
    return free_terminal_extension(c, t)[0]


def add_free_initial(c: fincat.FinCat, s: str = "I") -> fincat.FinCat:
    return opposite(add_free_terminal(opposite(c), s))


def opposite(c: fincat.FinCat) -> fincat.FinCat:
    """Reverse every arrow; an involution on the nose.  The morphisms keep
    their positions, and the rows are transposed: f;g = h in c is g;f = h
    in the opposite."""
    rows: list[dict[int, int]] = [{} for _ in c.rows]
    for g, row in enumerate(c.rows):
        for f, h in row.items():
            rows[f][g] = h
    return fincat.FinCat(c.objects, tuple(fincat.MorDecl(m.name, m.cod, m.dom) for m in c.morphisms), dict(c.identity), tuple(rows))


def product_category(c1: fincat.FinCat, c2: fincat.FinCat) -> fincat.FinCat:
    objects = [f"{x}*{y}" for x in c1.objects for y in c2.objects]
    morphisms = [
        (f"{m1.name}*{m2.name}", f"{m1.dom}*{m2.dom}", f"{m1.cod}*{m2.cod}")
        for m1 in c1.morphisms
        for m2 in c2.morphisms
    ]
    identity = {
        f"{x}*{y}": f"{c1.identity[x]}*{c2.identity[y]}" for x in c1.objects for y in c2.objects
    }
    comp, t2 = {}, oracles.comp(c2)
    for (f1, g1), h1 in oracles.comp(c1).items():
        for (f2, g2), h2 in t2.items():
            comp[(f"{f1}*{f2}", f"{g1}*{g2}")] = f"{h1}*{h2}"
    return fincat.validate_category(objects, morphisms, identity, comp)


def walking_isomorphism() -> fincat.FinCat:
    """Two distinct objects a and b with inverse isomorphisms f: a -> b and
    g: b -> a."""
    comp = {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("ida", "f"): "f", ("f", "idb"): "f",
            ("idb", "g"): "g", ("g", "ida"): "g", ("f", "g"): "ida", ("g", "f"): "idb"}
    mors = [("ida", "a", "a"), ("idb", "b", "b"), ("f", "a", "b"), ("g", "b", "a")]
    return fincat.validate_category(["a", "b"], mors, {"a": "ida", "b": "idb"}, comp)


def retraction_category() -> fincat.FinCat:
    """A retract a of b: s: a -> b and r: b -> a with s;r = id_a, while
    r;s = e is an idempotent other than id_b."""
    mors = [("ida", "a", "a"), ("idb", "b", "b"), ("s", "a", "b"), ("r", "b", "a"), ("e", "b", "b")]
    comp = {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("ida", "s"): "s", ("s", "idb"): "s",
            ("idb", "r"): "r", ("r", "ida"): "r", ("idb", "e"): "e", ("e", "idb"): "e",
            ("s", "r"): "ida", ("r", "s"): "e", ("s", "e"): "s", ("e", "r"): "r", ("e", "e"): "e"}
    return fincat.validate_category(["a", "b"], mors, {"a": "ida", "b": "idb"}, comp)


def twins() -> fincat.FinCat:
    """Finite sets up to 2 times the walking isomorphism: every object has
    a distinct isomorphic twin."""
    return product_category(finset_ambient(2), walking_isomorphism())


def basepoint_clash() -> fincat.FinCat:
    """An object named like the basepoint of pi0 at 1: [1] -> 1, and 2
    apart."""
    return fincat.validate_category(
        ["[1]", "1", "2"], [("id[1]", "[1]", "[1]"), ("id1", "1", "1"), ("id2", "2", "2"), ("a", "[1]", "1")],
        {"[1]": "id[1]", "1": "id1", "2": "id2"},
        {("id[1]", "id[1]"): "id[1]", ("id1", "id1"): "id1", ("id2", "id2"): "id2", ("id[1]", "a"): "a", ("a", "id1"): "a"})


def bang_skeleton() -> fincat.FinCat:
    """The skeleton of sets of at most 2 elements, with the constants
    2>2:00 and 2>2:11 named b and b!: b sorts before b! only alone, and
    after it as either part of a pair, as b!, < b, and b!) < b), so b!,
    which extends b by ! below every suffix, keeps 2 apart
    (``fincat._apart``), and the pairs into 2 take the names route."""
    c = finset_ambient(2)
    return renamed(c, {**{x: x for x in c.objects}, **{m: m for m in morphism_names(c)}, "2>2:00": "b", "2>2:11": "b!"})


def slice_pair_collision() -> fincat.FinCat:
    """Four arrows z -> x with h;f = g, so that the slice pairs (p, q[g=>f],r)
    and (p[g=>f],q, r) over f both render as (p[g=>f],q[g=>f],r[g=>f])."""
    hs = ["p", "r", "p[g=>f],q", "q[g=>f],r"]
    return fincat.validate_category(
        ["x", "y", "z"],
        [("idx", "x", "x"), ("idy", "y", "y"), ("idz", "z", "z"), ("f", "x", "y"), ("g", "z", "y")]
        + [(h, "z", "x") for h in hs],
        {"x": "idx", "y": "idy", "z": "idz"},
        {("idx", "idx"): "idx", ("idy", "idy"): "idy", ("idz", "idz"): "idz",
         ("idx", "f"): "f", ("f", "idy"): "f", ("idz", "g"): "g", ("g", "idy"): "g",
         **{(h, "f"): "g" for h in hs}, **{("idz", h): h for h in hs}, **{(h, "idx"): h for h in hs}},
    )


def two_component_groupoid() -> fincat.FinCat:
    return disjoint_union(cyclic_group_category(2), cyclic_group_category(3))


def thin_category(p: order.Poset) -> fincat.FinCat:
    """The poset viewed as a category with one morphism per related pair."""
    objects = list(p.elements)
    leq = oracles.leq(p)
    name = {(a, b): f"[{a}<={b}]" for (a, b) in leq}
    morphisms = [(name[(a, b)], a, b) for (a, b) in sorted(leq)]
    identity = {a: name[(a, a)] for a in objects}
    comp = {}
    for a, b in leq:
        for c in p.elements:
            if (b, c) in leq:
                comp[(name[(a, b)], name[(b, c)])] = name[(a, c)]
    return fincat.validate_category(objects, morphisms, identity, comp)


# -- the finite-set skeleton -------------------------------------------------

# Largest cardinality the ambient skeleton is built for.
AMBIENT_MAX_K = 4


def ambient_object(n: int) -> str:
    return str(n)


def ambient_fn_name(m: int, n: int, images: tuple[int, ...]) -> str:
    return f"{m}>{n}:" + "".join(str(i) for i in images)


def finset_ambient(k: int) -> fincat.FinCat:
    """Skeleton with one set per cardinality 0..k and every function between
    them, law-checked like any other category (at k = 4, 499 morphisms
    and 133,799 composition entries)."""
    if k < 0 or k > AMBIENT_MAX_K:
        raise CapExceeded(f"ambient cardinality bound {k} outside 0..{AMBIENT_MAX_K}")
    return _finset_ambient(k)


@functools.cache
def _finset_ambient(k: int) -> fincat.FinCat:
    objects = [ambient_object(n) for n in range(k + 1)]
    morphisms = []
    fn_of: dict[str, tuple[int, int, tuple[int, ...]]] = {}
    for m in range(k + 1):
        for n in range(k + 1):
            for images in product(range(n), repeat=m):
                name = ambient_fn_name(m, n, images)
                morphisms.append((name, ambient_object(m), ambient_object(n)))
                fn_of[name] = (m, n, images)
    identity = {ambient_object(n): ambient_fn_name(n, n, tuple(range(n))) for n in range(k + 1)}
    comp = {}
    for f, (m, n, fi) in fn_of.items():
        for g, (n2, p, gi) in fn_of.items():
            if n == n2:
                comp[(f, g)] = ambient_fn_name(m, p, tuple(gi[i] for i in fi))
    return fincat.validate_category(objects, morphisms, identity, comp)


def embed_function(f: setcat.FiniteFunction) -> tuple[str, str]:
    """Name of f as a morphism of the ambient skeleton, together with the
    ambient object standing for its codomain.  Elements are matched to
    0..n-1 in sorted order."""
    cod_index = {y: j for j, y in enumerate(f.cod_set)}
    m, n = len(f.dom_set), len(f.cod_set)
    images = tuple(cod_index[f.mapping[x]] for x in f.dom_set)
    return ambient_fn_name(m, n, images), ambient_object(n)


def _images(g: str) -> str:
    """The image digits of an ambient morphism, one per domain element."""
    return g.split(":", 1)[1]


def ambient_pi0_map(generic: homotopy.ObstructionReport) -> dict[str, str]:
    """pi0 of a slice of the ambient, its classes named by ambient
    morphisms g, to the powerset report of ``setcat.pi0_function``: the
    class of g goes to im g, the basepoint to the basepoint."""
    bp = generic.invariant.basepoint
    return {e: "{}" if e == bp else homotopy.subset_name(set(_images(e))) for e in generic.invariant.poset.elements}


def ambient_pi1_map(generic: homotopy.ObstructionReport, sl, mor: str) -> dict[str, str]:
    """pi1 of the slice sl of the ambient at mor to the powerset report of
    ``setcat.pi1_function``: the class of a pair (h0, h1) of slice
    morphisms goes to the set of its pairs (h0(i), h1(i)), read off the
    ambient morphisms that sl's projection sends h0 and h1 to."""
    pairs, _ = oracles.enumerate_elements(sl.cat, mor, 2)
    bp = generic.invariant.basepoint
    out = {bp: "{}"}
    for e in generic.invariant.poset.elements:
        if e != bp:
            h0, h1 = (_images(sl.projection.mor_map[sl.cat.morphisms[h].name]) for h in pairs[e])
            out[e] = homotopy.subset_name(set(fincat.pair_names(zip(h0, h1))))
    return out


# -- every small category ------------------------------------------------------


def small_categories(n: int):
    """Every category with at most n morphisms, once up to isomorphism, by
    size: objects 0, 1, ... with identities id0, id1, ..., and the other
    morphisms f0, f1, ...  For each count of objects the identities are
    fixed, the other morphisms' (dom, cod) chosen as a multiset, and
    composition filled one composable pair at a time (``_compositions``).
    A category is yielded at its first canonical form (``_canonical``).
    Each goes through ``fincat.validate_category``.  The counts by size
    are those of OEIS A125696: 1, 3, 11, 55, 329, ..."""
    seen = set()
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            for arrows in combinations_with_replacement(list(product(range(k), repeat=2)), m - k):
                for table in _compositions(k, arrows):
                    form = _canonical(k, arrows, table)
                    if form not in seen:
                        seen.add(form)
                        yield _small_category(k, arrows, table)


def _ends(k: int, arrows) -> list[tuple[int, int]]:
    """(dom, cod) of each morphism: the k identities, then the arrows."""
    return [(x, x) for x in range(k)] + list(arrows)


def _compositions(k: int, arrows):
    """Every associative composition of k identities and the given arrows,
    each a dict (f, g) -> f;g over the composable pairs of non-identities,
    by index.  Backtracking: each value is typed, and every composable
    triple whose composites are all known is checked at each step."""
    ends = _ends(k, arrows)
    others = range(k, len(ends))
    pairs = [(f, g) for f in others for g in others if ends[f][1] == ends[g][0]]
    triples = [(f, g, h) for f, g in pairs for h in others if ends[g][1] == ends[h][0]]
    values = [[h for h in range(len(ends)) if ends[h] == (ends[f][0], ends[g][1])] for f, g in pairs]
    table: dict = {}

    def comp(f, g):
        return g if f < k else f if g < k else table.get((f, g))

    def associative():
        for f, g, h in triples:
            fg, gh = comp(f, g), comp(g, h)
            if fg is not None and gh is not None:
                left, right = comp(fg, h), comp(f, gh)
                if left is not None and right is not None and left != right:
                    return False
        return True

    def fill(i):
        if i == len(pairs):
            yield dict(table)
            return
        for h in values[i]:
            table[pairs[i]] = h
            if associative():
                yield from fill(i + 1)
        table.pop(pairs[i], None)

    yield from fill(0)


def _canonical(k: int, arrows, table) -> tuple:
    """The least encoding, (dom, cod) of each arrow and the composition
    table, over every relabelling of the objects and of the arrows: a
    brute force, k! times (number of arrows)! encodings."""
    ends = _ends(k, arrows)
    forms = []
    for objects in permutations(range(k)):
        for relabel in permutations(range(k, len(ends))):
            new = {**dict(zip(range(k), objects)), **{old: k + i for i, old in enumerate(relabel)}}
            forms.append((tuple((objects[ends[o][0]], objects[ends[o][1]]) for o in relabel),
                          tuple(sorted((new[f], new[g], new[h]) for (f, g), h in table.items()))))
    return k, min(forms)


def _small_category(k: int, arrows, table) -> fincat.FinCat:
    ends = _ends(k, arrows)
    names = [f"id{x}" for x in range(k)] + [f"f{i}" for i in range(len(arrows))]
    comp = {(names[f], names[g]): names[h] for (f, g), h in table.items()}
    for f, (d, c) in enumerate(ends):
        comp[names[d], names[f]] = comp[names[f], names[c]] = names[f]
    objects = [str(x) for x in range(k)]
    morphisms = [(names[f], objects[d], objects[c]) for f, (d, c) in enumerate(ends)]
    return fincat.validate_category(objects, morphisms, dict(zip(objects, names)), comp)


def relabelled(c: fincat.FinCat, rng, alphabet: str) -> fincat.FinCat:
    """c with its objects and morphism ids renamed to distinct words of 1
    to 3 characters of alphabet, drawn from rng."""
    ids = [*c.objects, *morphism_names(c)]
    words = [w for n in (1, 2, 3) for w in map("".join, product(alphabet, repeat=n))]
    return renamed(c, dict(zip(ids, rng.sample(words, len(ids)))))


# -- random categories ------------------------------------------------------


def random_category(rng, max_objects=5, max_morphisms=25) -> fincat.FinCat:
    while True:
        kind = rng.choice(
            ["dag", "dag", "dag", "monoid", "union", "terminal", "initial", "op", "product"]
        )
        if kind == "dag":
            c = free_dag_category(rng).cat
        elif kind == "monoid":
            c = rng.choice(
                [
                    cyclic_group_category(2),
                    cyclic_group_category(3),
                    klein_four_category(),
                    idempotent_monoid_category(),
                    flipflop_monoid_category(),
                ]
            )
        elif kind == "union":
            c = disjoint_union(
                free_dag_category(rng, max_objects=2, max_edges=2).cat,
                rng.choice([cyclic_group_category(2), free_dag_category(rng, max_objects=2, max_edges=2).cat]),
            )
        elif kind == "terminal":
            c = add_free_terminal(free_dag_category(rng, max_objects=3, max_edges=3).cat)
        elif kind == "initial":
            c = add_free_initial(free_dag_category(rng, max_objects=3, max_edges=3).cat)
        elif kind == "op":
            c = opposite(free_dag_category(rng).cat)
        else:
            c = product_category(
                free_dag_category(rng, max_objects=2, max_edges=1).cat,
                free_dag_category(rng, max_objects=2, max_edges=2).cat,
            )
        if len(c.objects) <= max_objects and len(c.morphisms) <= max_morphisms:
            return c


def renamed(c: fincat.FinCat, new) -> fincat.FinCat:
    """c with every object and morphism id replaced through the map new."""
    return fincat.validate_category(
        [new[x] for x in c.objects],
        [(new[m.name], new[m.dom], new[m.cod]) for m in c.morphisms],
        {new[x]: new[i] for x, i in c.identity.items()},
        {(new[f], new[g]): new[h] for (f, g), h in oracles.comp(c).items()},
    )


# -- random functors and natural transformations ---------------------------------


def constant_functor(c: fincat.FinCat, d: fincat.FinCat, t: str) -> fincat.FunctorData:
    return fincat.validate_functor(
        c, d, {x: t for x in c.objects}, {m.name: d.id_of(t) for m in c.morphisms}
    )


def free_functor(rng, free: FreeCat, d: fincat.FinCat):
    """Random functor out of a free category, or None when the object
    assignment leaves some generator without a possible image."""
    c, table = free.cat, oracles.comp(d)
    for _ in range(8):
        obj_map = {x: rng.choice(d.objects) for x in c.objects}
        edge_img = {}
        stuck = False
        for name, u, v in free.edges:
            hom = d.hom(obj_map[u], obj_map[v])
            if not hom:
                stuck = True
                break
            edge_img[name] = rng.choice(hom)
        if stuck:
            continue
        mor_map = {}
        for nm, seq in free.paths.items():
            at = obj_map[c.dom(nm)]
            acc = d.id_of(at)
            for e in seq:
                acc = table[(acc, edge_img[e])]
            mor_map[nm] = acc
        return fincat.validate_functor(c, d, obj_map, mor_map)
    return None


def random_functor(rng) -> fincat.FunctorData:
    while True:
        kind = rng.choice(["identity", "constant", "inclusion", "slice", "free", "bang"])
        if kind == "identity":
            return fincat.identity_functor(random_category(rng))
        if kind == "constant":
            c = random_category(rng, max_objects=3, max_morphisms=12)
            d = random_category(rng, max_objects=3, max_morphisms=12)
            return constant_functor(c, d, rng.choice(d.objects))
        if kind == "inclusion":
            c = random_category(rng, max_objects=2, max_morphisms=8)
            d2 = random_category(rng, max_objects=2, max_morphisms=8)
            d = disjoint_union(c, d2)
            return fincat.validate_functor(
                c, d, {x: "A." + x for x in c.objects}, {m.name: "A." + m.name for m in c.morphisms}
            )
        if kind == "slice":
            c = random_category(rng, max_objects=3, max_morphisms=10)
            x = rng.choice(c.objects)
            sl = oracles.slice_category(c, x)
            if len(sl.cat.objects) == 0:
                continue
            return sl.projection
        if kind == "bang":
            c = random_category(rng, max_objects=3, max_morphisms=12)
            term = fincat.validate_category(
                ["*"], [("id*", "*", "*")], {"*": "id*"}, {("id*", "id*"): "id*"}
            )
            return constant_functor(c, term, "*")
        free = free_dag_category(rng, max_objects=3, max_edges=3)
        d = add_free_terminal(random_category(rng, max_objects=3, max_morphisms=10))
        f = free_functor(rng, free, d)
        if f is not None:
            return f


def random_functor_from(rng, d: fincat.FinCat) -> fincat.FunctorData:
    """A random functor whose source is the given category."""
    kind = rng.choice(["identity", "constant", "inclusion", "bang"])
    if kind == "identity":
        return fincat.identity_functor(d)
    if kind == "constant":
        e = random_category(rng, max_objects=3, max_morphisms=12)
        return constant_functor(d, e, rng.choice(e.objects))
    if kind == "inclusion":
        e2 = random_category(rng, max_objects=2, max_morphisms=8)
        e = disjoint_union(d, e2)
        return fincat.validate_functor(
            d, e, {x: "A." + x for x in d.objects}, {m.name: "A." + m.name for m in d.morphisms}
        )
    term = fincat.validate_category(["*"], [("id*", "*", "*")], {"*": "id*"}, {("id*", "id*"): "id*"})
    return constant_functor(d, term, "*")


def random_nat_trans(rng) -> fincat.NatTransData:
    while True:
        kind = rng.choice(["identity", "cone", "constant", "search"])
        if kind == "identity":
            f = random_functor(rng)
            return fincat.validate_nat_trans(
                f, f, {x: f.target.id_of(f.obj_map[x]) for x in f.source.objects}
            )
        if kind == "cone":
            f0 = random_functor(rng)
            d, t, bang = free_terminal_extension(f0.target)
            inc = fincat.validate_functor(
                f0.target,
                d,
                {x: x for x in f0.target.objects},
                {m.name: m.name for m in f0.target.morphisms},
            )
            f = fincat.compose_functors(f0, inc)
            g = constant_functor(f.source, d, t)
            comps = {x: bang[f.obj_map[x]] for x in f.source.objects}
            return fincat.validate_nat_trans(f, g, comps)
        if kind == "constant":
            c = random_category(rng, max_objects=3, max_morphisms=10)
            d = random_category(rng, max_objects=3, max_morphisms=12)
            s = rng.choice(d.objects)
            choices = [t for t in d.objects if d.hom(s, t)]
            if not choices:
                continue
            t = rng.choice(choices)
            u = rng.choice(d.hom(s, t))
            return fincat.validate_nat_trans(
                constant_functor(c, d, s),
                constant_functor(c, d, t),
                {x: u for x in c.objects},
            )
        free = free_dag_category(rng, max_objects=3, max_edges=2)
        d = add_free_terminal(random_category(rng, max_objects=2, max_morphisms=8))
        f = free_functor(rng, free, d)
        g = free_functor(rng, free, d)
        if f is None or g is None:
            continue
        alpha = _search_nat_trans(rng, f, g)
        if alpha is not None:
            return alpha


def _search_nat_trans(rng, f, g, cap=400):
    c, d = f.source, f.target
    objs = list(c.objects)
    cands = [d.hom(f.obj_map[x], g.obj_map[x]) for x in objs]
    total = 1
    for cs in cands:
        total *= len(cs)
        if total == 0 or total > cap:
            return None
    found = []
    def rec(i, acc):
        if i == len(objs):
            found.append(dict(acc))
            return
        for u in cands[i]:
            acc[objs[i]] = u
            rec(i + 1, acc)
        del acc[objs[i]]
    rec(0, {})
    rng.shuffle(found)
    for comps in found:
        try:
            return fincat.validate_nat_trans(f, g, comps)
        except Exception:
            continue
    return None


# -- state laxators ----------------------------------------------------------------


def obstructions(ctx: states.StateContext, a, b) -> tuple[homotopy.ObstructionReport, homotopy.ObstructionReport]:
    """(pi0, pi1) of the laxator at (a, b).  Minimal pi0 obstructions are the
    non-separable states; minimal pi1 obstructions are the distinct input
    pairs with equal tensor."""
    return states.laxator_obstructions(states.laxator(ctx, a, b), states.lax_context(ctx, a, b))


# -- open graphs -------------------------------------------------------------------


def identity_graph(boundary: tuple[str, ...]) -> opengraph.OpenGraph:
    legs = {x: x for x in boundary}
    return opengraph.OpenGraph(tuple(boundary), tuple(boundary), tuple(boundary), frozenset(), dict(legs), dict(legs))


def random_open_graph(rng, inputs, outputs, max_inner=3, edge_prob=0.4) -> opengraph.OpenGraph:
    inner = [f"v{i}" for i in range(rng.randint(0, max_inner))]
    vertices = list(dict.fromkeys([f"i_{x}" for x in inputs] + [f"o_{y}" for y in outputs] + inner))
    edges = set()
    for u in vertices:
        for v in vertices:
            if u != v and rng.random() < edge_prob:
                edges.add((u, v))
    in_leg = {x: f"i_{x}" for x in inputs}
    out_leg = {y: f"o_{y}" for y in outputs}
    return opengraph.OpenGraph(tuple(inputs), tuple(outputs), tuple(vertices), frozenset(edges), in_leg, out_leg)


def random_composable_graphs(rng):
    xs = tuple(f"x{i}" for i in range(rng.randint(1, 2)))
    ys = tuple(f"y{i}" for i in range(rng.randint(1, 3)))
    zs = tuple(f"z{i}" for i in range(rng.randint(1, 2)))
    return random_open_graph(rng, xs, ys), random_open_graph(rng, ys, zs)


def zigzag_composable_graphs(rng):
    """A composable pair whose composite relates x0 to z0 only by paths
    that cross the boundary three times or more: out of the left part at
    y0, back into it at y1 (i_y0 -> i_y1 on the right) and out again at y2
    (o_y1 -> o_y2 on the left), under random extra edges.  A path that
    crossed once, at y, would put (x0, y) in the left part's reachability
    and (y, z0) in the right's, so the parts' relations compose to a strict
    sub-relation of the reachability of their composite."""
    xs = tuple(f"x{i}" for i in range(rng.randint(1, 2)))
    ys = ("y0", "y1", "y2")
    zs = tuple(f"z{i}" for i in range(rng.randint(1, 2)))
    while True:
        g, h = random_open_graph(rng, xs, ys, 2, 0.15), random_open_graph(rng, ys, zs, 2, 0.15)
        g = opengraph.OpenGraph(xs, ys, g.vertices, g.edges | {("i_x0", "o_y0"), ("o_y1", "o_y2")}, g.in_leg, g.out_leg)
        h = opengraph.OpenGraph(ys, zs, h.vertices, h.edges | {("i_y0", "i_y1"), ("i_y2", "o_z0")}, h.in_leg, h.out_leg)
        if ("x0", "z0") not in opengraph.compose_rel(opengraph.reach(g), opengraph.reach(h)).pairs:
            return g, h


def renamed_open_graph(g: opengraph.OpenGraph, names) -> opengraph.OpenGraph:
    """g with its sorted vertices renamed to names, in order."""
    new = dict(zip(g.vertices, names))
    return opengraph.OpenGraph(
        g.inputs,
        g.outputs,
        tuple(new.values()),
        frozenset((new[u], new[v]) for u, v in g.edges),
        {x: new[v] for x, v in g.in_leg.items()},
        {y: new[v] for y, v in g.out_leg.items()},
    )


def random_vertex_merge_hom(rng, g: opengraph.OpenGraph) -> opengraph.GraphHom:
    """Quotient a graph by a random vertex identification; the image graph is
    the target, so the hom is valid by construction."""
    verts = sorted(g.vertices)
    target_of = {v: v for v in verts}
    if len(verts) > 1 and rng.random() < 0.8:
        a, b = rng.sample(verts, 2)
        target_of[b] = a
    new_vertices = sorted(set(target_of.values()))
    new_edges = frozenset((target_of[u], target_of[v]) for u, v in g.edges)
    h = opengraph.OpenGraph(
        g.inputs,
        g.outputs,
        tuple(new_vertices),
        new_edges,
        {x: target_of[g.in_leg[x]] for x in g.inputs},
        {y: target_of[g.out_leg[y]] for y in g.outputs},
    )
    return opengraph.GraphHom(g, h, target_of)


# -- text formats ------------------------------------------------------------------


def morphism_names(c: fincat.FinCat) -> tuple[str, ...]:
    return tuple(m.name for m in c.morphisms)


def serialize_category(c: fincat.FinCat) -> str:
    """The text of c.  A ParseError names the first object, or else the
    first morphism, whose id would not read back (``fincat.check_label``)."""
    for what, ids in (("object", c.objects), ("morphism", [m.name for m in c.morphisms])):
        for x in ids:
            fincat.check_label(x, what, ".cat", (" ", "#"))
    lines = [f"obj {x}" for x in sorted(c.objects)]
    lines += [f"mor {m.name} : {m.dom} -> {m.cod}" for m in sorted(c.morphisms, key=lambda m: m.name)]
    lines += [f"id {x} = {c.identity[x]}" for x in sorted(c.identity)]
    names = morphism_names(c)  # sorted, so sorting positions sorts names
    lines += [f"comp {names[h]} ; {names[g]} = {names[hg]}" for h, g, hg in sorted((h, g, hg) for g, row in enumerate(c.rows) for h, hg in row.items())]
    return "\n".join(lines) + "\n"


def serialize_function(name: str, f: setcat.FiniteFunction) -> str:
    """The one-line form of f.  A ParseError names the first label, or the
    name, that ``setcat.parse_function`` would not read back verbatim
    (``fincat.check_label``)."""
    for x in (*f.dom_set, *f.cod_set):
        fincat.check_label(x, "label", ".fn", (",", "{", "}", ";", "#", "=>", "->"))
    fincat.check_label(name, "function name", ".fn", (":", "->", ";", "#"))
    dom = "{" + ",".join(f.dom_set) + "}"
    cod = "{" + ",".join(f.cod_set) + "}"
    body = ", ".join(f"{x}=>{f.mapping[x]}" for x in f.dom_set)
    if body:
        return f"fn {name} : {dom} -> {cod} ; {body}\n"
    return f"fn {name} : {dom} -> {cod} ;\n"
