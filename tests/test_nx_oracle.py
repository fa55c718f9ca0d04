"""The walks behind pi0 and pi1, the pointed reflection and open-graph
reachability, checked against networkx.

networkx shares no code with obstructia or with the walks in
tests/oracles.py, so these checks do not rest on this project's reading of
the definitions.  The category of elements of hom(-, x)^k is built here as
a digraph on tuples of morphism names, one edge h;t -> t per arrow h, and
the down-set of t is t with its ``nx.ancestors``; pi0 at an object reads
the object digraph, one edge dom m -> cod m per morphism m, the same way,
and reachability of open graphs is ``nx.descendants`` on a glued digraph
built here.  Pairs are named by ``oracles.pair_element_names``, the one
model of the library's pair names, which the explicit descriptions share.  A pointed reflection is the condensation of the preorder's
digraph, each class named by its least member, with the lower set of the
base's class collapsed to the basepoint and the covers the
``nx.transitive_reduction`` of what is left.  A written report is read back
from its interchange document: its ``covers`` are the transitive reduction
of its ``leq``, and ``leq`` the reflexive transitive closure of its
``covers``, which its text and DOT forms also name.

networkx is imported at top level: without it this module fails to collect.
"""

import glob
import io
import json
import os
import random
import re
from collections import Counter
from itertools import product

import networkx as nx
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gen
import oracles
from obstructia import fincat, homotopy, order
from obstructia import opengraph as og
from obstructia.errors import InvalidPoset

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def bits(m):
    out = []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


def element_digraph(c, x, k, over=None):
    """The category of elements of hom(-, x)^k, or of the tuples ``over``
    equalises (f_i;over all one), with one edge h;t -> t per arrow h into
    the domain of t."""
    names = [m.name for m in c.morphisms]
    comp = {(names[h], names[g]): names[hg] for g, row in enumerate(c.rows) for h, hg in row.items()}
    dom = {m.name: m.dom for m in c.morphisms}
    into = {y: [m.name for m in c.morphisms if m.cod == y] for y in c.objects}
    g = nx.DiGraph()
    for y in c.objects:
        for t in product([f for f in into[x] if dom[f] == y], repeat=k):
            if over is None or len({comp[f, over] for f in t}) == 1:
                g.add_node(t)
                g.add_edges_from((source, t) for source in {tuple([comp[h, f] for f in t]) for h in into[y]})
    return g


def nx_reflect(g, name, base, basepoint_name):
    """The elements, basepoint, covers and class of each node of the
    pointed reflection of g's reachability preorder, at the node ``base``,
    by condensation and transitive reduction: each class is named by its
    least member's ``name``."""
    cond = nx.condensation(g)
    scc = cond.graph["mapping"]
    low = nx.ancestors(cond, scc[base]) | {scc[base]}
    label = {s: min(name[v] for v in cond.nodes[s]["members"]) for s in cond if s not in low}
    bp = basepoint_name
    while bp in label.values():
        bp += "'"
    cls = {s: bp if s in low else label[s] for s in cond}
    q = nx.DiGraph()
    q.add_nodes_from(cls.values())
    q.add_edges_from((cls[a], cls[b]) for a, b in cond.edges if cls[a] != cls[b])
    assert nx.is_directed_acyclic_graph(q)
    covers = set(nx.transitive_reduction(q).edges)
    return tuple(sorted(q)), bp, covers, {v: cls[scc[v]] for v in g}


def nx_pointed_reflection(names, down, base, basepoint_name):
    """``nx_reflect`` on the preorder of down-masks, its classes by
    position."""
    g = nx.DiGraph()
    g.add_nodes_from(range(len(names)))
    g.add_edges_from((j, i) for i, d in enumerate(down) for j in bits(d) if j != i)
    elems, bp, covers, cls = nx_reflect(g, names, base, basepoint_name)
    return elems, bp, covers, [cls[i] for i in range(len(names))]


def assert_reflection(names, down, base, basepoint_name, walk=None):
    """The reflection of a walk, by default of the one sorting by
    ``names``, by its sort keys and names against networkx on ``names``."""
    walk = walk or oracles.named_walk(names, down)
    pp, _ = order.reflection(walk.rank, down, base, basepoint_name, walk.names)
    class_of = homotopy._classes(walk, pp)
    elems = pp.poset.elements
    got = elems, pp.basepoint, {(elems[i], elems[j]) for i, m in enumerate(pp.poset.cover_masks) for j in bits(m)}, class_of
    assert got == nx_pointed_reflection(names, down, base, basepoint_name)
    return pp


def assert_walk(c, x, k, over=None):
    """The masks of ``_elements_preorder`` are nx.ancestors, and the
    reflection at the identity tuple agrees with the condensation."""
    walk, base = fincat._elements_preorder(c, x, k, c.index[c.identity[x]], over)
    keys = [tuple(c.morphisms[p].name for p in t) for t in walk.keys]
    g = element_digraph(c, x, k, over)
    assert len(keys) == len(g) and set(keys) == set(g)
    for key, d in zip(keys, walk.down):
        assert {keys[j] for j in bits(d)} == nx.ancestors(g, key) | {key}
    assert base == keys.index((c.identity[x],) * k)
    assert_reflection(walk.names(range(len(keys))), walk.down, base, f"[{over or x}]", walk)


def walk_cases(c, x):
    return [(1, None), (2, None)] + [(2, m.name) for m in c.morphisms if m.dom == x]


class TestWalk:
    def test_finite_sets_up_to_three(self):
        # the pairs over f are those f equalises, so of the morphisms out of
        # x that equalise the same pairs only the first is walked
        c = gen.finset_ambient(3)
        names = [m.name for m in c.morphisms]
        for x in c.objects:
            pairs = [(a, b) for a in c.into[x] for b in c.into[x] if c.morphisms[a].dom == c.morphisms[b].dom]
            seen = set()
            for k, over in walk_cases(c, x):
                if over is not None:
                    row = c.rows[names.index(over)]
                    equalised = frozenset((a, b) for a, b in pairs if row[a] == row[b])
                    if equalised in seen:
                        continue
                    seen.add(equalised)
                assert_walk(c, x, k, over)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_categories(self, seed):
        c = gen.random_category(random.Random(seed), max_morphisms=16)
        for x in c.objects:
            for k, over in walk_cases(c, x):
                assert_walk(c, x, k, over)


class TestPointedReflection:
    def test_every_base_of_the_finite_set_slices(self):
        # pi0 of C/y at f is the slice walk over y at the base (f,)
        c = gen.finset_ambient(3)
        for y in c.objects:
            walk, _ = fincat._elements_preorder(c, y, 1, c.index[c.id_of(y)])
            names = walk.names(range(len(walk.keys)))
            for base, name in enumerate(names):
                assert fincat._elements_preorder(c, y, 1, walk.keys[base][0])[1] == base
                assert_reflection(names, walk.down, base, f"[{name}]", walk)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_preorders(self, data):
        # names that a basepoint may clash with, names that DOT and JSON
        # escape, and cycles that merge classes; the written report too
        pool = ["[a]", "[a]'", "[a]''", "", "\\", '"', "a", "b", "c", "d", "e", "f"]
        names = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
        n = len(names)
        edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        down = [sum(1 << j for j in nx.ancestors(g, i) | {i}) for i in range(n)]
        base = data.draw(st.integers(0, n - 1))
        assert_written(homotopy.report_from_pointed(assert_reflection(names, down, base, "[a]"), "reflection"))


def nx_report(g, name, base, point):
    """The report shape of the pointed reflection of g at the node
    ``base``, pointed at [point]: (elements, basepoint, covers, minimal,
    trivial).  ``name`` names each node of g and nothing else."""
    assert name.keys() == set(g)
    elems, bp, covers, _ = nx_reflect(g, name, base, f"[{point}]")
    below = {b for a, b in covers if a != bp}
    return elems, bp, covers, {e for e in elems if e != bp and e not in below}, len(elems) == 1


def nx_analysis(c, f):
    """Both reports of ``analyze_morphism`` at f: x -> y: pi0 of the slice
    digraph over y at f, and pi1 of the digraph of the pairs into x that f
    equalises at the pair of identities, each pointed at [f]."""
    x, y = c.dom(f), c.cod(f)
    slices, pairs = element_digraph(c, y, 1), element_digraph(c, x, 2, f)
    return [nx_report(slices, {t: t[0] for t in slices}, (f,), f),
            nx_report(pairs, oracles.pair_element_names(c, x, f), (c.identity[x],) * 2, f)]


def nx_pi(c, x, i):
    """pi_i at the object x: pi0 of the object digraph, one edge dom m ->
    cod m per morphism m, and pi1 of the digraph of the pairs into x, at
    the pair of identities, each pointed at [x]."""
    if i == 0:
        g = nx.DiGraph()
        g.add_nodes_from(c.objects)
        g.add_edges_from((m.dom, m.cod) for m in c.morphisms if m.dom != m.cod)
        return nx_report(g, {y: y for y in g}, x, x)
    g = element_digraph(c, x, 2)
    return nx_report(g, oracles.pair_element_names(c, x), (c.identity[x],) * 2, x)


def report_shape(r):
    p = r.invariant.poset
    covers = {(p.elements[i], p.elements[j]) for i, m in enumerate(p.cover_masks) for j in bits(m)}
    return p.elements, r.invariant.basepoint, covers, set(r.minimal), r.trivial


def assert_analysis(c, f):
    an = homotopy.analyze_morphism(c, f)
    assert [report_shape(an.pi0), report_shape(an.pi1)] == nx_analysis(c, f)
    assert (an.pi0.context, an.pi1.context) == (f"pi0 at object {f!r}", f"pi1 at object {f!r}")
    return an


def assert_pi_at_objects(c):
    for x in c.objects:
        for i, pi in ((0, homotopy.pi0), (1, homotopy.pi1)):
            r = pi(c, x)
            assert report_shape(r) == nx_pi(c, x, i)
            assert r.context == f"pi{i} at object {x!r}"


class TestPiAtObjects:
    def test_finite_sets_up_to_three(self):
        assert_pi_at_objects(gen.finset_ambient(3))

    def test_cyclic_groups(self):
        for n in range(2, 7):
            assert_pi_at_objects(gen.cyclic_group_category(n))

    def test_fixtures(self):
        # primed_basepoint.cat names an object like the basepoint, and
        # pair_collision.cat renders two distinct pairs alike
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.cat"))):
            with open(path, encoding="utf-8") as fh:
                assert_pi_at_objects(fincat.parse_category(fh.read()))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_random_categories(self, seed, data):
        c = gen.random_category(random.Random(seed), max_objects=4, max_morphisms=14)
        if data.draw(st.booleans()):
            # ids over the pair separator and the basepoint's brackets, so
            # that distinct pairs take #n names and an object may be named
            # like the basepoint
            ids = [*c.objects, *(m.name for m in c.morphisms)]
            labels = data.draw(st.lists(st.text("r,[]'", min_size=1, max_size=4), min_size=len(ids),
                                        max_size=len(ids), unique=True))
            c = gen.renamed(c, dict(zip(ids, labels)))
        assert_pi_at_objects(c)


class TestAnalysis:
    def test_every_morphism_of_the_finite_sets_with_one_memo(self):
        # one process, one memo: 60 morphisms read 13 walks
        c = gen.finset_ambient(3)
        for m in c.morphisms:
            assert_analysis(c, m.name)
        assert (fincat._WALKS.misses, fincat._WALKS.hits) == (13, 107)

    def test_slice_pairs_named_alike(self):
        c = gen.slice_pair_collision()
        assert "(p[g=>f],q[g=>f],r[g=>f])#2" in homotopy.analyze_morphism(c, "f").pi1.invariant.poset.elements
        for m in c.morphisms:
            assert_analysis(c, m.name)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_random_categories(self, seed, data):
        c = gen.random_category(random.Random(seed), max_objects=4, max_morphisms=14)
        if data.draw(st.booleans()):
            # morphism ids over the pair separator and the basepoint's
            # brackets, so that distinct pairs render alike and take #n
            # names, and an element may be named like the basepoint
            morphisms = [m.name for m in c.morphisms]
            labels = data.draw(st.lists(st.text("r,[]=>", min_size=1, max_size=4), min_size=len(morphisms),
                                        max_size=len(morphisms), unique=True))
            c = gen.renamed(c, {x: x for x in c.objects} | dict(zip(morphisms, labels)))
        for m in c.morphisms:
            assert_analysis(c, m.name)


SWEEP_ALPHABET = "a!)[,=>"


def small_categories(n):
    """Every category with at most n morphisms, once up to isomorphism
    (``gen.small_categories``), as built and once relabelled with ids and
    object names over the characters of derived names, so that walks into
    some objects take the names route."""
    for seed, c in enumerate(gen.small_categories(n)):
        yield c
        yield gen.relabelled(c, random.Random(seed), SWEEP_ALPHABET)


def sweep_reports(d) -> int:
    """pi0 and pi1 at every object of d and the analysis of every morphism
    meet networkx, each report's poset equals its ``oracles.from_masks``
    rebuild, and acceptance criterion 4's theorems hold at every object:
    pi0 and pi1 there are trivial exactly where it is weakly terminal and
    subterminal.  Returns the walks on the names route."""
    assert_pi_at_objects(d)
    morphisms = gen.morphism_names(d)
    at = [pi(d, x) for x in d.objects for pi in (homotopy.pi0, homotopy.pi1)]
    reports = at + [r for f in morphisms for r in assert_analysis(d, f)[:2]]
    assert all(oracles.trusted_differs(r.invariant.poset) == [] for r in reports)
    for x, p0, p1 in zip(d.objects, at[0::2], at[1::2]):
        assert (p0.trivial, p1.trivial, p0.trivial and p1.trivial) == (oracles.weak_terminal(d, x), oracles.subterminal(d, x), oracles.terminal(d, x))
    ends = [homotopy._end(d, i, d.dom(f), f) for f in morphisms for i in (0, 1)]
    return sum(not walk.at[2] for walk, _, _ in ends + [homotopy._end(d, 1, x) for x in d.objects])


def sweep_duality(d) -> int:
    """Duality, a relation that needs no oracle: each morphism f of d is
    iso in d iff it is in its opposite, where the split-epi flag reads
    split mono in d.  Returns the morphisms checked."""
    op = gen.opposite(d)
    morphisms = gen.morphism_names(d)
    for f in morphisms:
        there = homotopy.analyze_morphism(op, f)
        assert there.iso == homotopy.analyze_morphism(d, f).iso
        assert there.split_epi == oracles.split_mono(d, f)
    return len(morphisms)


class TestEverySmallCategory:
    """The bounded-exhaustive sweep on every category with at most four
    morphisms and one relabelling of each (``small_categories``).  The CI
    runs the same checks up to five morphisms (``tests/sweep.py``)."""

    def test_counts_by_size(self):
        sizes = Counter(len(c.morphisms) for c in gen.small_categories(4))
        assert [sizes[m] for m in range(1, 5)] == [1, 3, 11, 55]  # OEIS A125696

    def test_every_report(self):
        unranked = list(map(sweep_reports, small_categories(4)))
        # 70 categories, each twice; 19 of the walks, all in relabelled
        # categories, take the names route: an id into their object
        # extends the id before it (``fincat._apart``)
        assert (len(unranked), sum(unranked)) == (140, 19)

    def test_duality(self):
        assert sum(map(sweep_duality, small_categories(4))) == 520


# -- written reports ----------------------------------------------------------


def written(r, fmt):
    out = io.StringIO()
    homotopy.write_report(r, fmt, out)
    return out.getvalue()


def text_covers(text):
    """The pairs of the text ``covers`` line, checked against its count;
    names here hold no "; " and no " < "."""
    line = next(line for line in text.splitlines() if line.startswith("covers ("))
    count, _, rows = line[len("covers ("):].partition("): ")
    pairs = [tuple(pair.split(" < ")) for pair in rows.split("; ")] if rows else []
    assert int(count) == len(pairs)
    return pairs


QUOTED = r'"((?:[^"\\]|\\.)*)"'
EDGE = re.compile(rf"^  {QUOTED} -> {QUOTED};$", re.M)


def dot_edges(dot):
    """The edges of a DOT digraph as name pairs, each DOT string unquoted."""
    return [tuple(re.sub(r"\\(.)", r"\1", s) for s in pair) for pair in EDGE.findall(dot)]


def assert_written(r):
    """The interchange ``covers`` are the transitive reduction of its
    ``leq`` without loops, ``leq`` is the reflexive transitive closure of
    the covers, and the text and DOT covers name the same pairs."""
    doc = json.loads(written(r, "interchange"))
    leq = [tuple(pair) for pair in doc["leq"]]
    covers = [tuple(pair) for pair in doc["covers"]]
    assert leq == sorted(set(leq)) and covers == sorted(set(covers))
    order_graph = nx.DiGraph(leq)
    order_graph.add_nodes_from(doc["elements"])
    order_graph.remove_edges_from(list(nx.selfloop_edges(order_graph)))
    assert set(covers) == set(nx.transitive_reduction(order_graph).edges)
    hasse = nx.DiGraph(covers)
    hasse.add_nodes_from(doc["elements"])
    assert set(leq) == set(nx.transitive_closure(hasse, reflexive=True).edges)
    assert sorted(text_covers(written(r, "text"))) == sorted(dot_edges(written(r, "dot"))) == covers


# generator names with DOT and JSON escapes, the empty one included, and a
# collapsed part of them
POWERSETS = st.lists(st.text(alphabet='ab\\"{}', max_size=2), max_size=8, unique=True).flatmap(
    lambda universe: st.tuples(st.just(universe), st.sets(st.sampled_from(universe)) if universe else st.just(set()))
)


class TestWrittenReports:
    @settings(max_examples=25, deadline=None)
    @given(POWERSETS)
    @example((["", "\\", '"', "a", "b", "{", "}", "ab"], set()))
    @example((["", "\\", '"', "a", "b", "{", "}", "ab"], {"", '"', "b"}))
    def test_powerset_reports(self, drawn):
        universe, collapsed = drawn
        try:
            r = homotopy.powerset_report(universe, collapsed, "[x]", "powerset")
        except InvalidPoset:  # two elements render alike
            assume(False)
        assert_written(r)

    def test_pi1_of_the_finite_sets_at_the_largest(self):
        c = gen.finset_ambient(3)
        assert_written(homotopy.pi1(c, c.objects[-1]))


# -- reachability of open graphs ----------------------------------------------


def nx_reach(g, h=None):
    """The boundary pairs joined by a directed path, by ``nx.descendants``:
    in g, or in g glued to h, built here as one digraph on side-tagged
    vertices with an edge each way between g's leg at output y and h's leg
    at input y."""
    parts = [("L", g), ("R", h)] if h else [("L", g)]
    d = nx.DiGraph()
    for side, graph in parts:
        d.add_nodes_from((side, v) for v in graph.vertices)
        d.add_edges_from(((side, u), (side, v)) for u, v in graph.edges)
    if h:
        for y in g.outputs:
            glued = ("L", g.out_leg[y]), ("R", h.in_leg[y])
            d.add_edges_from([glued, glued[::-1]])
    side, last = parts[-1]
    pairs = set()
    for x in g.inputs:
        start = ("L", g.in_leg[x])
        seen = nx.descendants(d, start) | {start}
        pairs.update((x, z) for z in last.outputs if (side, last.out_leg[z]) in seen)
    return pairs


def assert_reach(g, h):
    for graph in (g, h):
        assert og.reach(graph).pairs == nx_reach(graph)
    assert og.glued_reach(g, h).pairs == nx_reach(g, h)


def read_og(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return og.parse_open_graph(fh.read())


class TestReach:
    def test_fixtures(self):
        h = read_og("H.og")
        for left in ("G.og", "G_identified.og"):
            assert_reach(read_og(left), h)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_random_open_graphs(self, seed, clash):
        rng = random.Random(seed)
        g, h = gen.random_composable_graphs(rng)
        if clash:
            # both parts named by one list, so that a vertex of g and one
            # of h share a name without being glued
            g = gen.renamed_open_graph(g, [f"v{i}" for i in range(len(g.vertices))])
            h = gen.renamed_open_graph(h, [f"v{i}" for i in range(len(h.vertices))])
        assert_reach(g, h)
