import io
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
import oracles
from obstructia import cli, homotopy
from obstructia import opengraph as og
from obstructia.errors import (
    BoundaryMismatch,
    CapExceeded,
    DanglingReference,
    LaxityViolation,
    NotAGraphHom,
    OracleMismatch,
    ParseError,
    TypeMismatch,
)

LABELS = st.text(alphabet="{}(),[]=>+'\\# ", max_size=3)


def og_vertex(v):
    """Whether a .og vertex line reads v back."""
    try:
        og.serialize_open_graph(og.OpenGraph((), (), (v,), frozenset(), {}, {}))
    except ParseError:
        return False
    return True


# vertex names a .og file reads back, the words of a .gh line among them:
# the character classes leave out blanks, line breaks and control codes
OG_VERTICES = (
    st.sampled_from(["map", "="])
    | st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp"), exclude_characters="#"), min_size=1, max_size=4)
).filter(og_vertex)

G_TEXT = """
inputs 1
outputs 1,2,3
vertex a1
vertex w1
vertex w2
vertex w3
edge a1 -> w1
edge w2 -> w3
in 1 = a1
out 1 = w1
out 2 = w2
out 3 = w3
"""

H_TEXT = """
inputs 1,2,3
outputs 1
vertex b1
vertex b2
vertex b3
vertex c1
edge b1 -> b2
edge b3 -> c1
in 1 = b1
in 2 = b2
in 3 = b3
out 1 = c1
"""


@pytest.fixture
def G():
    return og.parse_open_graph(G_TEXT)


@pytest.fixture
def H():
    return og.parse_open_graph(H_TEXT)


def identified(G):
    """G with the vertices under outputs 1 and 3 merged."""
    target = og.OpenGraph(
        ("1",),
        ("1", "2", "3"),
        ("a1", "w1", "w2"),
        frozenset({("a1", "w1"), ("w2", "w1")}),
        {"1": "a1"},
        {"1": "w1", "2": "w2", "3": "w1"},
    )
    return og.GraphHom(G, target, {"a1": "a1", "w1": "w1", "w2": "w2", "w3": "w1"})


def fixture(name):
    return os.path.join(os.path.dirname(__file__), "..", "fixtures", name)


def laxator(g, h):
    """The composite of the parts' reachabilities and the reachability of
    the composite: what the laxator's obstruction posets are read from."""
    return og.compose_rel(og.reach(g), og.reach(h)), og.reach(og.compose(g, h))


class TestParsing:
    def test_round_trip(self, G, H):
        for g in (G, H):
            assert og.parse_open_graph(og.serialize_open_graph(g)) == g

    def test_unreadable_label_refused(self):
        # written as "vertex  v", it would read back with the vertex 'v'
        g = og.OpenGraph(("a",), ("b",), (" v",), frozenset(), {"a": " v"}, {"b": " v"})
        with pytest.raises(ParseError, match="^vertex ' v' would not read back from a .og line$"):
            og.serialize_open_graph(g)
        g = og.OpenGraph(("a,c",), ("b",), ("v",), frozenset(), {"a,c": "v"}, {"b": "v"})
        with pytest.raises(ParseError, match="^boundary label 'a,c' would not read back"):
            og.serialize_open_graph(g)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(LABELS, max_size=2, unique=True),
        st.lists(LABELS, max_size=2, unique=True),
        st.lists(LABELS, min_size=1, max_size=3, unique=True),
    )
    @example(inputs=["a"], outputs=["b"], vertices=[" v"])
    @example(inputs=["a b"], outputs=[], vertices=["v"])
    @example(inputs=[], outputs=[], vertices=["v\tw"])
    @example(inputs=["a,b"], outputs=[], vertices=["v"])
    @example(inputs=[], outputs=[], vertices=["v", "w#"])
    @example(inputs=[""], outputs=[], vertices=["v"])
    def test_round_trip_or_refusal(self, inputs, outputs, vertices):
        """Labels drawn over the characters the format and its neighbours give
        a meaning to: either refused, naming the label, or read back as they
        were written."""
        g = og.OpenGraph(
            tuple(inputs), tuple(outputs), tuple(vertices), frozenset({(vertices[0], vertices[-1])}),
            {x: vertices[0] for x in inputs}, {y: vertices[-1] for y in outputs},
        )
        try:
            text = og.serialize_open_graph(g)
        except ParseError as exc:
            assert any(repr(t) in str(exc) for t in (*inputs, *outputs, *vertices))
            return
        assert og.parse_open_graph(text) == g

    def test_bad_line(self):
        with pytest.raises(ParseError):
            og.parse_open_graph("inputs a\noutputs b\nvortex v")

    def test_duplicate_legs_rejected_with_line(self):
        head = "inputs a\noutputs b\nvertex v w\n"
        with pytest.raises(ParseError, match=r"line 5: duplicate in leg 'a'"):
            og.parse_open_graph(head + "in a = v\nin a = w\nout b = v")
        with pytest.raises(ParseError, match=r"line 6: duplicate out leg 'b'"):
            og.parse_open_graph(head + "in a = v\nout b = v\nout b = v")

    def test_duplicate_vertex_rejected_with_line(self):
        # once on one line, once on a second line: neither merges silently
        with pytest.raises(ParseError, match=r"^line 3: duplicate vertex 'v'$"):
            og.parse_open_graph("inputs a\noutputs b\nvertex v v\nin a = v\nout b = v")
        with pytest.raises(ParseError, match=r"^line 4: duplicate vertex 'v'$"):
            og.parse_open_graph("inputs a\noutputs b\nvertex v w\nvertex v\nin a = v\nout b = v")

    def test_duplicate_edge_rejected_with_line(self):
        head = "inputs a\noutputs b\nvertex v w\nedge v -> w\n"
        with pytest.raises(ParseError, match=r"^line 5: duplicate edge 'v' -> 'w'$"):
            og.parse_open_graph(head + "edge v -> w\nin a = v\nout b = w")
        assert len(og.parse_open_graph(head + "edge w -> v\nin a = v\nout b = w").edges) == 2

    def test_duplicate_boundary_labels_rejected_with_line(self):
        with pytest.raises(ParseError, match=r"line 1: duplicate input '1'"):
            og.parse_open_graph("inputs 1,1\noutputs 2")
        with pytest.raises(ParseError, match=r"line 3: duplicate output 'b'"):
            og.parse_open_graph("inputs a\noutputs b\noutputs c,b")

    def test_empty_boundary_label_rejected_with_line(self):
        with pytest.raises(ParseError, match=r"line 1: empty input label"):
            og.parse_open_graph("inputs 1,,2\noutputs 3")
        with pytest.raises(ParseError, match=r"line 2: empty output label"):
            og.parse_open_graph("inputs 1\noutputs 3,")
        assert og.parse_open_graph("inputs\noutputs").inputs == ()

    def test_boundary_label_with_whitespace_rejected_with_line(self):
        # the words of a boundary line are joined again before the commas
        # split them, so "a b" would be one label that no leg line can name
        with pytest.raises(ParseError, match=r"^line 1: input label 'a b' holds whitespace$"):
            og.parse_open_graph("inputs a b\noutputs c\nvertex v\nin a b = v\nout c = v")
        with pytest.raises(ParseError, match=r"^line 2: output label 'c d' holds whitespace$"):
            og.parse_open_graph("inputs a\noutputs b, c\td\nvertex v")
        with pytest.raises(ParseError, match=r"would not read back"):
            og.serialize_open_graph(og.OpenGraph(("a b",), (), ("v",), frozenset(), {"a b": "v"}, {}))

    def test_whitespace_around_boundary_commas_is_not_a_label(self):
        g = og.parse_open_graph("inputs  a ,\tb\noutputs c , d\nvertex v\nin a = v\nin b = v\nout c = v\nout d = v")
        assert (g.inputs, g.outputs) == (("a", "b"), ("c", "d"))
        assert og.parse_open_graph(og.serialize_open_graph(g)) == g

    def test_dangling_leg(self):
        with pytest.raises(DanglingReference):
            og.parse_open_graph("inputs a\noutputs\nvertex v\nin a = w")

    def test_repeated_boundary_label_refused_when_built(self):
        # both gluing routes key on labels, so a repeat would merge two legs
        with pytest.raises(BoundaryMismatch, match=r"^input label 'a' is repeated$"):
            og.OpenGraph(("a", "a"), ("b",), ("v",), frozenset(), {"a": "v"}, {"b": "v"})
        with pytest.raises(BoundaryMismatch, match=r"^output label 'c' is repeated$"):
            og.OpenGraph(("a",), ("b", "c", "c"), ("v",), frozenset(), {"a": "v"}, {"b": "v", "c": "v"})

    def test_leg_outside_boundary_refused(self):
        # serialize_open_graph writes the legs of boundary labels only, so a
        # graph with another leg would not read back as itself
        with pytest.raises(DanglingReference, match=r"^input leg 'zz' has no input label$"):
            og.parse_open_graph("inputs a\noutputs\nvertex v\nin a = v\nin zz = v\n")
        with pytest.raises(DanglingReference, match=r"^output leg 'c' has no output label$"):
            og.OpenGraph((), ("b",), ("v",), frozenset(), {}, {"b": "v", "c": "v"})

    def test_hom_map_to_unknown_target_refused_with_line(self, G):
        target = identified(G).target
        with pytest.raises(ParseError, match=r"^line 2: 'nosuch' is not a target vertex$"):
            og.parse_graph_hom("map w3 = w1\nmap w2 = nosuch\n", G, target)

    def test_hom_map_lines_refused_with_line(self, G):
        target = identified(G).target
        with pytest.raises(ParseError, match=r"^line 2: duplicate map of 'w3'$"):
            og.parse_graph_hom("map w3 = w1\nmap w3 = w1\n", G, target)
        with pytest.raises(ParseError, match=r"^line 3: 'nosuch' is not a source vertex$"):
            og.parse_graph_hom("map w3 = w1\n\nmap nosuch = w1\n", G, target)
        assert og.parse_graph_hom("map w3 = w1\n", G, target) == identified(G)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(OG_VERTICES, min_size=1, max_size=4, unique=True), st.lists(st.integers(0, 3), min_size=4, max_size=4))
    @example(vertices=["=", "map", "->", "é"], images=[1, 0, 3, 2])
    def test_hom_text_round_trip(self, vertices, images):
        """Any vertex map on names a .og file reads back: its .gh text, one
        'map v = w' line per vertex, reads back as the same GraphHom.  Such a
        name holds no blank and no '#', so no line has cause to be refused."""
        g = og.OpenGraph((), (), tuple(vertices), frozenset(), {}, {})
        hom = og.GraphHom(g, g, {v: vertices[i % len(vertices)] for v, i in zip(vertices, images)})
        assert og.parse_graph_hom(oracles.graph_hom_text(hom), g, g) == hom


class TestReach:
    def test_left_part(self, G):
        assert og.reach(G).pairs == {("1", "1")}

    def test_right_part(self, H):
        assert og.reach(H).pairs == {("3", "1")}

    def test_composite_total(self, G, H):
        assert og.reach(og.compose(G, H)).pairs == {("1", "1")}

    def test_matches_dfs_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            g = gen.random_open_graph(rng, ("x", "y"), ("z",))
            assert og.reach(g).pairs == oracles.reach_pairs(g)


class TestCompose:
    def test_boundary_mismatch(self, G):
        with pytest.raises(BoundaryMismatch):
            og.compose(G, G)

    def test_glued_vertex_merges(self, G, H):
        gh = og.compose(G, H)
        # three glued vertices plus the two outer ones
        assert len(gh.vertices) == 5
        merged = [v for v in gh.vertices if "+" in v]
        assert len(merged) == 3

    def test_identity_composite_isomorphic(self, G):
        ident = gen.identity_graph(("1", "2", "3"))
        assert oracles.open_graph_iso(og.compose(G, ident), G)
        left_ident = gen.identity_graph(("1",))
        assert oracles.open_graph_iso(og.compose(left_ident, G), G)

    def test_vertex_count_with_injective_legs(self, seed):
        rng = random.Random(seed + 1)
        for _ in range(20):
            g, h = gen.random_composable_graphs(rng)
            # legs here are injective by construction (one vertex per label)
            gh = og.compose(g, h)
            expected = len(g.vertices) + len(h.vertices) - len(g.outputs)
            assert len(gh.vertices) == expected

    def test_associative_up_to_iso(self, seed):
        rng = random.Random(seed + 2)
        for _ in range(15):
            xs = ("x",)
            ys = ("y0", "y1")
            zs = ("z",)
            ws = ("w",)
            a = gen.random_open_graph(rng, xs, ys, max_inner=2)
            b = gen.random_open_graph(rng, ys, zs, max_inner=2)
            c = gen.random_open_graph(rng, zs, ws, max_inner=2)
            lhs = og.compose(og.compose(a, b), c)
            rhs = og.compose(a, og.compose(b, c))
            assert oracles.open_graph_iso(lhs, rhs)

    def test_glued_reach_is_reach_of_composite(self, seed):
        """glued_reach reads the composite's reachability off the gluing
        without naming it; the vertices are renamed with '+', '.' and "'",
        so that some class names clash and compose primes them."""
        rng = random.Random(seed + 3)
        pool = ["a", "b", "c", "a+R.b", "L.a", "R.b", "a'", "a+R.b'", "L.a+R.b", "c.d", "+", ".", "'"]
        primed = 0
        for i in range(300):
            g, h = gen.random_composable_graphs(rng)
            if i % 2:
                g, h = (gen.renamed_open_graph(x, rng.sample(pool, len(x.vertices))) for x in (g, h))
            gh = og.compose(g, h)
            primed += any(v.endswith("'") and v[:-1] in gh.vertices for v in gh.vertices)
            assert og.glued_reach(g, h) == og.reach(gh)
        assert primed

    def test_glued_reach_boundary_mismatch(self, G):
        with pytest.raises(BoundaryMismatch, match=r"^outputs \['1', '2', '3'\] do not match inputs \['1'\]$"):
            og.glued_reach(G, G)

    def test_vertex_named_like_a_glued_class_stays_distinct(self):
        # Left vertex "a+R.c" renders like the class gluing L.a to R.c.
        g = og.parse_open_graph(
            "inputs i\noutputs o\nvertex x a+R.c a\nedge x -> a+R.c\nin i = x\nout o = a\n"
        )
        h = og.parse_open_graph("inputs o\noutputs z\nvertex c\nin o = c\nout z = c\n")
        gh = og.compose(g, h)
        assert len(gh.vertices) == 3
        assert og.reach(gh).pairs == frozenset()
        assert og.laxator_obstructions(*laxator(g, h))[0].trivial
        assert og.parse_open_graph(og.serialize_open_graph(gh)) == gh


class TestRelations:
    def test_parts_compose_to_nothing(self, G, H):
        assert og.compose_rel(og.reach(G), og.reach(H)).pairs == frozenset()

    def test_identity_relation(self):
        r = og.Relation(("a", "b"), ("c",), frozenset({("a", "c")}))
        ident = og.Relation(("c",), ("c",), frozenset({("c", "c")}))
        assert og.compose_rel(r, ident).pairs == r.pairs

    def test_type_mismatch(self):
        r = og.Relation(("a",), ("b",), frozenset())
        with pytest.raises(TypeMismatch):
            og.compose_rel(r, r)

    def test_pair_outside_carrier_names_the_least(self):
        # the least offending pair in sort order, here met last
        with pytest.raises(TypeMismatch, match=r"^pair \('a', 'q'\) outside carrier$"):
            og.Relation(("a", "y", "z"), ("b",), [("z", "q"), ("y", "b"), ("a", "q")])

    def test_against_triple_loop(self, seed):
        rng = random.Random(seed + 3)
        xs, ys, zs = ("x0", "x1"), ("y0", "y1", "y2"), ("z0",)
        for _ in range(25):
            rp = frozenset((x, y) for x in xs for y in ys if rng.random() < 0.4)
            sp = frozenset((y, z) for y in ys for z in zs if rng.random() < 0.4)
            r = og.Relation(xs, ys, rp)
            s = og.Relation(ys, zs, sp)
            assert og.compose_rel(r, s).pairs == oracles.compose_relation_pairs(rp, sp)


class TestLaxatorObstructions:
    def test_two_chain_gap(self, G, H):
        r = og.laxator_obstructions(*laxator(G, H))[0]
        assert len(r.invariant.poset.elements) == 2
        assert r.minimal == {"{(1,1)}"}
        assert not r.trivial

    def test_trivial_when_parts_account_for_whole(self):
        ident = gen.identity_graph(("1", "2"))
        assert og.laxator_obstructions(*laxator(ident, ident))[0].trivial

    def test_composed_outside_whole_refused(self, G, H, monkeypatch):
        # the parts of (G, H) compose to a strict sub-relation of the
        # composite's reachability; swapped, the parts would reach more,
        # and the one call refuses before it builds either report
        composed, whole = laxator(G, H)
        assert composed.pairs < whole.pairs
        og.laxator_obstructions(composed, whole)
        built = []
        monkeypatch.setattr(homotopy, "powerset_report", lambda *args: built.append(args))
        with pytest.raises(LaxityViolation, match=r"^composite of parts exceeds reachability of the composite$"):
            og.laxator_obstructions(whole, composed)
        assert built == []

    def test_gap_of_two(self):
        # the composite path zig-zags between the parts, so both z's are
        # reachable in the whole while the parts compose to nothing
        g = og.OpenGraph(
            ("x",),
            ("y0", "y1", "y2"),
            ("vx", "v0", "v1", "v2"),
            frozenset({("vx", "v0"), ("v1", "v2")}),
            {"x": "vx"},
            {"y0": "v0", "y1": "v1", "y2": "v2"},
        )
        h = og.OpenGraph(
            ("y0", "y1", "y2"),
            ("z0", "z1"),
            ("u0", "u1", "u2", "t0", "t1"),
            frozenset({("u0", "u1"), ("u2", "t0"), ("u2", "t1")}),
            {"y0": "u0", "y1": "u1", "y2": "u2"},
            {"z0": "t0", "z1": "t1"},
        )
        assert og.reach(g).pairs == {("x", "y0")}
        assert og.reach(h).pairs == {("y2", "z0"), ("y2", "z1")}
        assert og.compose_rel(og.reach(g), og.reach(h)).pairs == frozenset()
        assert og.reach(og.compose(g, h)).pairs == {("x", "z0"), ("x", "z1")}
        r = og.laxator_obstructions(*laxator(g, h))[0]
        assert r.minimal == {"{(x,z0)}", "{(x,z1)}"}

    def test_zigzag_pairs_obstruct_at_x0_z0(self, seed):
        # the whole reaches (x0, z0) only by crossing the boundary three
        # times, so the singleton of that pair is a minimal obstruction
        rng = random.Random(seed + 10)
        for _ in range(25):
            pi0, pi1 = og.laxator_obstructions(*laxator(*gen.zigzag_composable_graphs(rng)))
            assert "{(x0,z0)}" in pi0.minimal
            assert pi1.trivial

    def test_laxity_holds_on_random_pairs(self, seed):
        rng = random.Random(seed + 4)
        for _ in range(25):
            g, h = gen.random_composable_graphs(rng)
            composed = og.compose_rel(og.reach(g), og.reach(h))
            whole = og.reach(og.compose(g, h))
            assert composed.pairs <= whole.pairs

    def test_cap(self):
        def fan(m, n):
            # m inputs into one glued vertex c, and n outputs out of it
            xs = tuple(f"x{i}" for i in range(m))
            zs = tuple(f"z{i}" for i in range(n))
            g = og.OpenGraph(xs, ("m",), tuple(f"i_{x}" for x in xs) + ("c",),
                             frozenset((f"i_{x}", "c") for x in xs),
                             {x: f"i_{x}" for x in xs}, {"m": "c"})
            h = og.OpenGraph(("m",), zs, ("c",) + tuple(f"o_{z}" for z in zs),
                             frozenset(("c", f"o_{z}") for z in zs),
                             {"m": "c"}, {z: f"o_{z}" for z in zs})
            return g, h

        g, h = fan(4, 4)
        assert len(og.reach(og.compose(g, h)).pairs) == 16
        with pytest.raises(CapExceeded, match=r"^powerset of 16 generators exceeds cap 12$"):
            og.laxator_obstructions(*laxator(g, h))
        # pi1 is read off by theorem and builds no powerset, so only pi0's
        # cap bounds the call: at the cap (the parts account for all 12
        # pairs) the call returns, and pi1 is the one point
        composed, whole = laxator(*fan(3, 4))
        assert len(whole.pairs) == 12
        pi0, pi1 = og.laxator_obstructions(composed, whole)
        assert pi0.trivial and pi1.trivial


class TestPi1Laxator:
    def test_fixture_pair_trivial(self, G, H):
        assert og.laxator_obstructions(*laxator(G, H))[1].trivial

    def test_identity_composite_trivial(self):
        ident = gen.identity_graph(("1",))
        assert og.laxator_obstructions(*laxator(ident, ident))[1].trivial

    def test_random_pairs_all_trivial(self, seed):
        rng = random.Random(seed + 6)
        done = 0
        while done < 20:
            g, h = gen.random_composable_graphs(rng)
            if len(og.reach(og.compose(g, h)).pairs) > 5:
                continue
            assert og.laxator_obstructions(*laxator(g, h))[1].trivial
            done += 1

    def test_matches_thin_category_oracle(self, G, H, seed):
        """pi1 computed through the thin category of all sub-relations of the
        composite reachability, pointed at the composite of the parts, on
        draws of which at least 5 have a pi0 that is not one point."""
        drawn = list(thin_draws(seed))
        for g, h in [(G, H), *drawn]:
            assert og.laxator_obstructions(*laxator(g, h))[1] == homotopy.pi1(*thin_laxator(g, h))
        assert sum(not og.laxator_obstructions(*laxator(g, h))[0].trivial for g, h in drawn) >= 5

    def test_pi0_matches_thin_category_oracle(self, G, H, seed):
        """pi0, the laxator obstructions, through the same thin category at
        the same point and on the same draws, and on a width-8 pair whose
        parts compose to 5 of its 8 boundary pairs (224 obstructions): the
        pointed poset, the minimal set and the flag agree, under another
        context."""
        rng, ys = random.Random(76), ("y0", "y1", "y2")
        wide = (gen.random_open_graph(rng, ("x0", "x1"), ys, edge_prob=0.25),
                gen.random_open_graph(rng, ys, ("z0", "z1", "z2", "z3"), edge_prob=0.25))
        drawn = list(thin_draws(seed))
        for g, h in [(G, H), *drawn, wide]:
            got, want = og.laxator_obstructions(*laxator(g, h))[0], homotopy.pi0(*thin_laxator(g, h))
            assert (got.invariant, got.minimal, got.trivial) == (want.invariant, want.minimal, want.trivial)
            assert got.context != want.context
        assert len(got.invariant.poset.elements) == 225
        assert sum(not og.laxator_obstructions(*laxator(g, h))[0].trivial for g, h in drawn) >= 5


def thin_laxator(g, h):
    """The thin category of all sub-relations of reach(g . h), and its
    object at the composite of the parts' reachabilities."""
    composed, whole = laxator(g, h)
    labels = og._rel_pair_labels(whole.pairs)
    subsets = homotopy.powerset_report(labels, (), homotopy.subset_name(()), "sub-relations")
    return gen.thin_category(subsets.invariant.poset), homotopy.subset_name(og._rel_pair_labels(composed.pairs))


def thin_draws(seed):
    """Drawn pairs whose composite relates at most 6 boundary pairs: 20
    random ones, most with a one-point pi0, then 6 zig-zag ones, whose parts
    compose to a strict sub-relation of the whole."""
    rng = random.Random(seed + 9)
    for draw, count in ((gen.random_composable_graphs, 20), (gen.zigzag_composable_graphs, 6)):
        done = 0
        while done < count:
            g, h = draw(rng)
            if len(og.reach(og.compose(g, h)).pairs) > 6:
                continue
            yield g, h
            done += 1


class TestGraphHom:
    def test_identified_hom_valid(self, G):
        hom = identified(G)
        assert og.reach(hom.target).pairs == {("1", "1"), ("1", "3")}

    def test_edge_not_preserved(self, G):
        bad = og.OpenGraph(
            G.inputs, G.outputs, G.vertices, frozenset({("a1", "w1")}),
            dict(G.in_leg), dict(G.out_leg),
        )
        with pytest.raises(NotAGraphHom):
            og.GraphHom(G, bad, {v: v for v in G.vertices})

    def test_boundary_must_match(self, G, H):
        with pytest.raises(BoundaryMismatch):
            og.GraphHom(G, H, {})

    def test_reach_monotone_under_homs(self, seed):
        rng = random.Random(seed + 7)
        for _ in range(25):
            g = gen.random_open_graph(rng, ("x",), ("y", "z"))
            hom = gen.random_vertex_merge_hom(rng, g)
            assert og.reach(hom.source).pairs <= og.reach(hom.target).pairs


class TestAct:
    def test_flow_trivialises(self, G, H):
        hom = identified(G)
        reached, pmap = og.act(hom, H)
        assert reached == og.reach(hom.target)
        assert reached.pairs == {("1", "1"), ("1", "3")}
        bp = pmap.target.basepoint
        assert pmap.mapping["{(1,1)}"] == bp

    def test_reachability_that_shrinks_is_refused(self, G, H, monkeypatch):
        # a valid homomorphism cannot shrink reachability, so the check every
        # act of every test meets (conftest.py) is made to see one by a
        # relation that forgets the target's paths, and, through act, by a
        # source that reaches a pair the target does not
        hom = identified(G)
        assert og.reach(hom.source).pairs
        with pytest.raises(OracleMismatch) as exc:
            oracles.check_growth(hom, og.Relation(hom.target.inputs, hom.target.outputs, frozenset()))
        assert str(exc.value) == "reachability must grow along a graph homomorphism"
        reach_pairs = oracles.reach_pairs
        monkeypatch.setattr(oracles, "reach_pairs", lambda g: reach_pairs(g) | {("no input", "no output")})
        with pytest.raises(OracleMismatch) as exc:
            og.act(hom, H)
        assert str(exc.value) == "reachability must grow along a graph homomorphism"

    def test_identity_hom_identity_map(self, G, H):
        hom = og.GraphHom(G, G, {v: v for v in G.vertices})
        _, pmap = og.act(hom, H)
        assert pmap.mapping == {e: e for e in pmap.source.poset.elements}

    def test_random_homs_preserve_basepoint(self, seed):
        rng = random.Random(seed + 8)
        done = 0
        while done < 20:
            g, h = gen.random_composable_graphs(rng)
            if len(og.reach(og.compose(g, h)).pairs) > 6:
                continue
            hom = gen.random_vertex_merge_hom(rng, g)
            _, pmap = og.act(hom, h)  # construction validates the pointed map
            assert pmap.mapping[pmap.source.basepoint] == pmap.target.basepoint
            # A subset keeps its name iff some pair lies outside the target's
            # composite of the parts; otherwise it collapses.
            covered = set(og._rel_pair_labels(og.compose_rel(og.reach(hom.target), og.reach(h)).pairs))
            members = oracles.powerset_members(og._rel_pair_labels(og.reach(og.compose(g, h)).pairs))
            for e, image in pmap.mapping.items():
                if e != pmap.source.basepoint:
                    assert image == (e if not members[e] <= covered else pmap.target.basepoint)
            done += 1


class TestOneComputationPerRelation:
    @pytest.fixture
    def count(self, monkeypatch):
        calls = {}
        for name in ("reach", "glued_reach", "compose", "compose_rel"):
            def counted(*args, _name=name, _fn=getattr(og, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(og, name, counted)

        def run(*argv):
            calls.clear()
            assert cli.run(list(argv), out=io.StringIO()) == 0
            # the composite graph is never built: its reachability is glued_reach's
            assert "compose" not in calls
            return calls.get("reach", 0), calls.get("glued_reach", 0), calls.get("compose_rel", 0)

        return run

    def test_obstruct(self, count):
        assert count("opengraph", "obstruct", fixture("G.og"), fixture("H.og")) == (2, 1, 1)

    def test_act(self, count):
        argv = [fixture(n) for n in ("G.og", "G_identified.og", "identify_outputs.gh", "H.og")]
        assert count("opengraph", "act", *argv) == (3, 2, 2)


class TestDot:
    def test_backslash_and_quote_escaped(self):
        g = og.parse_open_graph('inputs 1\noutputs 2\nvertex a\\ b"\nedge a\\ -> b"\nin 1 = a\\\nout 2 = b"\n')
        lines = og.open_graph_dot(g).splitlines()
        assert '  "a\\\\" [shape=circle];' in lines
        assert '  "a\\\\" -> "b\\"";' in lines

    def test_emitter_shape(self, G):
        dot = og.open_graph_dot(G)
        assert dot.startswith("digraph")
        assert "style=dashed" in dot
        assert og.open_graph_dot(G) == dot
