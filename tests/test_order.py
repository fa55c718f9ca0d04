import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracles
from obstructia import order
from obstructia.errors import (
    EmptyCollapseSet,
    InvalidMap,
    InvalidPoset,
    NotDownClosed,
)


def chain(n):
    elems = [str(i) for i in range(n)]
    return order.make_poset(elems, {(a, b) for a in elems for b in elems if int(a) <= int(b)})


def antichain(labels):
    return order.make_poset(labels, {(a, a) for a in labels})


def powerset_poset(base):
    subsets = []
    for mask in range(1 << len(base)):
        subsets.append(frozenset(b for i, b in enumerate(base) if mask >> i & 1))
    name = {s: "{" + ",".join(sorted(s)) + "}" for s in subsets}
    leq = {(name[s], name[t]) for s in subsets for t in subsets if s <= t}
    return order.make_poset(name.values(), leq), name


@st.composite
def posets(draw):
    """Random finite poset: reachability order of a random DAG."""
    n = draw(st.integers(min_value=1, max_value=6))
    elems = [f"p{i}" for i in range(n)]
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]),
            max_size=8,
        )
    )
    leq = {(e, e) for e in elems}
    # transitive closure of the DAG edges
    adj = {e: set() for e in elems}
    for i, j in pairs:
        adj[elems[i]].add(elems[j])
    for e in elems:
        stack = list(adj[e])
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            leq.add((e, v))
            stack.extend(adj[v])
    return order.make_poset(elems, leq)


class TestPosetValidation:
    def test_not_reflexive(self):
        with pytest.raises(InvalidPoset):
            order.make_poset(["a"], [])

    def test_not_antisymmetric(self):
        with pytest.raises(InvalidPoset):
            order.make_poset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])

    def test_not_transitive(self):
        with pytest.raises(InvalidPoset):
            order.make_poset(
                ["a", "b", "c"],
                [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
            )

    def test_unknown_element(self):
        with pytest.raises(InvalidPoset):
            order.make_poset(["a"], [("a", "a"), ("a", "zz")])

    def test_bad_basepoint(self):
        with pytest.raises(InvalidPoset):
            order.PointedPoset(chain(2), "7")


class TestReflection:
    def test_walking_arrow_chain(self):
        wa = gen.thin_category(chain(2))
        p, cls = order.poset_reflection(wa)
        assert p.elements == ("0", "1")
        assert p.le("0", "1") and not p.le("1", "0")

    def test_z2_single_class(self):
        z2 = gen.cyclic_group_category(2)
        p, cls = order.poset_reflection(z2)
        assert p.elements == ("*",)

    def test_groupoid_discrete_components(self):
        g = gen.two_component_groupoid()
        p, cls = order.poset_reflection(g)
        assert len(p.elements) == 2
        assert all(a == b for a, b in p.leq)

    def test_class_map_surjective(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            c = gen.random_category(rng)
            p, cls = order.poset_reflection(c)
            assert set(cls.values()) == set(p.elements)

    def test_matches_hom_scan(self, seed):
        rng = random.Random(seed + 11)
        for _ in range(25):
            c = gen.random_category(rng)
            p, cls = order.poset_reflection(c)
            assert (cls, p.leq) == oracles.reflection(c)
            assert p.elements == tuple(sorted(set(cls.values())))

    def test_thin_skeletal_fixed_point(self):
        # the reflection of a poset-as-category is the poset itself
        p = chain(4)
        thin = gen.thin_category(p)
        p2, cls = order.poset_reflection(thin)
        assert p2 == p
        assert cls == {e: e for e in p.elements}

    def test_weak_terminal_iff_greatest(self, seed):
        rng = random.Random(seed + 10)
        for _ in range(25):
            c = gen.random_category(rng)
            p, cls = order.poset_reflection(c)
            for x in c.objects:
                greatest = all(p.le(e, cls[x]) for e in p.elements)
                assert greatest == oracles.weak_terminal(c, x)


class TestLowerClosure:
    def test_chain(self):
        p = chain(3)
        assert order.lower_closure(p, {"1"}) == {"0", "1"}

    def test_empty(self):
        assert order.lower_closure(chain(3), set()) == frozenset()

    def test_antichain(self):
        p = antichain(["a", "b", "c"])
        assert order.lower_closure(p, {"a"}) == {"a"}


class TestCollapse:
    def test_chain_prefix(self):
        pp = order.collapse_lower(chain(3), {"0", "1"}, "[*]")
        assert set(pp.poset.elements) == {"[*]", "2"}
        assert pp.poset.le("[*]", "2")

    def test_collapse_everything(self):
        pp = order.collapse_lower(chain(3), {"0", "1", "2"}, "[*]")
        assert pp.poset.elements == ("[*]",)

    def test_powerset_example(self):
        p, name = powerset_poset(["0", "1"])
        lower = {name[frozenset()], name[frozenset({"0"})]}
        pp = order.collapse_lower(p, lower, "[*]")
        assert set(pp.poset.elements) == {"[*]", "{1}", "{0,1}"}
        assert pp.poset.le("[*]", "{1}") and pp.poset.le("{1}", "{0,1}")
        assert pp.poset.le("[*]", "{0,1}")

    def test_not_down_closed(self):
        with pytest.raises(NotDownClosed):
            order.collapse_lower(chain(3), {"1"}, "[*]")

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyCollapseSet):
            order.collapse_lower(chain(3), set(), "[*]")

    def test_basepoint_name_collision_handled(self):
        pp = order.collapse_lower(chain(2), {"0"}, "1")
        assert pp.basepoint == "1'"

    @settings(max_examples=60, deadline=None)
    @given(posets(), st.data())
    def test_collapse_invariants(self, p, data):
        start = data.draw(st.sampled_from(sorted(p.elements)))
        lower = order.lower_closure(p, {start})
        pp = order.collapse_lower(p, lower, "[*]")
        bp = pp.basepoint
        for e in pp.poset.elements:
            if e != bp:
                assert not pp.poset.le(e, bp)
        survivors = [e for e in p.elements if e not in lower]
        for a in survivors:
            for b in survivors:
                assert p.le(a, b) == pp.poset.le(a, b)


class TestHasse:
    def test_chain_covers(self):
        assert order.hasse(chain(3)) == (("0", "1"), ("1", "2"))

    def test_discrete(self):
        assert order.hasse(antichain(["a", "b"])) == ()

    def test_powerset_of_two(self):
        p, _ = powerset_poset(["0", "1"])
        covers = order.hasse(p)
        # brute force: (a, b) is a cover iff a < b with nothing in between
        brute = tuple(
            sorted(
                (a, b)
                for a in p.elements
                for b in p.elements
                if p.lt(a, b) and not any(p.lt(a, c) and p.lt(c, b) for c in p.elements)
            )
        )
        assert covers == brute
        assert len(covers) == 4

    @settings(max_examples=60, deadline=None)
    @given(posets())
    def test_round_trip(self, p):
        covers = order.hasse(p)
        adj = {e: set() for e in p.elements}
        for a, b in covers:
            adj[a].add(b)
        closure = {(e, e) for e in p.elements}
        for e in p.elements:
            stack = list(adj[e])
            while stack:
                v = stack.pop()
                if (e, v) not in closure:
                    closure.add((e, v))
                    stack.extend(adj[v])
        assert frozenset(closure) == p.leq


class TestIso:
    def test_two_chain_vs_two_chain(self):
        a = order.PointedPoset(chain(2), "0")
        b = order.PointedPoset(
            order.make_poset(["x", "y"], [("x", "x"), ("y", "y"), ("x", "y")]), "x"
        )
        m = order.iso_pointed(a, b)
        assert m is not None and m.mapping == {"0": "x", "1": "y"}

    def test_two_chain_vs_trivial(self):
        a = order.PointedPoset(chain(2), "0")
        b = order.PointedPoset(chain(1), "0")
        assert order.iso_pointed(a, b) is None

    def test_basepoint_position_matters(self):
        a = order.PointedPoset(chain(2), "0")
        b = order.PointedPoset(chain(2), "1")
        assert order.iso_pointed(a, b) is None

    def test_same_shape_different_labels(self):
        p1, _ = powerset_poset(["0", "1"])
        p2, _ = powerset_poset(["x", "y"])
        m = order.iso_pointed(order.PointedPoset(p1, "{}"), order.PointedPoset(p2, "{}"))
        assert m is not None


class TestMaps:
    def test_monotone_rejects_order_breaking(self):
        with pytest.raises(InvalidMap):
            order.make_monotone(chain(2), antichain(["a", "b"]), {"0": "a", "1": "b"})

    def test_pointed_rejects_basepoint_move(self):
        a = order.PointedPoset(chain(2), "0")
        with pytest.raises(InvalidMap):
            order.make_pointed(a, a, {"0": "1", "1": "1"})

    def test_compose_and_identity(self):
        a = order.PointedPoset(chain(2), "0")
        i = order.identity_pointed(a)
        assert order.compose_pointed(i, i) == i


class TestThinCategory:
    def test_round_trip_through_reflection(self):
        p = chain(3)
        c = gen.thin_category(p)
        assert len(c.morphisms) == len(p.leq)
        p2, _ = order.poset_reflection(c)
        assert p2 == p


class TestDot:
    def test_hasse_dot_deterministic_and_marked(self):
        pp = order.collapse_lower(chain(3), {"0"}, "[*]")
        d1 = order.hasse_dot(pp)
        d2 = order.hasse_dot(pp)
        assert d1 == d2
        assert "doublecircle" in d1
        assert d1.startswith("digraph")
