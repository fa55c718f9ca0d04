import glob
import io
import os
import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
import oracles
from obstructia import fincat, homotopy, opengraph, order, setcat, states
from obstructia.errors import InvalidMap, InvalidPoset, OracleMismatch
from oracles import EmptyCollapseSet, NotDownClosed


def chain(n):
    elems = [str(i) for i in range(n)]
    return oracles.poset_from_pairs(elems, {(a, b) for a in elems for b in elems if int(a) <= int(b)})


def antichain(labels):
    return oracles.poset_from_pairs(labels, {(a, a) for a in labels})


def powerset_poset(base):
    subsets = []
    for mask in range(1 << len(base)):
        subsets.append(frozenset(b for i, b in enumerate(base) if mask >> i & 1))
    name = {s: "{" + ",".join(sorted(s)) + "}" for s in subsets}
    leq = {(name[s], name[t]) for s in subsets for t in subsets if s <= t}
    return oracles.poset_from_pairs(name.values(), leq), name


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
    return oracles.poset_from_pairs(elems, leq)


class TestPosetValidation:
    def test_not_reflexive(self):
        with pytest.raises(InvalidPoset):
            oracles.poset_from_pairs(["a"], [])

    def test_not_antisymmetric(self):
        with pytest.raises(InvalidPoset):
            oracles.poset_from_pairs(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])

    def test_not_transitive(self):
        with pytest.raises(InvalidPoset):
            oracles.poset_from_pairs(
                ["a", "b", "c"],
                [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
            )

    def test_unknown_element(self):
        with pytest.raises(InvalidPoset):
            oracles.poset_from_pairs(["a"], [("a", "a"), ("a", "zz")])

    def test_bad_basepoint(self):
        with pytest.raises(InvalidPoset):
            order.PointedPoset(chain(2), "7")


class TestReflection:
    def test_walking_arrow_chain(self):
        wa = gen.thin_category(chain(2))
        p, cls = oracles.poset_reflection(wa)
        assert p.elements == ("0", "1")
        assert ("0", "1") in oracles.leq(p) and ("1", "0") not in oracles.leq(p)

    def test_z2_single_class(self):
        z2 = gen.cyclic_group_category(2)
        p, cls = oracles.poset_reflection(z2)
        assert p.elements == ("*",)

    def test_groupoid_discrete_components(self):
        g = gen.two_component_groupoid()
        p, cls = oracles.poset_reflection(g)
        assert len(p.elements) == 2
        assert all(a == b for a, b in oracles.leq(p))

    def test_class_map_surjective(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            c = gen.random_category(rng)
            p, cls = oracles.poset_reflection(c)
            assert set(cls.values()) == set(p.elements)

    def test_matches_hom_scan(self, seed):
        rng = random.Random(seed + 11)
        for _ in range(25):
            c = gen.random_category(rng)
            p, cls = oracles.poset_reflection(c)
            assert (cls, oracles.leq(p)) == oracles.reflection(c)
            assert p.elements == tuple(sorted(set(cls.values())))

    def test_thin_skeletal_fixed_point(self):
        # the reflection of a poset-as-category is the poset itself
        p = chain(4)
        thin = gen.thin_category(p)
        p2, cls = oracles.poset_reflection(thin)
        assert p2 == p
        assert cls == {e: e for e in p.elements}

    def test_weak_terminal_iff_greatest(self, seed):
        rng = random.Random(seed + 10)
        for _ in range(25):
            c = gen.random_category(rng)
            p, cls = oracles.poset_reflection(c)
            leq = oracles.leq(p)
            for x in c.objects:
                greatest = all((e, cls[x]) in leq for e in p.elements)
                assert greatest == oracles.weak_terminal(c, x)


class TestLowerClosure:
    def test_chain(self):
        p = chain(3)
        assert oracles.lower_closure(p, {"1"}) == {"0", "1"}

    def test_empty(self):
        assert oracles.lower_closure(chain(3), set()) == frozenset()

    def test_antichain(self):
        p = antichain(["a", "b", "c"])
        assert oracles.lower_closure(p, {"a"}) == {"a"}


class TestCollapse:
    def test_chain_prefix(self):
        pp = oracles.collapse_lower(chain(3), {"0", "1"}, "[*]")
        assert set(pp.poset.elements) == {"[*]", "2"}
        assert ("[*]", "2") in oracles.leq(pp.poset)

    def test_collapse_everything(self):
        pp = oracles.collapse_lower(chain(3), {"0", "1", "2"}, "[*]")
        assert pp.poset.elements == ("[*]",)

    def test_powerset_example(self):
        p, name = powerset_poset(["0", "1"])
        lower = {name[frozenset()], name[frozenset({"0"})]}
        pp = oracles.collapse_lower(p, lower, "[*]")
        assert set(pp.poset.elements) == {"[*]", "{1}", "{0,1}"}
        assert {("[*]", "{1}"), ("{1}", "{0,1}"), ("[*]", "{0,1}")} <= oracles.leq(pp.poset)

    def test_not_down_closed(self):
        with pytest.raises(NotDownClosed):
            oracles.collapse_lower(chain(3), {"1"}, "[*]")

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyCollapseSet):
            oracles.collapse_lower(chain(3), set(), "[*]")

    def test_basepoint_name_collision_handled(self):
        pp = oracles.collapse_lower(chain(2), {"0"}, "1")
        assert pp.basepoint == "1'"

    @settings(max_examples=60, deadline=None)
    @given(posets(), st.data())
    def test_collapse_invariants(self, p, data):
        start = data.draw(st.sampled_from(sorted(p.elements)))
        lower = oracles.lower_closure(p, {start})
        pp = oracles.collapse_lower(p, lower, "[*]")
        bp, leq, collapsed_leq = pp.basepoint, oracles.leq(p), oracles.leq(pp.poset)
        for e in pp.poset.elements:
            if e != bp:
                assert (e, bp) not in collapsed_leq
        survivors = [e for e in p.elements if e not in lower]
        for a in survivors:
            for b in survivors:
                assert ((a, b) in leq) == ((a, b) in collapsed_leq)


@settings(max_examples=150, deadline=None)
@given(posets(), st.data())
def test_minimal_obstructions_popcount_filter(p, data):
    """The minimal obstructions of a report, read off its cover masks, are
    the non-basepoint elements with no other non-basepoint element below
    them, at any minimal basepoint and after a collapse; at a basepoint with
    an element below it the report is refused, naming the least such."""
    bp = data.draw(st.sampled_from(p.elements))
    for pp in (order.PointedPoset(p, bp), oracles.collapse_lower(p, oracles.lower_closure(p, {bp}), "[*]")):
        q, leq = pp.poset, oracles.leq(pp.poset)
        below = [e for e in q.elements if e != pp.basepoint and (e, pp.basepoint) in leq]
        if below:
            with pytest.raises(OracleMismatch, match=f"^basepoint fails minimality below {re.escape(repr(below[0]))}$"):
                homotopy.report_from_pointed(pp, "ctx")
            continue
        r = homotopy.report_from_pointed(pp, "ctx")
        assert r.minimal == oracles.minimal_obstructions(q.elements, leq, pp.basepoint)
        assert r.trivial == (len(q.elements) == 1)


class TestHasse:
    def test_chain_covers(self):
        assert oracles.cover_pairs(chain(3)) == (("0", "1"), ("1", "2"))

    def test_discrete(self):
        assert oracles.cover_pairs(antichain(["a", "b"])) == ()

    def test_powerset_of_two(self):
        p, _ = powerset_poset(["0", "1"])
        covers = oracles.cover_pairs(p)
        # brute force: (a, b) is a cover iff a < b with nothing in between
        lt = {(a, b) for a, b in oracles.leq(p) if a != b}
        brute = tuple(
            sorted(
                (a, b)
                for a in p.elements
                for b in p.elements
                if (a, b) in lt and not any((a, c) in lt and (c, b) in lt for c in p.elements)
            )
        )
        assert covers == brute
        assert len(covers) == 4

    @settings(max_examples=60, deadline=None)
    @given(posets())
    def test_round_trip(self, p):
        covers = oracles.cover_pairs(p)
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
        assert frozenset(closure) == oracles.leq(p)


class TestPick:
    """``order._pick``, ``order._at`` and ``order._bits`` each select the
    items at the set bits of a mask, on masks up to 4096 bits, dense and
    sparse.  Each is checked against that definition, not against another,
    as ``_bits`` is built on ``_at``."""

    SEQ = [f"e{i}" for i in range(4096)]

    @staticmethod
    def at(seq, m):
        return [seq[i] for i in range(m.bit_length()) if m >> i & 1]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.integers(0, 2**4096 - 1),
        st.sets(st.integers(0, 4095), max_size=8).map(lambda bits: sum(1 << b for b in bits)),
    ))
    @example(0)
    @example(1)
    @example(2**4096 - 1)
    @example(1 << 4095)
    @example(int("01" * 2048, 2))
    @example(int("10" * 2048, 2))
    def test_each_picks_the_set_bits(self, m):
        want, places = self.at(self.SEQ, m), self.at(range(4096), m)
        assert list(order._pick(self.SEQ, m)) == want
        assert order._at(self.SEQ, m) == want
        assert order._at(tuple(self.SEQ), m) == want
        assert order._at(range(4096), m) == places
        assert order._bits(m) == places


class TestIso:
    """``oracles.pointed_iso``, the check that a given map is an isomorphism
    of pointed posets."""

    def test_two_chain_vs_two_chain(self):
        a = order.PointedPoset(chain(2), "0")
        b = order.PointedPoset(
            oracles.poset_from_pairs(["x", "y"], [("x", "x"), ("y", "y"), ("x", "y")]), "x"
        )
        m = oracles.pointed_iso(a, b, {"0": "x", "1": "y"})
        assert m.mapping == {"0": "x", "1": "y"}

    def test_two_chain_vs_trivial(self):
        a = order.PointedPoset(chain(2), "0")
        b = order.PointedPoset(chain(1), "0")
        with pytest.raises(InvalidMap, match="not a bijection"):
            oracles.pointed_iso(a, b, {"0": "0", "1": "0"})

    def test_basepoint_position_matters(self):
        a = order.PointedPoset(chain(2), "0")
        b = order.PointedPoset(chain(2), "1")
        for mapping in ({"0": "0", "1": "1"}, {"0": "1", "1": "0"}):
            with pytest.raises(InvalidMap):
                oracles.pointed_iso(a, b, mapping)

    def test_same_shape_different_labels(self):
        p1, _ = powerset_poset(["0", "1"])
        p2, _ = powerset_poset(["x", "y"])
        mapping = {"{}": "{}", "{0}": "{x}", "{1}": "{y}", "{0,1}": "{x,y}"}
        assert oracles.pointed_iso(order.PointedPoset(p1, "{}"), order.PointedPoset(p2, "{}"), mapping).mapping == mapping

    def test_inverse_must_be_monotone(self):
        # a monotone bijection from a V onto a chain is no isomorphism
        v = [("0", "0"), ("1", "1"), ("2", "2"), ("0", "1"), ("0", "2")]
        a = order.PointedPoset(oracles.poset_from_pairs(["0", "1", "2"], v), "0")
        b = order.PointedPoset(chain(3), "0")
        order.make_pointed(a, b, {"0": "0", "1": "1", "2": "2"})
        with pytest.raises(InvalidMap, match="order not preserved"):
            oracles.pointed_iso(a, b, {"0": "0", "1": "1", "2": "2"})


class TestMaps:
    def test_monotone_rejects_order_breaking(self):
        with pytest.raises(InvalidMap):
            order.make_monotone(chain(2), antichain(["a", "b"]), {"0": "a", "1": "b"})

    def test_monotone_names_least_broken_pair(self):
        with pytest.raises(InvalidMap, match=r"^order not preserved on '0' <= '1'$"):
            order.make_monotone(chain(3), antichain(["a", "b", "c"]), {"0": "a", "1": "b", "2": "c"})

    def test_pointed_rejects_basepoint_move(self):
        a = order.PointedPoset(chain(2), "0")
        with pytest.raises(InvalidMap):
            order.make_pointed(a, a, {"0": "1", "1": "1"})

    def test_compose_and_identity(self):
        a = order.PointedPoset(chain(2), "0")
        i = order.make_pointed(a, a, {e: e for e in a.poset.elements})
        assert oracles.compose_pointed(i, i) == i


def monotone_verdict(check, source, target, mapping):
    """None when check accepts the map, else its InvalidMap message."""
    try:
        check(source, target, mapping)
    except InvalidMap as exc:
        return str(exc)
    return None


@st.composite
def powerset_maps(draw):
    """Two powerset reports of at most 8 generators and a map between their
    posets: the direct image of a drawn map of generators, which is
    monotone, with up to three elements then sent anywhere."""
    reports = []
    for low in (0, 1):
        universe = [f"u{i}" for i in range(draw(st.integers(low, 8)))]
        collapsed = [u for u in universe if draw(st.booleans())]
        reports.append((homotopy.powerset_report(universe, collapsed, "{}", "ctx").invariant, universe))
    (src, uni), (dst, uni2) = reports
    phi = dict(zip(uni, draw(st.lists(st.sampled_from(uni2), min_size=len(uni), max_size=len(uni)))))
    members = oracles.powerset_members(uni)
    mapping = {src.basepoint: dst.basepoint}
    for e, items in members.items():
        if e in src.poset.elements:
            image = homotopy.subset_name({phi[u] for u in items})
            mapping[e] = image if image in dst.poset.elements else dst.basepoint
    for e in draw(st.lists(st.sampled_from(src.poset.elements), max_size=3)):
        mapping[e] = draw(st.sampled_from(dst.poset.elements))
    return src.poset, dst.poset, mapping


class TestMonotoneAlongCovers:
    """make_monotone checks covers only; the pair scan it replaced gives the
    same verdict and names the same pair."""

    @settings(max_examples=200, deadline=None)
    @given(powerset_maps())
    def test_powerset_reports(self, drawn):
        source, target, mapping = drawn
        want = monotone_verdict(oracles.make_monotone, source, target, mapping)
        assert monotone_verdict(order.make_monotone, source, target, mapping) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_reflected_posets(self, seed, to_itself):
        """Reflections carry the cover masks ``oracles.from_masks``
        computes, so the check runs along covers on posets of any shape."""
        rng = random.Random(seed)
        source, _ = oracles.poset_reflection(gen.random_category(rng))
        target = source if to_itself else oracles.poset_reflection(gen.random_category(rng))[0]
        if to_itself:
            mapping = {e: e for e in source.elements}
            mapping[rng.choice(source.elements)] = rng.choice(target.elements)
        else:
            mapping = {e: rng.choice(target.elements) for e in source.elements}
        want = monotone_verdict(oracles.make_monotone, source, target, mapping)
        assert monotone_verdict(order.make_monotone, source, target, mapping) == want


class TestThinCategory:
    def test_round_trip_through_reflection(self):
        p = chain(3)
        c = gen.thin_category(p)
        assert len(c.morphisms) == len(oracles.leq(p))
        p2, _ = oracles.poset_reflection(c)
        assert p2 == p


class TestDot:
    def test_hasse_dot_deterministic_and_marked(self):
        r = homotopy.report_from_pointed(oracles.collapse_lower(chain(3), {"0"}, "[*]"), "ctx")
        d1 = written(r, "dot")
        d2 = written(r, "dot")
        assert d1 == d2
        assert "doublecircle" in d1
        assert d1.startswith("digraph")

    def test_backslash_and_quote_escaped(self):
        names = ["*", "a\\", 'b"']
        p = oracles.poset_from_pairs(names, {(a, b) for i, a in enumerate(names) for b in names[i:]})
        lines = written(homotopy.report_from_pointed(order.PointedPoset(p, "*"), "ctx"), "dot").splitlines()
        assert '  "*" [shape=doublecircle];' in lines
        assert '  "a\\\\" [shape=ellipse];' in lines
        assert '  "a\\\\" -> "b\\"";' in lines


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _read(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def fixture_reports():
    """Every report the fixtures produce."""
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.cat"))):
        c = fincat.parse_category(_read(path))
        for x in c.objects:
            yield homotopy.pi0(c, x)
            yield homotopy.pi1(c, x)
        for m in c.morphisms:
            an = homotopy.analyze_morphism(c, m.name)
            yield an.pi0
            yield an.pi1
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.fn"))):
        _, f = setcat.parse_function(_read(path))
        yield setcat.pi0_function(f)
        yield setcat.pi1_function(f)
    g, h, g2 = (opengraph.parse_open_graph(_read(n)) for n in ("G.og", "H.og", "G_identified.og"))
    for left in (g, g2):
        composed = opengraph.compose_rel(opengraph.reach(left), opengraph.reach(h))
        whole = opengraph.reach(opengraph.compose(left, h))
        yield from opengraph.laxator_obstructions(composed, whole)
    for dims in ((1, 3), (2, 2)):
        yield from gen.obstructions(states.StateContext("gf2"), *dims)


def written(r, fmt):
    out = io.StringIO()
    homotopy.write_report(r, fmt, out)
    return out.getvalue()


def rendered(r):
    """The DOT, text and interchange bytes of r, as the CLI writes them."""
    return tuple(written(r, fmt) for fmt in ("dot", "text", "interchange"))


def oracle_rendered(r):
    return oracles.hasse_dot(r.invariant), oracles.text_report(r), oracles.interchange(r)


def kind(message):
    """The law an InvalidPoset message names, without its witness."""
    return message.split("'")[0].split("(")[0]


class TestMaskCoreAgainstPairs:
    """The bitmask core against the string-pair oracles in oracles.py."""

    def check(self, p):
        elems, leq = p.elements, oracles.leq(p)
        assert oracles.make_poset(elems, leq) == (elems, leq)
        assert oracles.poset_from_pairs(reversed(elems), sorted(leq, reverse=True)) == p
        assert oracles.cover_pairs(p) == oracles.hasse(elems, leq)

    def check_pointed(self, pp, minimal):
        p, leq = pp.poset, oracles.leq(pp.poset)
        self.check(p)
        assert minimal == oracles.minimal_obstructions(p.elements, leq, pp.basepoint)
        assert pp == order.PointedPoset(oracles.poset_from_pairs(*oracles.make_poset(p.elements, leq)), pp.basepoint)

    @settings(max_examples=80, deadline=None)
    @given(posets(), st.data())
    def test_random_posets(self, p, data):
        self.check(p)
        elems, leq = p.elements, oracles.leq(p)
        s = data.draw(st.sets(st.sampled_from(elems)))
        assert oracles.lower_closure(p, s) == oracles.lower_closure_pairs(elems, leq, s)
        lower = oracles.lower_closure(p, s) or oracles.lower_closure_pairs(elems, leq, elems[:1])
        bp = data.draw(st.sampled_from(["[*]", *elems]))
        pp = oracles.collapse_lower(p, lower, bp)
        o_elems, o_leq, o_bp = oracles.collapse_lower_pairs(elems, leq, lower, bp)
        assert pp == order.PointedPoset(oracles.poset_from_pairs(o_elems, o_leq), o_bp)
        self.check_pointed(pp, homotopy.report_from_pointed(pp, "ctx").minimal)

    @settings(max_examples=120, deadline=None)
    @given(posets(), st.data())
    def test_one_corrupted_pair(self, p, data):
        leq = set(oracles.leq(p))
        names = [*p.elements, "zz"]
        pair = data.draw(st.tuples(st.sampled_from(names), st.sampled_from(names)))
        leq ^= {pair}  # drop the pair if related, add it if not
        try:
            expected = oracles.make_poset(p.elements, leq)
        except InvalidPoset as exc:
            with pytest.raises(InvalidPoset) as got:
                oracles.poset_from_pairs(p.elements, leq)
            assert kind(str(got.value)) == kind(str(exc))
        else:
            q = oracles.poset_from_pairs(p.elements, leq)
            assert (q.elements, oracles.leq(q)) == expected

    def test_fixture_reports(self):
        count = at_cap = 0
        for r in fixture_reports():
            if len(r.invariant.poset.elements) > 2**10:
                # wide12.fn and wide12_pi1.fn, at the cap: too large for the
                # quadratic Hasse and rendering oracles; check the masks here
                # (and the order of wide12_pi1 against the pair oracle in
                # TestTrustedPowerset), CI pins the output bytes
                assert oracles.trusted_differs(r.invariant.poset) == []
                at_cap += 1
                continue
            self.check_pointed(r.invariant, r.minimal)
            assert rendered(r) == oracle_rendered(r)
            count += 1
        assert count > 40 and at_cap == 2

    def test_renderings(self):
        # powerset reports, whose cover rows are sparse and up-rows dense, and
        # pi1 of Z/n, an antichain: one bit in each up-row
        reports = []
        for n in range(11):
            universe = [f"u{i}" for i in range(n)]
            reports.append(homotopy.powerset_report(universe, universe[: n // 3], "{}", "ctx"))
        reports += [homotopy.pi1(gen.cyclic_group_category(n), "*") for n in (8, 20)]
        for r in reports:
            assert rendered(r) == oracle_rendered(r)

    def test_powerset_reports(self, seed):
        rng = random.Random(seed + 13)
        odd = ["~", "a", "{", "(p,q)", "Z", "b,c", "}", "0"]
        for n in range(9):
            for universe in ([f"u{i}" for i in range(n)], odd[:n]):
                for collapsed in (universe[: rng.randint(0, n)], rng.sample(universe, rng.randint(0, n))):
                    r = homotopy.powerset_report(universe, collapsed, "{}", "ctx")
                    o_elems, o_leq, o_bp = oracles.powerset_report(universe, collapsed, "{}")
                    assert r.invariant == order.PointedPoset(oracles.poset_from_pairs(o_elems, o_leq), o_bp)
                    assert r.invariant.poset.elements == o_elems
                    assert oracles.leq(r.invariant.poset) == o_leq
                    if n <= 6:
                        self.check_pointed(r.invariant, r.minimal)
                    else:
                        assert oracles.cover_pairs(r.invariant.poset) == oracles.hasse(o_elems, o_leq)
                        assert r.minimal == oracles.minimal_obstructions(o_elems, o_leq, o_bp)


ODD = st.text(alphabet="ab,{}()~ \"\\", max_size=3)


class TestTrustedPowerset:
    """powerset_report builds its posets as orders by construction; check
    every field against ``oracles.from_masks``."""

    def check(self, r, universe, collapsed):
        assert oracles.trusted_differs(r.invariant.poset) == []
        self.check_layers(r, universe, collapsed)

    def check_layers(self, r, universe, collapsed):
        """The minimal layer, the covers of the basepoint and the count."""
        p, bp = r.invariant.poset, r.invariant.basepoint
        free = sorted(set(universe) - set(collapsed))
        singletons = {homotopy.subset_name([x]) for x in free}
        assert r.minimal == singletons
        assert {b for a, b in oracles.cover_pairs(p) if a == bp} == singletons
        assert len(p.elements) == 2 ** len(universe) - 2 ** len(collapsed) + 1

    def test_every_size_to_ten(self):
        # has/lacks are indexed by generator: collapse suffixes, prefixes and
        # every other generator of the sorted universe
        for n in range(11):
            universe = [f"u{i}" for i in range(n)]
            collapses = [universe[n - c :] for c in range(n + 1)] + [universe[:c] for c in range(1, n)]
            for collapsed in collapses + [universe[::2], universe[1::2]]:
                self.check(homotopy.powerset_report(universe, collapsed, "{}", "ctx"), universe, collapsed)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(ODD, max_size=6, unique=True),
        st.lists(st.booleans(), min_size=6, max_size=6),
        st.sampled_from(["{}", "[{}]", "~", "{a}"]),
    )
    # the empty generator: {''} renders as {} and {'', '\\'} as {,\\}
    @example(universe=["", "\\"], collapse=[False] * 6, bp="~")
    @example(universe=["", "\\"], collapse=[False] * 6, bp="{}")
    def test_odd_names(self, universe, collapse, bp):
        collapsed = [u for u, c in zip(universe, collapse) if c]
        subsets = (s for k in range(len(universe) + 1) for s in combinations(universe, k))
        names = [bp] + [homotopy.subset_name(s) for s in subsets if not set(s) <= set(collapsed)]
        if len(set(names)) < len(names):
            with pytest.raises(InvalidPoset, match="two elements render as"):
                homotopy.powerset_report(universe, collapsed, bp, "ctx")
        else:
            r = homotopy.powerset_report(universe, collapsed, bp, "ctx")
            assert r.invariant.poset.elements == tuple(sorted(names))
            self.check(r, universe, collapsed)

    def test_kernel_pair_at_the_cap(self):
        # fixtures/wide12_pi1.fn: fibres of 3, 1, 1 and 1 elements give 12
        # kernel pairs, and the 6 diagonal ones sort between the others
        _, f = setcat.parse_function(_read("wide12_pi1.fn"))
        universe = [f"({a},{b})" for a in f.dom_set for b in f.dom_set if f.mapping[a] == f.mapping[b]]
        diagonal = [f"({a},{a})" for a in f.dom_set]
        assert [u in diagonal for u in sorted(universe)] == [1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1]
        r = setcat.pi1_function(f)
        o_elems, o_leq, o_bp = oracles.powerset_report(universe, diagonal, "{}")
        p = r.invariant.poset
        assert (p.elements, r.invariant.basepoint) == (o_elems, o_bp)
        # leq == o_leq, read off the up-masks without naming 531,441 pairs:
        # as many pairs, and each of the oracle's is one of the library's
        up, at = p.up, {e: i for i, e in enumerate(p.elements)}
        assert sum(map(int.bit_count, up)) == len(o_leq)
        assert all(up[at[a]] >> at[b] & 1 for a, b in o_leq)
        # trusted_differs runs on this report in TestMaskCoreAgainstPairs::test_fixture_reports
        self.check_layers(r, universe, diagonal)

    def test_one_flipped_cover_bit_is_seen(self):
        p = homotopy.powerset_report(["a", "b", "c"], ["c"], "{}", "ctx").invariant.poset
        for i, m in enumerate(p.cover_masks):
            for j in range(len(p.elements)):
                flipped = p.cover_masks[:i] + (m ^ 1 << j,) + p.cover_masks[i + 1 :]
                assert oracles.trusted_differs(order.Poset(p.elements, p.up, flipped)) == ["cover_masks", "hasse"]

