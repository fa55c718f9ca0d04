import glob
import io
import json
import os
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracles
from obstructia import cli, fincat, homotopy, order
from obstructia.errors import CapExceeded, InvalidPoset, OracleMismatch, SizeCapExceeded, UnknownMorphism, UnknownObject

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
PAIR_COLLISION = os.path.join(FIXTURES, "pair_collision.cat")


def walking_arrow():
    return fincat.validate_category(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1")],
        {"0": "id0", "1": "id1"},
        {("id0", "id0"): "id0", ("id0", "a"): "a", ("a", "id1"): "a", ("id1", "id1"): "id1"},
    )


def parallel_pair_category():
    """Two parallel arrows f, g: y -> x with nothing equalising them."""
    return fincat.validate_category(
        ["x", "y"],
        [("idx", "x", "x"), ("idy", "y", "y"), ("f", "y", "x"), ("g", "y", "x")],
        {"x": "idx", "y": "idy"},
        {
            ("idx", "idx"): "idx",
            ("idy", "idy"): "idy",
            ("idy", "f"): "f",
            ("idy", "g"): "g",
            ("f", "idx"): "f",
            ("g", "idx"): "g",
        },
    )


class TestPi0:
    def test_walking_arrow_terminal_side(self):
        assert homotopy.pi0(walking_arrow(), "1").trivial

    def test_walking_arrow_initial_side(self):
        r = homotopy.pi0(walking_arrow(), "0")
        assert set(r.invariant.poset.elements) == {"[0]", "1"}
        # span 0 <- 0 -> 1 exists, so the basepoint sits below the obstruction
        assert ("[0]", "1") in oracles.leq(r.invariant.poset)
        assert r.minimal == {"1"}

    def test_groupoid_discrete_pointed_set(self):
        g = gen.two_component_groupoid()
        for x in g.objects:
            r = homotopy.pi0(g, x)
            assert len(r.invariant.poset.elements) == 2
            assert all(a == b for a, b in oracles.leq(r.invariant.poset))

    def test_unknown_object(self):
        with pytest.raises(UnknownObject):
            homotopy.pi0(walking_arrow(), "zz")


class TestPi1:
    def test_walking_arrow_both_trivial(self):
        wa = walking_arrow()
        assert homotopy.pi1(wa, "1").trivial
        assert homotopy.pi1(wa, "0").trivial

    def test_z2_underlying_pointed_set(self):
        z2 = gen.cyclic_group_category(2)
        r = homotopy.pi1(z2, "*")
        assert len(r.invariant.poset.elements) == 2
        assert all(a == b for a, b in oracles.leq(r.invariant.poset))

    def test_unequalised_pair_obstructs(self):
        c = parallel_pair_category()
        r = homotopy.pi1(c, "x")
        assert not r.trivial
        assert "(f,g)" in r.invariant.poset.elements
        # no h equalises (f, g), so the basepoint is not below it
        assert ("[x]", "(f,g)") not in oracles.leq(r.invariant.poset)

    def test_pairs_that_render_alike_stay_distinct(self):
        # arrows p,q  r  p  q,r : y -> x; the pairs (p,q ; r) and (p ; q,r)
        # render alike but are two of the 12 off-diagonal obstructions
        with open(PAIR_COLLISION, encoding="utf-8") as fh:
            c = fincat.parse_category(fh.read())
        r = homotopy.pi1(c, "x")
        assert len(r.invariant.poset.elements) == 13
        m = homotopy.pi_object_action(c, "idx", 1)
        assert all(m.mapping[e] == e for e in r.invariant.poset.elements)


def materialised_pi1(c, x):
    """pi1 through the full parallel-arrow category: reflect it, then collapse
    the lower set of the pair of identities."""
    pa = oracles.parallel_arrows(c, x)
    p, class_of = oracles.poset_reflection(pa.cat)
    base = next(name for name, pair in pa.elements.items() if pair == (c.id_of(x), c.id_of(x)))
    return oracles.collapse_lower(p, oracles.lower_closure(p, {class_of[base]}), f"[{x}]")


class TestPreorderRoute:
    def test_matches_materialised_parallel_arrows(self, seed):
        rng = random.Random(seed + 13)
        cats = [gen.random_category(rng) for _ in range(30)]
        with open(PAIR_COLLISION, encoding="utf-8") as fh:
            cats.append(fincat.parse_category(fh.read()))
        for c in cats:
            for x in c.objects:
                assert homotopy.pi1(c, x).invariant == materialised_pi1(c, x)

    def test_morphisms_cap_still_refuses(self, monkeypatch):
        # parallel arrows over Z/n have n^2 objects and n^3 morphisms
        assert len(homotopy.pi1(gen.cyclic_group_category(36), "*").invariant.poset.elements) == 36
        with pytest.raises(SizeCapExceeded) as exc:
            homotopy.pi1(gen.cyclic_group_category(37), "*")
        assert str(exc.value) == "parallel arrows over '*' morphisms: projected 50653 exceeds cap 50000"
        with pytest.raises(SizeCapExceeded) as exc:
            homotopy.pi1(gen.cyclic_group_category(142), "*")
        assert str(exc.value) == "parallel arrows over '*' objects: projected 20164 exceeds cap 20000"
        monkeypatch.setattr(fincat, "OBJECTS_CAP", 3)
        with pytest.raises(SizeCapExceeded):
            homotopy.pi1(gen.cyclic_group_category(2), "*")

    def test_comp_entries_cap_guards_only_tables(self):
        # Z/36: pi1 is served above, its table of n^4 entries is not
        with pytest.raises(SizeCapExceeded) as exc:
            oracles.parallel_arrows(gen.cyclic_group_category(36), "*")
        assert str(exc.value) == "parallel arrows over '*' composition entries: projected 1679616 exceeds cap 600000"
        amb = gen.finset_ambient(4)
        with pytest.raises(SizeCapExceeded) as exc:
            oracles.slice_category(amb, "2")
        assert str(exc.value) == "slice over '2' composition entries: projected 1805611 exceeds cap 600000"
        an = homotopy.analyze_morphism(amb, "1>2:0")
        assert an.mono and not an.split_epi


def pointed_walks(c):
    """Every walk a pi route points, as (walk, base position, point, base
    key, names, explicit): pi0 and pi1 at each object, and at each morphism
    f: x -> y the two walks of ``analyze_morphism``, the slice over y at f
    and the pairs into x that f equalises.  ``names`` gives the name of
    each key: objects and slice objects by id, pairs by
    ``oracles.pair_element_names``.  ``explicit`` describes pi1 at f on the
    materialised slice over y, at f, where each pair of slice morphisms is
    named by its pair of witnesses."""
    slices = {}

    def ids(x):
        return (c.index[c.id_of(x)],) * 2

    def objects(keys):
        return [y for y, in keys]

    def morphisms(keys):
        return [c.morphisms[h].name for h, in keys]

    def pairs(x, f=None):
        named = oracles.pair_element_names(c, x, f)
        return lambda keys: [named[c.morphisms[h0].name, c.morphisms[h1].name] for h0, h1 in keys]

    for x in c.objects:
        yield *homotopy._end(c, 0, x), (x,), objects, lambda x=x: oracles.pi0_explicit(c, x)
        yield *homotopy._end(c, 1, x), ids(x), pairs(x), lambda x=x: oracles.pi1_explicit(c, x)
    for f in gen.morphism_names(c):
        x, y = c.dom(f), c.cod(f)

        def sl(y=y):
            return slices.get(y) or slices.setdefault(y, oracles.slice_category(c, y))

        def pi1_at_f(f=f, x=x, sl=sl):
            names, witness = oracles.pair_element_names(c, x, f), sl().projection.mor_map
            return oracles.pi1_explicit(sl().cat, f, lambda p: names[witness[p[0]], witness[p[1]]])

        yield *homotopy._end(c, 0, x, f), (c.index[f],), morphisms, lambda f=f, sl=sl: oracles.pi0_explicit(sl().cat, f)
        yield *homotopy._end(c, 1, x, f), ids(x), pairs(x, f), pi1_at_f


def pointed(walk, base, basepoint_name):
    """``order.reflection`` of a walk with nothing kept, by its sort keys
    and names, and each position's class (``homotopy._classes``)."""
    pp, _ = order.reflection(walk.rank, walk.down, base, basepoint_name, walk.names)
    return pp, homotopy._classes(walk, pp)


def check_pointed_walks(c):
    """The pointed reflection of every walk of c, at the base element whose
    key is given, equals the two-step oracle and the explicit description,
    ``#n`` names included: the walk's names are the oracles' names of its
    keys, and the explicit descriptions name every pair by
    ``oracles.pair_element_names``."""
    for walk, base, point, key, names, explicit in pointed_walks(c):
        assert walk.keys[base] == key
        assert walk.names(range(len(walk.keys))) == names(walk.keys)
        got = pointed(walk, base, f"[{point}]")
        assert got == oracles.two_step(names(walk.keys), walk.down, base, f"[{point}]")
        assert oracles.report_shape(homotopy.report_from_pointed(got[0], "")) == explicit()


class TestPointedReflection:
    """The one pointed reflection against the two-step oracle (reflect every
    class, then collapse) and the explicit descriptions."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_matches_two_step_and_explicit(self, seed, data):
        rng = random.Random(seed)
        if data.draw(st.booleans()):
            c = gen.random_category(rng, max_objects=4, max_morphisms=14)
        else:  # every morphism parallel to every other
            c = gen.cyclic_group_category(rng.randint(3, 6))
        if data.draw(st.booleans()):
            # morphism ids over the pair separator, so that distinct pairs
            # render alike and take #n names, and ids of the form [x], so
            # that an element may be named as the basepoint
            objects = list(c.objects)
            morphisms = data.draw(st.permutations(gen.morphism_names(c)))
            labels = data.draw(st.permutations(["p", "[p]", "[[p]]", "q", "[q]"]))[: len(objects)]
            labels += ["r", ",r", "r,", "[r]", "[[r]]"]
            labels += data.draw(st.lists(st.text("r,[]", min_size=5, max_size=7), min_size=len(morphisms), max_size=len(morphisms), unique=True))
            c = gen.renamed(c, dict(zip(objects + morphisms, labels)))
        check_pointed_walks(c)

    @pytest.mark.parametrize("fixture", ["pair_collision.cat", "primed_basepoint.cat"])
    def test_fixtures(self, fixture):
        with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as fh:
            check_pointed_walks(fincat.parse_category(fh.read()))

    def test_fresh_names_reach_the_reflection(self):
        # (p,q ; r) and (p ; q,r) render alike: the second is (p,q,r)#2
        with open(PAIR_COLLISION, encoding="utf-8") as fh:
            c = fincat.parse_category(fh.read())
        walk, _, _ = homotopy._end(c, 1, "x")
        ids = [tuple(c.morphisms[h].name for h in key) for key in walk.keys]
        names = walk.names(range(len(walk.keys)))
        assert dict(zip(ids, names)) == oracles.pair_element_names(c, "x")
        assert names[ids.index(("p", "q,r"))] == "(p,q,r)" and names[ids.index(("p,q", "r"))] == "(p,q,r)#2"
        assert "(p,q,r)#2" in homotopy.pi1(c, "x").invariant.poset.elements

    def test_basepoint_primed_only_past_a_survivor(self):
        # [a] <= a <= b, and c apart: at a the class of [a] is collapsed, so
        # the basepoint keeps the name; at c it survives, so the basepoint
        # is primed
        names = ["[a]", "a", "b", "c"]
        down = [0b0001, 0b0011, 0b0111, 0b1000]
        walk = oracles.named_walk(names, down)
        pp, class_of = pointed(walk, 1, "[a]")
        assert (pp.basepoint, pp.poset.elements, class_of) == ("[a]", ("[a]", "b", "c"), ["[a]", "[a]", "b", "c"])
        pp, class_of = pointed(walk, 3, "[a]")
        assert (pp.basepoint, pp.poset.elements) == ("[a]'", ("[a]", "[a]'", "a", "b"))
        assert class_of == ["[a]", "a", "b", "[a]'"]
        for base in range(4):
            assert pointed(walk, base, "[a]") == oracles.two_step(names, down, base, "[a]")

    def test_a_member_named_as_the_basepoint(self):
        # A and [b] reach each other, b apart: at b the class of A survives,
        # named by A, and the basepoint [b] is not primed, as no class is
        # named so; the member [b] is still in the class of A
        names, down = ["A", "[b]", "b"], [0b011, 0b011, 0b100]
        pp, class_of = pointed(oracles.named_walk(names, down), 2, "[b]")
        assert (pp.basepoint, pp.poset.elements, class_of) == ("[b]", ("A", "[b]"), ["A", "A", "[b]"])
        assert (pp, class_of) == oracles.two_step(names, down, 2, "[b]")

    @pytest.mark.parametrize("down, witness", [
        ([0b0001, 0b0010, 0b0110, 0b1100], "'b' <= 'c' <= 'd'"),  # a; b; b <= c; c <= d, not b <= d
        ([0b0001, 0b0011, 0b0110, 0b1100], "'[a]' <= 'b' <= 'c'"),  # a <= b; b <= c; c <= d, not b <= d
    ], ids=["down0", "down1"])
    def test_non_transitive_survivors_raise(self, down, witness):
        # no caller passes a preorder that is not transitive, and the
        # reflection builds its poset unchecked (the builder itself, not
        # the checked one the tests install): the validator the tests keep
        # refuses what it returns, at the least witness
        names = ["a", "b", "c", "d"]
        pp, _ = order.reflection.__wrapped__(names.__getitem__, down, 0, "[a]", fincat._read(names))
        with pytest.raises(InvalidPoset, match=re.escape(f"transitivity fails on {witness}")):
            oracles.from_masks(pp.poset.elements, list(pp.poset.up))
        with pytest.raises(InvalidPoset):
            oracles.two_step(names, down, 0, "[a]")


class TestOneReflectionPerCategory:
    """One walk per distinct (category, key), one pointed reflection per
    end, and one fresh reflection per distinct (walk, lower set): the walks
    taken, the misses of ``fincat._WALKS`` from cold, the
    ``order.reflection`` calls and those that build afresh, exact, each
    fresh one counted both by what it keeps and by ``fincat._WALKS.fresh``.
    A reflection at a (walk, lower set) already reflected renames the masks
    kept there, whatever its base, and nothing else is built afresh."""

    @pytest.fixture
    def count(self, monkeypatch):
        walks, reflections, fresh = [], [], []
        get, reflect, build = fincat._WalkMemo.get, fincat._WalkMemo.reflect, order.reflection

        def counted_get(memo, c, key, walk):
            def counted_walk():
                walks.append((id(c), key))
                return walk()

            return get(memo, c, key, counted_walk)

        def counted_reflect(memo, at, low, fn):
            reflections.append((id(at[0]), at[1], low))
            return reflect(memo, at, low, fn)

        def counted_build(*args):
            got = build(*args)
            if got[1] is not None:
                fresh.append(args)
            return got

        monkeypatch.setattr(fincat._WalkMemo, "get", counted_get)
        monkeypatch.setattr(fincat._WalkMemo, "reflect", counted_reflect)
        monkeypatch.setattr(order, "reflection", counted_build)

        def run(fn, *args):
            monkeypatch.setattr(fincat, "_WALKS", fincat._WalkMemo())
            walks.clear()
            reflections.clear()
            fresh.clear()
            fn(*args)
            assert len(set(walks)) == len(walks), walks
            assert len(fresh) == len(set(reflections)) == fincat._WALKS.fresh
            assert len(reflections) == fincat._WALKS.fresh + fincat._WALKS.reused
            return len(walks), len(reflections), len(fresh)

        return run

    def test_object_action_at_an_endomorphism(self, count):
        z4 = gen.cyclic_group_category(4)
        assert count(homotopy.pi_object_action, z4, "g1", 0) == (1, 2, 1)
        assert count(homotopy.pi_object_action, z4, "g1", 1) == (1, 2, 1)

    def test_identity_functor(self, count):
        ident = fincat.identity_functor(gen.cyclic_group_category(4))
        assert count(homotopy.pi_functor_map, ident, "*", 0) == (1, 2, 1)
        assert count(homotopy.pi_functor_map, ident, "*", 1) == (1, 2, 1)

    def test_covariance_reflects_each_slice_once(self, count):
        wa = walking_arrow()
        ident = fincat.identity_functor(wa)
        alpha = fincat.validate_nat_trans(ident, ident, {"0": "id0", "1": "id1"})
        assert count(homotopy.covariance_map, alpha, "a", 0) == (2, 2, 2)
        assert count(homotopy.covariance_map, alpha, "id0", 0) == (1, 2, 1)
        assert count(homotopy.covariance_map, alpha, "id0", 1) == (1, 2, 1)

    def test_covariance_reflects_a_slice_once_whatever_its_point(self, count):
        # G constant at 1: both sides are the slice over 1, pointed at a and
        # id1, so one walk at two bases
        wa = walking_arrow()
        const = gen.constant_functor(wa, wa, "1")
        alpha = fincat.validate_nat_trans(fincat.identity_functor(wa), const, {"0": "a", "1": "id1"})
        assert count(homotopy.covariance_map, alpha, "a", 0) == (1, 2, 2)

    def test_invariants_and_analysis(self, count):
        wa = walking_arrow()
        assert count(homotopy.pi0, wa, "0") == (1, 1, 1)
        assert count(homotopy.pi1, wa, "0") == (1, 1, 1)
        assert count(homotopy.analyze_morphism, wa, "a") == (2, 2, 2)

    def test_functor_between_categories(self, count):
        # the inclusion of 1 into the walking arrow: two categories, two walks
        wa = walking_arrow()
        one = gen.thin_category(oracles.poset_from_pairs(["1"], [("1", "1")]))
        functor = fincat.validate_functor(one, wa, {"1": "1"}, {one.id_of("1"): "id1"})
        assert count(homotopy.pi_functor_map, functor, "1", 0) == (2, 2, 2)
        assert count(homotopy.pi_functor_map, functor, "1", 1) == (2, 2, 2)

    def test_a_classification_validates_once_per_walk_and_base(self, count):
        # the 64 ops of a classification of the size-3 finite-set skeleton:
        # 124 reports over 24 distinct (walk, lower set).  pi1 at x shares
        # one with every f out of x onto a point, pi1 at f with every f of
        # the same kernel, and pi0 at f with every f of its class in the
        # slice, that is of its image: 69 distinct (walk, base) in all
        c = gen.finset_ambient(3)
        ops = [(homotopy.analyze_morphism, m.name) for m in c.morphisms] + [(homotopy.pi1, x) for x in c.objects]
        got = []
        assert count(lambda: got.extend(fn(c, arg) for fn, arg in ops)) == (13, 124, 24)
        # every walk is ranked, so each reflection names only the
        # representatives of its classes: 1,536 names for 1,660 classes,
        # 124 of them basepoints, where naming every element built 12,314
        reports = [r for (fn, _), a in zip(ops, got) for r in ((a,) if fn is homotopy.pi1 else (a.pi0, a.pi1))]
        assert fincat._WALKS.named == sum(len(r.invariant.poset.elements) - 1 for r in reports) == 1536

    def test_one_slice_class_shares_one_reflection(self, count, monkeypatch):
        # 1>2:0 and 2>2:00 both have the image {0}, so each factors through
        # the other: one class of the slice over 2, one lower set to
        # collapse.  pi0 at the second renames what the first built,
        # and each report is the one a fresh memo takes
        c = gen.finset_ambient(2)
        points = ("1>2:0", "2>2:00")
        ends, got = [], []

        def run():
            ends.extend(homotopy._end(c, 0, c.dom(f), f) for f in points)
            got.extend(homotopy._pi_at(end, 0) for end in ends)

        assert count(run) == (1, 2, 1)
        assert (fincat._WALKS.fresh, fincat._WALKS.reused) == (1, 1)
        assert len({walk.down[base] for walk, base, _ in ends}) == 1
        assert [r.invariant.basepoint for r in got] == ["[1>2:0]", "[2>2:00]"]
        for f, r in zip(points, got):
            monkeypatch.setattr(fincat, "_WALKS", fincat._WalkMemo())
            want = homotopy._pi_at(homotopy._end(c, 0, c.dom(f), f), 0)
            assert r == want and fincat._WALKS.fresh == 1
            for fmt in ("text", "dot", "interchange"):
                assert written(r, fmt) == written(want, fmt)


def prefixed_ambient():
    """The skeleton of sets of at most 2 elements, with 1>2:0 named p and
    the constant 2>2:00 named p[.  pi1 at p[ shares its walk and base with
    pi1 at 2 and at the constant 2>2:11, but its pairs of p and p[ fall in
    another name order: (p[p=>p[],...) sorts after (p[[p[=>p[],...),
    where (p,...) sorts before (p[,...)."""
    c = gen.finset_ambient(2)
    names = {**{x: x for x in c.objects}, **{m: m for m in gen.morphism_names(c)}}
    return gen.renamed(c, {**names, "1>2:0": "p", "2>2:00": "p["})


class TestRenamedReflections:
    """A reflection renamed from what the walk memo kept against the same
    reflection taken afresh: on one warm memo, every morphism analysed and
    pi1 at every object, each result and its written bytes equal to those
    of a cold memo per op."""

    def check(self, c):
        warm = fincat._WALKS
        ops = [(homotopy.analyze_morphism, m) for m in gen.morphism_names(c)] + [(homotopy.pi1, x) for x in c.objects]
        try:
            for fn, arg in ops:
                fincat._WALKS = warm
                got = fn(c, arg)
                fincat._WALKS = fincat._WalkMemo()
                want = fn(c, arg)
                reports = [(got, want)] if fn is homotopy.pi1 else [(got.pi0, want.pi0), (got.pi1, want.pi1)]
                assert got == want
                for g, w in reports:
                    for fmt in ("text", "dot", "interchange"):
                        assert written(g, fmt) == written(w, fmt)
        finally:
            fincat._WALKS = warm
        return warm

    def test_a_name_order_that_differs_is_reflected_afresh(self):
        # p[ starts with p followed by [, and both go into 2, so the walks
        # of pairs into 2 named by slice morphisms are unranked: pi1 at
        # each of the 5 morphisms out of 2 is taken afresh and keeps
        # nothing, as pi1 at p[ shares the walk and base of pi1 at 2 but
        # not its name order.  The other 20 reflections, over 10 (walk,
        # lower set), are ranked, kept and reused
        memo = self.check(prefixed_ambient())
        kept = len(memo.walks) - memo.misses
        assert (memo.reused, memo.fresh, kept) == (10, 15, 10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_renamed_categories(self, seed, data):
        # ids over p, q and [, so that one id is a prefix of another and
        # pairs of slice morphisms sort by their fibres' names
        if data.draw(st.booleans()):
            c = gen.finset_ambient(2)
        else:
            c = gen.random_category(random.Random(seed), max_objects=4, max_morphisms=14)
        morphisms = gen.morphism_names(c)
        labels = data.draw(st.lists(st.text("pq[", min_size=1, max_size=4), min_size=len(morphisms), max_size=len(morphisms), unique=True))
        self.check(gen.renamed(c, {**{x: x for x in c.objects}, **dict(zip(morphisms, labels))}))

    def test_a_basepoint_that_moves_is_reflected_afresh(self):
        # a <= b, and c apart, pointed at a: b and c survive.  Ranked by
        # position, as a ranked walk's elements are whatever their names,
        # and named d and e, they keep the basepoint's place and the kept
        # masks; Z sorts before [a], and a class named [a] primes the
        # basepoint past it, so the basepoint moves and is taken afresh
        down, rank = [0b001, 0b011, 0b100], [0, 1, 2].__getitem__
        first, kept = order.reflection(rank, down, 0, "[a]", fincat._read(["a", "b", "c"]))
        assert first.poset.elements == ("[a]", "b", "c")
        for names, reused in ((["a", "d", "e"], True), (["a", "Z", "e"], False), (["a", "[a]", "e"], False)):
            got, keep = order.reflection(rank, down, 0, "[a]", fincat._read(names), kept)
            assert got == order.reflection(names.__getitem__, down, 0, "[a]", fincat._read(names))[0]
            assert (keep is None) == reused


def unranked(c):
    """A ``fincat._apart`` with every object of c apart under every suffix,
    so that every walk whose names carry one is named."""
    return {s: set(c.objects) for s in "[,)"}


class TestRankedRoute:
    """The ranked route on one warm memo against the names route taken
    cold: every morphism analysed, and pi0 and pi1 at every object, each
    result and its text, DOT and interchange bytes equal to those of a
    fresh memo in which every walk of pairs is named (``unranked``) and
    sorts by its names.  Every ranked walk's packed keys sort its names,
    which are distinct: the slice walks of pi0 too, whose bare ids are
    ranked in both routes."""

    def check(self, c):
        ops = [(homotopy.analyze_morphism, m) for m in gen.morphism_names(c)]
        ops += [(fn, x) for x in c.objects for fn in (homotopy.pi0, homotopy.pi1)]
        warm, memo, apart = fincat._WalkMemo(), fincat._WALKS, fincat._apart
        try:
            for fn, arg in ops:
                fincat._WALKS, fincat._apart = warm, apart
                got = fn(c, arg)
                fincat._WALKS, fincat._apart = fincat._WalkMemo(), unranked
                want = fn(c, arg)
                assert got == want
                for g, w in [(got, want)] if fn is not homotopy.analyze_morphism else [(got.pi0, want.pi0), (got.pi1, want.pi1)]:
                    for fmt in ("text", "dot", "interchange"):
                        assert written(g, fmt) == written(w, fmt)
        finally:
            fincat._WALKS, fincat._apart = memo, apart
        for walk, *_ in pointed_walks(c):
            if walk.at[2]:
                names = walk.names(range(len(walk.down)))
                assert len(set(names)) == len(names)
                assert [names[p] for p in sorted(range(len(names)), key=walk.rank)] == sorted(names)
        return warm

    def test_a_pair_part_that_sorts_apart(self):
        # pi1 at 2 has the classes of (2>2:01,b) and (2>2:01,b!): sorted
        # by the position of b, they would fall out of name order, so b!,
        # which extends b by ! below every suffix, keeps 2 apart, and the
        # pairs into 2 take the names route
        c = gen.bang_skeleton()
        assert fincat._apart(c) == {s: {"2"} for s in "[,)"}
        memo = self.check(c)
        assert (memo.reused, memo.fresh) == (11, 17)

    def test_a_prefix_into_one_object(self):
        # p and p[ both go into 2: the slice pairs into 2 are named, and
        # every other walk, the pairs into 2 by domain among them, ranked
        c = prefixed_ambient()
        self.check(c)
        named = {(point, walk.at[1][:2]) for walk, _, point, *_ in pointed_walks(c) if not walk.at[2]}
        assert named == {("2>1:00", ("2", 2)), ("2>2:01", ("2", 2)), ("2>2:10", ("2", 2)), ("2>2:11", ("2", 2)), ("p[", ("2", 2))}

    def test_a_digit_under_brackets(self):
        # g10 extends g1 by 0, which sorts below [ and above , and ): the
        # pairs into * over each morphism are named, and every other walk,
        # pi1 at * among them, ranked
        c = gen.cyclic_group_category(12)
        assert fincat._apart(c) == {"[": {"*"}, ",": set(), ")": set()}
        self.check(c)
        named = {(point, walk.at[1][:2]) for walk, _, point, *_ in pointed_walks(c) if not walk.at[2]}
        assert named == {(m.name, ("*", 2)) for m in c.morphisms}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_ids_that_share_prefixes(self, seed, data):
        # ids such as p, p,q, p[, a, a!, a), g1 and g10: one id may be
        # another with a character appended that sorts below a suffix, as
        # ! and ) below all three and 0 below [ only, and the walks into
        # its codomain whose names carry that suffix are named
        if data.draw(st.booleans()):
            c = gen.finset_ambient(2)
        else:
            c = gen.random_category(random.Random(seed), max_objects=4, max_morphisms=14)
        morphisms = gen.morphism_names(c)
        alphabet = data.draw(st.sampled_from(["a!)", "ap!),[", "a0A[", "g10[,)"]))
        labels = data.draw(st.lists(st.text(alphabet, min_size=1, max_size=4), min_size=len(morphisms), max_size=len(morphisms), unique=True))
        self.check(gen.renamed(c, {**{x: x for x in c.objects}, **dict(zip(morphisms, labels))}))


class TestWalkMemo:
    """``fincat._WALKS``: ops on one category share its walks by key, and
    their outputs are those of ops that each start from a cold memo."""

    def outputs(self, argvs, monkeypatch, cold=False):
        out = []
        for argv in argvs:
            if cold:
                fincat._parse.cache_clear()
                monkeypatch.setattr(fincat, "_WALKS", fincat._WalkMemo())
            buf = io.StringIO()
            assert cli.run(argv, buf) == 0
            out.append(buf.getvalue())
        return out

    def written(self, tmp_path, name, c):
        path = tmp_path / name
        path.write_text(gen.serialize_category(c), encoding="utf-8")
        return str(path)

    def test_a_classification_takes_thirteen_walks(self, tmp_path, monkeypatch):
        # 4 slices by codomain and 9 partitions of hom(-, x) for 60
        # morphisms; pi1 at x reads the partition by domain, which a
        # morphism onto a point induces
        c = gen.finset_ambient(3)
        path = self.written(tmp_path, "ambient.cat", c)
        argvs = [["cat", "analyze", path, "--morphism", m.name] for m in c.morphisms]
        argvs += [["cat", "pi1", path, "--object", x] for x in c.objects]
        cold = self.outputs(argvs, monkeypatch, cold=True)
        monkeypatch.setattr(fincat, "_WALKS", fincat._WalkMemo())
        assert self.outputs(argvs, monkeypatch) == cold
        assert (fincat._WALKS.misses, fincat._WALKS.hits) == (13, 111)

    def test_categories_never_share_walks(self, tmp_path, monkeypatch):
        # the twins, the basepoint clash and two categories whose pairs take
        # #n names, interleaved with the ambient: each op reads the walks of
        # its own category only, even at a key, such as the objects' 0, that
        # every category has
        files = {name: self.written(tmp_path, name, build()) for name, build in (
            ("twins.cat", gen.twins), ("clash.cat", gen.basepoint_clash), ("slices.cat", gen.slice_pair_collision),
            ("ambient.cat", lambda: gen.finset_ambient(3)))}
        files["pairs.cat"] = PAIR_COLLISION
        rounds = [
            [("analyze", "twins.cat", "--morphism", "2>1:00*f"), ("pi1", "pairs.cat", "--object", "x"),
             ("pi0", "clash.cat", "--object", "1"), ("analyze", "ambient.cat", "--morphism", "3>2:010")],
            [("pi1", "twins.cat", "--object", "2*a"), ("analyze", "slices.cat", "--morphism", "f"),
             ("pi1", "clash.cat", "--object", "1"), ("pi1", "ambient.cat", "--object", "3")],
            [("pi0", "twins.cat", "--object", "1*b"), ("pi0", "pairs.cat", "--object", "y"),
             ("analyze", "clash.cat", "--morphism", "a"), ("pi0", "ambient.cat", "--object", "2")],
        ] * 2
        argvs = [["cat", cmd, files[name], *rest] for ops in rounds for cmd, name, *rest in ops]
        cold = self.outputs(argvs, monkeypatch, cold=True)
        assert "(p,q,r)#2" in cold[1] and "(p[g=>f],q[g=>f],r[g=>f])#2" in cold[5]
        fincat._parse.cache_clear()
        assert self.outputs(argvs, monkeypatch) == cold
        # most ops read a category the parse memo kept, and walked before
        assert fincat._parse.cache_info().hits == 16

    def test_threads_read_the_walks_of_their_own_category(self, monkeypatch):
        # two threads on each of Z/3 and the flip-flop monoid, whose walks
        # have equal keys and masks that give different reports; each walk
        # yields to the other threads before it starts, and the threads
        # switch every microsecond, so the memo changes category mid-read
        cats = [gen.cyclic_group_category(3), gen.flipflop_monoid_category()]
        ops = [[(homotopy.pi0, c, "*"), (homotopy.pi1, c, "*")]
               + [(homotopy.analyze_morphism, c, m.name) for m in c.morphisms] for c in cats]
        want = [[fn(c, arg) for fn, c, arg in part] * 20 for part in ops]
        for module, name in ((homotopy, "_object_preorder"), (fincat, "_walk")):
            walk = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, walk=walk: time.sleep(0) or walk(*args))
        got, errors, start = {}, [], threading.Barrier(4)

        def work(t):
            try:
                start.wait(timeout=60)
                got[t] = [fn(c, arg) for _ in range(20) for fn, c, arg in ops[t % 2]]
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert got == {t: want[t % 2] for t in range(4)}

    def test_a_refusal_keeps_nothing(self, monkeypatch):
        c = gen.finset_ambient(3)
        homotopy.analyze_morphism(c, "3>2:010")
        memo = fincat._WALKS
        kept = (memo.of, list(memo.walks), memo.kept, memo.hits, memo.misses)
        monkeypatch.setattr(fincat, "OBJECTS_CAP", 100)
        for cat, x in ((c, "3"), (gen.cyclic_group_category(12), "*")):
            with pytest.raises(SizeCapExceeded):
                homotopy.pi1(cat, x)
            assert (memo.of, list(memo.walks), memo.kept, memo.hits, memo.misses) == kept

    def test_the_elements_kept_stay_within_the_cap(self, monkeypatch):
        # pi1 at 3 walks 820 pairs: past 900 elements the oldest walks go
        monkeypatch.setattr(fincat, "OBJECTS_CAP", 900)
        c = gen.finset_ambient(3)
        ops = [(homotopy.analyze_morphism, m.name) for m in c.morphisms] + [(homotopy.pi1, x) for x in c.objects]
        memo = fincat._WALKS
        for fn, arg in ops * 2:
            got = fn(c, arg)
            assert memo.kept == sum(len(entry[1]) for entry in memo.walks.values()) <= 900
            monkeypatch.setattr(fincat, "_WALKS", fincat._WalkMemo())
            assert fn(c, arg) == got
            monkeypatch.setattr(fincat, "_WALKS", memo)
        assert memo.misses > 13


class TestExplicitDescriptions:
    def test_pi0_matches_case_analysis(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            c = gen.random_category(rng)
            for x in c.objects:
                assert oracles.report_shape(homotopy.pi0(c, x)) == oracles.pi0_explicit(c, x)

    def test_pi1_matches_case_analysis(self, seed):
        rng = random.Random(seed + 1)
        for _ in range(40):
            c = gen.random_category(rng)
            for x in c.objects:
                assert oracles.report_shape(homotopy.pi1(c, x)) == oracles.pi1_explicit(c, x)


class TestTerminalityOracles:
    def test_terminal_category(self):
        t = gen.thin_category(oracles.poset_from_pairs(["*"], [("*", "*")]))
        assert homotopy.is_weak_terminal(t, "*")
        assert homotopy.is_subterminal(t, "*")
        assert homotopy.is_terminal(t, "*")

    def test_walking_arrow_at_0(self):
        wa = walking_arrow()
        assert not homotopy.is_weak_terminal(wa, "0")
        assert homotopy.is_subterminal(wa, "0")
        assert not homotopy.is_terminal(wa, "0")

    def test_discrete_two(self):
        d = fincat.validate_category(
            ["x", "y"],
            [("idx", "x", "x"), ("idy", "y", "y")],
            {"x": "idx", "y": "idy"},
            {("idx", "idx"): "idx", ("idy", "idy"): "idy"},
        )
        for o in ("x", "y"):
            assert not homotopy.is_weak_terminal(d, o)
            assert homotopy.is_subterminal(d, o)


class TestBasepointMinimality:
    def test_never_above_a_non_basepoint(self, seed):
        rng = random.Random(seed + 2)
        for _ in range(20):
            c = gen.random_category(rng)
            for x in c.objects:
                for r in (homotopy.pi0(c, x), homotopy.pi1(c, x)):
                    bp, leq = r.invariant.basepoint, oracles.leq(r.invariant.poset)
                    for e in r.invariant.poset.elements:
                        if e != bp:
                            assert (e, bp) not in leq

    def test_basepoint_above_an_element_refused(self):
        p = oracles.poset_from_pairs("012", {(a, b) for a in "012" for b in "012" if a <= b})
        with pytest.raises(OracleMismatch, match=r"^basepoint fails minimality below '0'$"):
            homotopy.report_from_pointed(order.PointedPoset(p, "2"), "test")


class TestSubterminalTransfer:
    def test_subterminal_iff_pair_weak_terminal(self, seed):
        rng = random.Random(seed + 3)
        for _ in range(20):
            c = gen.random_category(rng, max_objects=4, max_morphisms=16)
            for x in c.objects:
                pa = oracles.parallel_arrows(c, x)
                [base] = fincat.pair_names([(c.id_of(x),) * 2])
                assert homotopy.is_subterminal(c, x) == oracles.weak_terminal(pa.cat, base)


class TestDuality:
    def test_initiality_via_opposite(self, seed):
        rng = random.Random(seed + 4)
        for _ in range(20):
            c = gen.random_category(rng)
            op = gen.opposite(c)
            for x in c.objects:
                weak_initial = all(c.hom(x, y) for y in c.objects)
                assert homotopy.pi0(op, x).trivial == weak_initial
                initial = weak_initial and all(len(c.hom(x, y)) <= 1 for y in c.objects)
                both = homotopy.pi0(op, x).trivial and homotopy.pi1(op, x).trivial
                assert both == initial


class TestObjectAction:
    def test_identity_is_identity(self, seed):
        rng = random.Random(seed + 5)
        for _ in range(10):
            c = gen.random_category(rng, max_objects=4, max_morphisms=16)
            x = rng.choice(c.objects)
            for i in (0, 1):
                m = homotopy.pi_object_action(c, c.id_of(x), i)
                assert m.mapping == {e: e for e in m.source.poset.elements}

    def test_walking_arrow_collapse(self):
        m = homotopy.pi_object_action(walking_arrow(), "a", 0)
        assert m.mapping["1"] == m.target.basepoint

    def test_composition_law(self, seed):
        rng = random.Random(seed + 6)
        done = 0
        while done < 15:
            c = gen.random_category(rng, max_objects=4, max_morphisms=16)
            comps = [(f, g) for (f, g) in oracles.comp(c) if True]
            if not comps:
                continue
            f, g = rng.choice(comps)
            fg = oracles.comp(c)[(f, g)]
            for i in (0, 1):
                lhs = homotopy.pi_object_action(c, fg, i)
                rhs = oracles.compose_pointed(
                    homotopy.pi_object_action(c, f, i), homotopy.pi_object_action(c, g, i)
                )
                assert lhs == rhs
            done += 1

    def test_unknown_morphism(self):
        with pytest.raises(UnknownMorphism):
            homotopy.pi_object_action(walking_arrow(), "zz", 0)

    @pytest.mark.parametrize("route, i", [("analyze", None), ("action", 0), ("action", 1), ("covariance", 0), ("covariance", 1)])
    def test_unknown_morphism_is_refused_by_name(self, route, i):
        # each route reads dom f before it indexes f's row, so an unknown f
        # is an UnknownMorphism naming it, never a KeyError
        c = walking_arrow()
        ident = fincat.identity_functor(c)
        alpha = fincat.validate_nat_trans(ident, ident, {x: c.id_of(x) for x in c.objects})
        call = {
            "analyze": lambda: homotopy.analyze_morphism(c, "zz"),
            "action": lambda: homotopy.pi_object_action(c, "zz", i),
            "covariance": lambda: homotopy.covariance_map(alpha, "zz", i),
        }[route]
        with pytest.raises(UnknownMorphism) as exc:
            call()
        assert str(exc.value) == "no such morphism: 'zz'"


class TestFunctorMap:
    def test_identity_functor_gives_identity(self, seed):
        rng = random.Random(seed + 7)
        c = gen.random_category(rng, max_objects=4, max_morphisms=16)
        f = fincat.identity_functor(c)
        for x in c.objects:
            for i in (0, 1):
                m = homotopy.pi_functor_map(f, x, i)
                assert m.mapping == {e: e for e in m.source.poset.elements}

    def test_naturality_square(self, seed):
        rng = random.Random(seed + 8)
        done = 0
        while done < 15:
            f = gen.random_functor(rng)
            c = f.source
            mors = [m.name for m in c.morphisms]
            if not mors:
                continue
            g = rng.choice(mors)
            x, y = c.dom(g), c.cod(g)
            for i in (0, 1):
                left = oracles.compose_pointed(
                    homotopy.pi_object_action(c, g, i), homotopy.pi_functor_map(f, y, i)
                )
                right = oracles.compose_pointed(
                    homotopy.pi_functor_map(f, x, i),
                    homotopy.pi_object_action(f.target, f.mor_map[g], i),
                )
                assert left == right
            done += 1

    def test_composition_law(self, seed):
        rng = random.Random(seed + 9)
        done = 0
        while done < 15:
            f = gen.random_functor(rng)
            g = gen.random_functor_from(rng, f.target)
            fg = fincat.compose_functors(f, g)
            x = rng.choice(f.source.objects)
            for i in (0, 1):
                lhs = homotopy.pi_functor_map(fg, x, i)
                rhs = oracles.compose_pointed(
                    homotopy.pi_functor_map(f, x, i),
                    homotopy.pi_functor_map(g, f.obj_map[x], i),
                )
                assert lhs == rhs
            done += 1


class TestCovariance:
    def test_identity_morphism_gives_identity(self, seed):
        rng = random.Random(seed + 10)
        done = 0
        while done < 10:
            alpha = gen.random_nat_trans(rng)
            c = alpha.source.source
            x = rng.choice(c.objects)
            for i in (0, 1):
                m = homotopy.covariance_map(alpha, c.id_of(x), i)
                assert m.mapping == {e: e for e in m.source.poset.elements}
            done += 1

    def test_functorial_in_f(self, seed):
        rng = random.Random(seed + 11)
        done = 0
        while done < 10:
            alpha = gen.random_nat_trans(rng)
            c = alpha.source.source
            pairs = list(oracles.comp(c))
            if not pairs:
                continue
            f, g = rng.choice(pairs)
            fg = oracles.comp(c)[(f, g)]
            for i in (0, 1):
                lhs = homotopy.covariance_map(alpha, fg, i)
                rhs = oracles.compose_pointed(
                    homotopy.covariance_map(alpha, f, i), homotopy.covariance_map(alpha, g, i)
                )
                assert lhs == rhs
            done += 1

    def test_matches_materialised_slices(self, seed):
        rng = random.Random(seed + 14)
        for _ in range(25):
            alpha = gen.random_nat_trans(rng)
            for f in gen.morphism_names(alpha.source.source):
                for i in (0, 1):
                    assert homotopy.covariance_map(alpha, f, i) == oracles.covariance_map(alpha, f, i)


class TestAnalyze:
    def test_identity_is_iso(self):
        wa = walking_arrow()
        an = homotopy.analyze_morphism(wa, "id0")
        assert an.iso and an.split_epi and an.mono
        assert an.pi0.trivial and an.pi1.trivial

    def test_walking_arrow_a(self):
        an = homotopy.analyze_morphism(walking_arrow(), "a")
        assert not an.split_epi
        assert an.mono
        assert not an.iso
        # the slice over 1 has the identity as an unreachable object
        assert an.pi0.minimal == {"id1"}

    def test_flags_match_oracles_random(self, seed):
        rng = random.Random(seed + 12)
        for _ in range(10):
            c = gen.random_category(rng, max_objects=4, max_morphisms=14)
            for m in gen.morphism_names(c):
                an = homotopy.analyze_morphism(c, m)
                assert an.split_epi == oracles.split_epi(c, m)
                assert an.mono == oracles.mono(c, m)
                assert an.iso == (an.split_epi and an.mono)

    # each id keeps the name of the search src/ ran on every analysis before
    # the check moved to conftest.py
    @pytest.mark.parametrize("field, flag", [pytest.param("split_epi", "split-epi", id="brute_split_epi-split-epi"), pytest.param("mono", "mono", id="brute_mono-mono")])
    def test_a_search_that_disagrees_is_refused(self, monkeypatch, field, flag):
        # every analysis of every test meets the searches by name; one whose
        # flag says the opposite, for a morphism that is mono and split epi
        # or not, is refused, and so is every analysis once the search says
        # the opposite, which pins that conftest.py runs the check
        c = walking_arrow()
        for f in ("a", "id0"):
            an = homotopy.analyze_morphism(c, f)
            with pytest.raises(OracleMismatch) as exc:
                oracles.check_analysis(c, f, an._replace(**{field: not getattr(an, field)}))
            assert str(exc.value) == f"{flag} flag disagrees with search at {f!r}"
        truth = getattr(oracles, field)
        monkeypatch.setattr(oracles, field, lambda c, f, table=None: not truth(c, f, table))
        for f in ("a", "id0"):
            with pytest.raises(OracleMismatch) as exc:
                homotopy.analyze_morphism(c, f)
            assert str(exc.value) == f"{flag} flag disagrees with search at {f!r}"

    def test_matches_materialised_slice(self, seed):
        rng = random.Random(seed + 15)
        cats = [gen.random_category(rng) for _ in range(30)]
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.cat"))):
            with open(path, encoding="utf-8") as fh:
                cats.append(fincat.parse_category(fh.read()))
        for c in cats:
            for f in gen.morphism_names(c):
                an = homotopy.analyze_morphism(c, f)
                sl = oracles.slice_category(c, c.cod(f)).cat
                assert an.pi0 == homotopy.pi0(sl, f)
                assert an.pi1 == homotopy.pi1(sl, f)

    def test_refusal_names_the_morphism(self, monkeypatch):
        # {e, p} with p;p = p: the slice over * has 2 objects, the pairs over p 4
        c = gen.idempotent_monoid_category()
        monkeypatch.setattr(fincat, "OBJECTS_CAP", 3)
        with pytest.raises(SizeCapExceeded) as exc:
            homotopy.analyze_morphism(c, "p")
        assert str(exc.value) == "parallel arrows over 'p' objects: projected 4 exceeds cap 3"

    def test_slice_pairs_that_render_alike_stay_distinct(self):
        c = gen.slice_pair_collision()
        an = homotopy.analyze_morphism(c, "f")
        assert not an.mono
        # the 12 off-diagonal pairs at z survive; the diagonal joins [f]
        assert len(an.pi1.invariant.poset.elements) == 13
        sl = oracles.slice_category(c, "y").cat
        assert len(homotopy.pi1(sl, "f").invariant.poset.elements) == 13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_adversarial_names(self, seed, data):
        # ids built from the characters that derived names are pasted from
        c = gen.random_category(random.Random(seed), max_objects=4, max_morphisms=14)
        ids = list(c.objects) + list(gen.morphism_names(c))
        names = data.draw(st.lists(st.text("[]=>(),", min_size=1, max_size=3),
                                   min_size=len(ids), max_size=len(ids), unique=True))
        c = gen.renamed(c, dict(zip(ids, names)))
        table, names = oracles.comp(c), gen.morphism_names(c)
        for f in names:
            x = c.dom(f)
            an = homotopy.analyze_morphism(c, f)
            sl = oracles.slice_category(c, c.cod(f)).cat
            assert len(an.pi0.invariant.poset.elements) == len(homotopy.pi0(sl, f).invariant.poset.elements)
            assert len(an.pi1.invariant.poset.elements) == len(homotopy.pi1(sl, f).invariant.poset.elements)
            pairs = fincat._elements_preorder(c, x, 2, c.index[c.id_of(x)], f)[0].keys
            equalised = [(h0, h1) for z in c.objects for h0 in c.hom(z, x) for h1 in c.hom(z, x)
                         if table[h0, f] == table[h1, f]]
            assert sorted((names[h0], names[h1]) for h0, h1 in pairs) == sorted(equalised)


class TestGroupoidDegeneration:
    def test_pi_sets_of_groupoids(self):
        cases = [
            (gen.cyclic_group_category(2), 2),
            (gen.cyclic_group_category(3), 3),
            (gen.klein_four_category(), 4),
        ]
        for cat, n in cases:
            assert fincat.is_groupoid(cat)
            r0 = homotopy.pi0(cat, "*")
            r1 = homotopy.pi1(cat, "*")
            assert len(r0.invariant.poset.elements) == 1
            assert len(r1.invariant.poset.elements) == n
            assert all(a == b for a, b in oracles.leq(r1.invariant.poset))


# Characters that JSON escapes or that derived names are built from: a quote,
# a backslash, non-ASCII, an astral character (a surrogate pair when
# escaped), a control character, and the separators of subset and pair names.
ODD = ['"', "\\", "é", "😀", "\x07", "{", "}", "(", ")", ",", "a"]


def odd_names(**kw):
    return st.text(st.sampled_from(ODD), **kw)


@st.composite
def odd_reports(draw):
    """A report on a random pointed poset whose names, basepoint and context
    are drawn over ODD: the reachability order of a random DAG, with a
    random non-empty lower set collapsed."""
    names = draw(st.lists(odd_names(min_size=1, max_size=4), min_size=1, max_size=7, unique=True))
    n = len(names)
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]), max_size=10))
    up = [1 << i for i in range(n)]
    for a, b in sorted(edges, reverse=True):
        up[a] |= up[b]
    p = oracles.poset_from_pairs(names, {(names[i], names[j]) for i in range(n) for j in range(n) if up[i] >> j & 1})
    lower = oracles.lower_closure(p, draw(st.sets(st.sampled_from(names), min_size=1)))
    pp = oracles.collapse_lower(p, lower, draw(odd_names(min_size=1, max_size=4)))
    return homotopy.report_from_pointed(pp, draw(odd_names(max_size=6)))


def written(r, fmt="interchange"):
    out = io.StringIO()
    homotopy.write_report(r, fmt, out)
    return out.getvalue()


class TestReportSerialization:
    """``write_report``: interchange against the standard library's encoding
    of ``oracles.report_to_dict``, and DOT and text against their per-pair
    oracles."""

    def test_dict_shape(self):
        r = homotopy.pi0(walking_arrow(), "0")
        d = json.loads(written(r))
        assert d == oracles.report_to_dict(r)
        assert d["version"] == 1
        assert d["element_count"] == 2
        assert d["minimal"] == ["1"]
        assert d["trivial"] is False

    @settings(max_examples=100, deadline=None)
    @given(odd_reports())
    def test_odd_names_byte_identical(self, r):
        assert written(r) == oracles.interchange(r)
        assert written(r, "dot") == oracles.hasse_dot(r.invariant)
        assert written(r, "text") == oracles.text_report(r)

    def test_unknown_format_refused(self):
        with pytest.raises(ValueError, match=r"^unknown report format 'json'$"):
            written(homotopy.pi0(walking_arrow(), "0"), "json")

    def test_collapsed_name_outside_universe_is_refused(self):
        with pytest.raises(UnknownObject, match=r"^no such object: 'z'$"):
            homotopy.powerset_report(["a", "b"], ["z", "a"], "{}", "ctx")

    def test_powerset_elements_refuses_what_the_report_refuses(self):
        # a repeated generator would merge, an unknown collapsed name be ignored
        for universe, collapsed, error, message in (
            (["a", "a", "b"], [], InvalidPoset, "two generators render as 'a'"),
            (["a", "b"], ["z"], UnknownObject, "no such object: 'z'"),
        ):
            with pytest.raises(error) as exc:
                homotopy.powerset_report(universe, collapsed, "{}", "ctx")
            assert str(exc.value) == message
        r = homotopy.powerset_report(["b", "a"], ["a"], "{}", "ctx")
        assert r.invariant.poset.elements == ("{a,b}", "{b}", "{}")

    def test_one_element_report(self):
        for r in (homotopy.pi0(walking_arrow(), "1"), homotopy.powerset_report([], [], "{}", "empty")):
            assert r.invariant.poset.elements == (r.invariant.basepoint,)
            assert oracles.cover_pairs(r.invariant.poset) == () and r.minimal == frozenset()
            text = written(r)
            assert text == oracles.interchange(r)
            assert '"covers": [],' in text and '"minimal": [],' in text


class TestKeptPowersetReport:
    """``homotopy._KEPT``: the last powerset report built, kept by its
    description, is what a call with an equal description returns, and it
    equals a report built afresh."""

    KEY = (["g5", "g1", "g3", "g0", "g4", "g2", "g7", "g6"], ["g1", "g6"], "{}", "ctx")

    def fresh(self, monkeypatch, *key):
        monkeypatch.setattr(homotopy, "_KEPT", homotopy._KeptReport())
        return homotopy.powerset_report(*key)

    def test_an_equal_key_returns_the_kept_report(self, monkeypatch):
        universe, collapsed, basepoint, context = self.KEY
        kept = homotopy.powerset_report(iter(universe), collapsed, basepoint, context)
        # the universe in the same order, the collapsed names as another set
        again = homotopy.powerset_report(tuple(universe), {"g6", "g1"}, basepoint, context)
        assert again is kept
        assert (homotopy._KEPT.hits, homotopy._KEPT.misses) == (1, 1)
        fresh = self.fresh(monkeypatch, *self.KEY)
        assert fresh is not kept and fresh == kept
        p, q = kept.invariant.poset, fresh.invariant.poset
        assert (p.elements, p.up, p.cover_masks) == (q.elements, q.up, q.cover_masks)
        assert kept.minimal == fresh.minimal == frozenset({"{g0}", "{g2}", "{g3}", "{g4}", "{g5}", "{g7}"})
        for fmt in ("text", "dot", "interchange"):
            assert written(kept, fmt) == written(fresh, fmt)

    @pytest.mark.parametrize("part, value", [
        (0, ["g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"]),
        (1, ["g1"]),
        (2, "[x]"),
        (3, "other ctx"),
    ], ids=["universe order", "collapsed set", "basepoint", "context"])
    def test_a_key_that_differs_is_built_afresh(self, part, value, monkeypatch):
        key = list(self.KEY)
        key[part] = value
        kept = homotopy.powerset_report(*self.KEY)
        other = homotopy.powerset_report(*key)
        assert other is not kept
        assert (homotopy._KEPT.hits, homotopy._KEPT.misses) == (0, 2)
        assert homotopy.powerset_report(*self.KEY) is not kept
        assert (homotopy._KEPT.hits, homotopy._KEPT.misses) == (0, 3)
        assert other == self.fresh(monkeypatch, *key)
        assert (other.context, other.invariant.basepoint) == (key[3], key[2])

    @pytest.mark.parametrize("universe, collapsed, error, message", [
        (["a", "b", "a"], [], InvalidPoset, "two generators render as 'a'"),
        (["a", "b"], ["b", "z"], UnknownObject, "no such object: 'z'"),
        ([f"g{i:02}" for i in range(13)], [], CapExceeded, "powerset of 13 generators exceeds cap 12"),
        (["a", "b", "a,b"], [], InvalidPoset, "two elements render as '{a,b}'"),
    ], ids=["repeated generator", "unknown collapsed name", "13 generators", "elements alike"])
    def test_a_refusal_keeps_nothing(self, universe, collapsed, error, message):
        kept = homotopy.powerset_report(*self.KEY)
        for _ in range(2):
            with pytest.raises(error) as exc:
                homotopy.powerset_report(universe, collapsed, "{}", "ctx")
            assert str(exc.value) == message
        assert homotopy._KEPT.last[1] is kept
        assert homotopy.powerset_report(*self.KEY) is kept
        assert (homotopy._KEPT.hits, homotopy._KEPT.misses) == (1, 3)

    def test_threads_read_their_own_reports(self, tmp_path, monkeypatch):
        # two functions into one codomain with different images, so their
        # keys differ only in the collapsed set; each thread shows its own
        # function again and again, each build yields to the other thread
        # before it is kept, and the threads switch every microsecond, so
        # the kept report changes hands mid-call
        paths = []
        for name, image in (("f", "y0, x1=>y1"), ("g", "y2, x1=>y3")):
            path = tmp_path / f"{name}.fn"
            path.write_text(f"fn {name} : {{x0,x1}} -> {{y0,y1,y2,y3,y4,y5}} ; x0=>{image}\n", encoding="utf-8")
            paths.append(str(path))
        want = []
        for path in paths:
            buf = io.StringIO()
            assert cli.run(["set", "pi0", "--fn", path], buf) == 0
            want.append(buf.getvalue())
        assert want[0] != want[1]
        build = homotopy.report_from_pointed
        monkeypatch.setattr(homotopy, "report_from_pointed", lambda *args: time.sleep(0) or build(*args))
        monkeypatch.setattr(homotopy, "_KEPT", homotopy._KeptReport())
        got, errors, start = {}, [], threading.Barrier(2)

        def work(t):
            try:
                start.wait(timeout=60)
                outs = []
                for _ in range(100):
                    buf = io.StringIO()
                    assert cli.run(["set", "pi0", "--fn", paths[t]], buf) == 0
                    outs.append(buf.getvalue())
                got[t] = outs
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert got == {t: [want[t]] * 100 for t in range(2)}
        assert homotopy._KEPT.hits + homotopy._KEPT.misses == 200
