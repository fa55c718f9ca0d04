import random
from itertools import product

import pytest

import gen
import oracles
from obstructia import homotopy, order, setcat, states
from obstructia.errors import DimensionCap, ParseError, WrongContext

GF2 = states.StateContext("gf2")
CART = states.StateContext("cartesian")


class TestStateSets:
    def test_cartesian_two_elements(self):
        assert states.states_of(CART, ("a", "b")) == ("a", "b")

    def test_gf2_dim_two(self):
        assert len(states.states_of(GF2, 2)) == 4

    def test_gf2_dim_zero_single_state(self):
        assert states.states_of(GF2, 0) == ("_",)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            states.states_of(GF2, 7)


class TestLaxator:
    def test_cartesian_bijection(self):
        lax = states.laxator(CART, ("a", "b"), ("c", "d"))
        assert len(lax.dom_set) == 4
        assert lax.image() == set(lax.cod_set) and len(lax.image()) == len(lax.dom_set)

    def test_gf2_basis_product(self):
        lax = states.laxator(GF2, 2, 2)
        assert lax.mapping["(10,10)"] == "1000"
        assert lax.mapping["(01,01)"] == "0001"

    def test_gf2_zero_absorbs(self):
        lax = states.laxator(GF2, 2, 2)
        for b in states.states_of(GF2, 2):
            assert lax.mapping[f"(00,{b})"] == "0000"

    def test_tensor_dimension_cap(self):
        with pytest.raises(DimensionCap):
            states.laxator(GF2, 3, 3)


class TestObstructions:
    def test_gf2_2x2_minimal_counts(self):
        p0, p1 = gen.obstructions(GF2, 2, 2)
        assert len(p0.minimal) == 6
        assert len(p1.minimal) == 42
        assert not p0.trivial and not p1.trivial

    def test_gf2_2x2_against_brute_force(self):
        sep = oracles.separable_vectors(2, 2)
        missing = {states.vec_name(v) for v in product((0, 1), repeat=4)} - {
            states.vec_name(v) for v in sep
        }
        p0, _ = gen.obstructions(GF2, 2, 2)
        assert p0.minimal == {"{" + s + "}" for s in missing}

    def test_bell_vector_is_an_obstruction(self):
        p0, _ = gen.obstructions(GF2, 2, 2)
        assert "{1001}" in p0.minimal

    def test_zero_collision_pi1_obstruction(self):
        _, p1 = gen.obstructions(GF2, 2, 2)
        assert "{((00,01),(00,10))}" in p1.minimal

    def test_cartesian_everything_trivial(self):
        # every pair of factor sizes up to 3, the empty set included
        for k, l in product(range(4), repeat=2):
            p0, p1 = gen.obstructions(CART, tuple("abc"[:k]), tuple("def"[:l]))
            assert p0.trivial and p1.trivial

    def test_separable_count_identity(self):
        for m, n in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2)):
            sep = states.laxator(GF2, m, n).image()
            assert len(sep) == 1 + (2**m - 1) * (2**n - 1)


class TestFunctionRoutes:
    """Up to ``homotopy.POWERSET_CAP`` generators, each report of a state
    laxator is the report of the laxator as a finite function: pi0 is
    ``setcat.pi0_function`` and pi1 ``setcat.pi1_function``, alike in
    pointed poset, minimal set and flag, under another context."""

    def shapes(self):
        left, right = "abcdefghijkl", "mnopqrstuvwx"
        for k, l in product(range(13), repeat=2):
            if k * l <= 12:
                yield CART, tuple(left[:k]), tuple(right[:l])
        yield from ((GF2, m, n) for m, n in product(range(7), repeat=2) if m * n <= states.DIM_CAP)

    def test_every_shape_under_the_cap(self):
        compared = {0: 0, 1: 0}
        for ctx, a, b in self.shapes():
            lax = states.laxator(ctx, a, b)
            sizes = len(lax.cod_set), len(setcat.kernel_pair(lax).pairs)
            reports = states.laxator_obstructions(lax, states.lax_context(ctx, a, b))
            for i, (got, size, route) in enumerate(zip(reports, sizes, (setcat.pi0_function, setcat.pi1_function))):
                if size <= homotopy.POWERSET_CAP:
                    want = route(lax)
                    assert (got.invariant, got.minimal, got.trivial) == (want.invariant, want.minimal, want.trivial), (ctx, a, b, i)
                    compared[i] += 1
        # cartesian: the 60 shapes of at most 12 pairs, for both; GF(2): pi0
        # at the 18 shapes with m n <= 3, pi1 at the 4 whose kernel pair
        # fits, dims (0, 0), (0, 1), (1, 0) and (1, 1)
        assert compared == {0: 78, 1: 64}


class TestZeroDimensionalFactor:
    """A factor of dimension 0 has the one state zero, so the 2^n pairs of
    states at dims (0, n) or (n, 0) all tensor to the one state of the
    0-dimensional tensor: pi0 is one point, and the minimal pi1
    obstructions are the 2^n (2^n - 1) ordered pairs of distinct pairs."""

    @pytest.mark.parametrize("n", range(7))
    def test_closed_forms(self, n):
        pairs = 2**n * (2**n - 1)
        # the full powerset up to the cap (4 kernel pairs at n = 1: the
        # basepoint and the 2^4 - 2^2 subsets not inside the diagonal), past
        # it the basepoint and the minimal layer
        elements = 13 if n == 1 else 1 + pairs
        for dims in ((0, n), (n, 0)):
            p0, p1 = gen.obstructions(GF2, *dims)
            assert (p0.invariant.poset.elements, p0.trivial) == (("{}",), True)
            assert len(p1.minimal) == pairs
            assert len(p1.invariant.poset.elements) == elements
            assert p1.trivial == (n == 0)


def star_oracle(left, right, tensor, targets):
    """The pair-built summary past the cap, from brute-force tensoring of
    every input pair: pi0 is the basepoint {} below each state that no pair
    reaches, pi1 below each ordered pair of distinct input pairs with equal
    tensor."""
    inputs = [(x, y) for x in left for y in right]
    reached = {tensor(x, y) for x, y in inputs}
    collide = [(p, q) for p in inputs for q in inputs if p != q and tensor(*p) == tensor(*q)]
    stars = []
    for missing in ([t for t in targets if t not in reached],
                    [f"(({p[0]},{p[1]}),({q[0]},{q[1]}))" for p, q in collide]):
        elems = ["{}"] + ["{" + y + "}" for y in missing]
        leq = {("{}", e) for e in elems} | {(e, e) for e in elems}
        stars.append(order.PointedPoset(oracles.poset_from_pairs(elems, leq), "{}"))
    return stars


class TestSummaryPastTheCap:
    """Past the powerset cap a state report is a star built directly by
    ``order.reflection`` (the conftest checks it against
    ``oracles.from_masks``); check it against the star built from name
    pairs."""

    def check(self, ctx, a, b, star):
        for r, want in zip(gen.obstructions(ctx, a, b), star):
            assert r.invariant == want
            assert r.invariant.poset.elements == want.poset.elements
            assert r.minimal == set(want.poset.elements) - {"{}"}
            assert r.trivial == (len(want.poset.elements) == 1)
            assert r.context.endswith(" (minimal sub-poset; full powerset elided)")

    def test_gf2(self):
        def bits(v):
            return "".join(map(str, v))

        def tensor(x, y):
            return bits(oracles.gf2_tensor(tuple(map(int, x)), tuple(map(int, y))))

        for m, n in ((2, 2), (2, 3), (3, 2)):
            assert 2 ** (m * n) > homotopy.POWERSET_CAP
            left = [bits(v) for v in product((0, 1), repeat=m)]
            right = [bits(v) for v in product((0, 1), repeat=n)]
            targets = [bits(v) for v in product((0, 1), repeat=m * n)]
            self.check(GF2, m, n, star_oracle(left, right, tensor, targets))

    def test_cartesian(self):
        left, right = tuple("abcd"), tuple("efgh")
        targets = [f"({x},{y})" for x in left for y in right]
        star = star_oracle(left, right, lambda x, y: f"({x},{y})", targets)
        assert all(len(s.poset.elements) == 1 for s in star)
        self.check(CART, left, right, star)


class TestMinimalLayer:
    """local_action maps the minimal layer alone: up to the powerset cap
    the pi0 report of a GF(2) state laxator is one point (for the cartesian
    one see test_cartesian_everything_trivial)."""

    def test_at_most_cap_states_means_rank_one(self):
        # 2^(m n) states fit under the cap only when m n <= 3, so one factor
        # has dimension <= 1 and every state matrix has rank <= 1
        for m, n in product(range(7), repeat=2):
            if m * n <= states.DIM_CAP and 2 ** (m * n) <= homotopy.POWERSET_CAP:
                assert m * n <= 3

    def test_one_point_up_to_the_cap(self):
        for m, n in product(range(7), repeat=2):
            if m * n <= 3:
                p0, _ = gen.obstructions(GF2, m, n)
                assert p0.invariant.poset.elements == ("{}",)


class TestLocalAction:
    def test_identity_matrices_identity_map(self):
        ident = ((1, 0), (0, 1))
        m = states.local_action(GF2, ident, ident)
        assert m.mapping == {e: e for e in m.source.poset.elements}

    def test_rank_one_separates_everything(self):
        for fm in (((1, 0), (0, 0)), ((1, 1), (0, 0)), ((0, 0), (1, 1))):
            m = states.local_action(GF2, fm, ((1, 0), (0, 1)))
            bp = m.target.basepoint
            for e in m.source.poset.elements:
                if e != m.source.basepoint:
                    assert m.mapping[e] == bp

    def test_rank_one_image_separable_brute_force(self):
        # direct statement: a rank-1 action on one factor leaves every image
        # vector a product vector
        fm = ((1, 1), (0, 0))
        sep = oracles.separable_vectors(2, 2)
        for v in product((0, 1), repeat=4):
            rows = [v[0:2], v[2:4]]
            mid = [tuple(x for x in r) for r in rows]
            out0 = tuple((fm[0][0] * mid[0][j] + fm[0][1] * mid[1][j]) % 2 for j in range(2))
            out1 = tuple((fm[1][0] * mid[0][j] + fm[1][1] * mid[1][j]) % 2 for j in range(2))
            assert out0 + out1 in sep

    def test_separability_preserved_on_random_actions(self, seed):
        rng = random.Random(seed)
        lax = states.laxator(GF2, 2, 2)
        sep = lax.image()
        for _ in range(200):
            a2, b2 = rng.randint(1, 2), rng.randint(1, 2)
            fm = tuple(tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(a2))
            gm = tuple(tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(b2))
            m = states.local_action(GF2, fm, gm)
            assert m.mapping[m.source.basepoint] == m.target.basepoint

    def test_cartesian_local_action(self):
        f = setcat.FiniteFunction(("a", "b"), ("a",), {"a": "a", "b": "a"})
        g = setcat.FiniteFunction(("c", "d"), ("c", "d"), {"c": "c", "d": "d"})
        m = states.local_action(CART, f, g)
        assert m.mapping == {m.source.basepoint: m.target.basepoint}

    def test_brute_force_flow(self, seed):
        # every pair of source and target dimensions with tensors of at most
        # 64 states, on both sides of the powerset cap
        rng = random.Random(seed + 16)
        dims = [(m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 6]
        for (a, b), (a2, b2) in product(dims, dims):
            for _ in range(2):
                fm = tuple(tuple(rng.randint(0, 1) for _ in range(a)) for _ in range(a2))
                gm = tuple(tuple(rng.randint(0, 1) for _ in range(b)) for _ in range(b2))
                assert states.local_action(GF2, fm, gm).mapping == oracles.gf2_local_flow(fm, gm)

    def test_matrix_validation(self):
        with pytest.raises(ParseError):
            states.local_action(GF2, ((1, 2),), ((1,),))
        with pytest.raises(ParseError, match=r"^matrix row \(1,\) needs 2 columns$"):
            states.local_action(GF2, ((1, 0), (1,)), ((1,),))

    def test_wrong_payload_kind(self):
        with pytest.raises(WrongContext):
            states.local_action(CART, ((1, 0), (0, 1)), ((1, 0), (0, 1)))


class TestContext:
    def test_unknown_kind_rejected(self):
        with pytest.raises(WrongContext):
            states.StateContext("quaternionic")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError):
            states.states_of(CART, ("a", "a"))
