"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Randomised criteria draw their seed from OBSTRUCTIA_SEED (default 0), so two
runs of the suite are identical.
"""

import io
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import gen
import oracles
from conftest import base_seed
from obstructia import cli, fincat, homotopy, opengraph, setcat, states
from obstructia.errors import SizeCapExceeded

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def _run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out)
    assert code == 0, f"cli failed: {argv}"
    return out.getvalue()


def _report(number, description, body):
    try:
        body()
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


# The expected 13-element pi0 diagram for {0,1} -> {0,1,2,3}: element sets
# and the 22 cover edges.
EXPECTED_PI0_ELEMENTS = {
    "{}",
    "{2}", "{3}",
    "{0,2}", "{1,2}", "{2,3}", "{0,3}", "{1,3}",
    "{0,1,2}", "{0,2,3}", "{1,2,3}", "{0,1,3}",
    "{0,1,2,3}",
}
EXPECTED_PI0_COVERS = {
    ("{}", "{2}"), ("{}", "{3}"),
    ("{2}", "{0,2}"), ("{2}", "{1,2}"), ("{2}", "{2,3}"),
    ("{3}", "{2,3}"), ("{3}", "{0,3}"), ("{3}", "{1,3}"),
    ("{0,2}", "{0,1,2}"), ("{0,2}", "{0,2,3}"),
    ("{1,2}", "{0,1,2}"), ("{1,2}", "{1,2,3}"),
    ("{2,3}", "{0,2,3}"), ("{2,3}", "{1,2,3}"),
    ("{0,3}", "{0,2,3}"), ("{0,3}", "{0,1,3}"),
    ("{1,3}", "{1,2,3}"), ("{1,3}", "{0,1,3}"),
    ("{0,1,2}", "{0,1,2,3}"), ("{0,2,3}", "{0,1,2,3}"),
    ("{1,2,3}", "{0,1,2,3}"), ("{0,1,3}", "{0,1,2,3}"),
}

# The expected 13-element pi1 diagram for {0,1} -> {*} over the kernel pair.
EXPECTED_PI1_ELEMENTS = {
    "{}",
    "{(0,1)}", "{(1,0)}",
    "{(0,1),(1,1)}", "{(0,0),(0,1)}", "{(0,1),(1,0)}", "{(1,0),(1,1)}", "{(0,0),(1,0)}",
    "{(0,0),(0,1),(1,1)}", "{(0,1),(1,0),(1,1)}", "{(0,0),(0,1),(1,0)}", "{(0,0),(1,0),(1,1)}",
    "{(0,0),(0,1),(1,0),(1,1)}",
}


def test_criterion_01_pi0_diagram():
    def body():
        start = time.perf_counter()
        _, f = setcat.parse_function(Path(fx("missing_two.fn")).read_text(encoding="utf-8"))
        r = setcat.pi0_function(f)
        assert set(r.invariant.poset.elements) == EXPECTED_PI0_ELEMENTS
        assert set(oracles.cover_pairs(r.invariant.poset)) == EXPECTED_PI0_COVERS
        assert len(EXPECTED_PI0_COVERS) == 22
        assert r.minimal == {"{2}", "{3}"}
        text = _run_cli("set", "pi0", "--fn", fx("missing_two.fn"))
        assert "elements (13)" in text and "minimal obstructions (2): {2}, {3}" in text
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    _report(1, "pi0 of {0,1}->{0,1,2,3}: the 13-element diagram, exactly", body)


def test_criterion_02_pi1_diagram():
    def body():
        _, f = setcat.parse_function(Path(fx("fold_pair.fn")).read_text(encoding="utf-8"))
        r = setcat.pi1_function(f)
        assert set(r.invariant.poset.elements) == EXPECTED_PI1_ELEMENTS
        assert r.minimal == {"{(0,1)}", "{(1,0)}"}
        # inclusion order over the kernel-pair subsets, 22 covers
        assert len(oracles.cover_pairs(r.invariant.poset)) == 22
        text = _run_cli("set", "pi1", "--fn", fx("fold_pair.fn"))
        assert "elements (13)" in text

    _report(2, "pi1 of {0,1}->{*}: the 13-element kernel-pair diagram, exactly", body)


def test_criterion_03_oracle_equivalence():
    def body():
        start = time.perf_counter()
        n_fn = pi0_iso = pi1_iso = pi1_guarded = pi1_ambient = 0
        for m in range(4):
            for n in range(4):
                for images in product(range(n), repeat=m):
                    n_fn += 1
                    f = setcat.FiniteFunction(
                        tuple(str(i) for i in range(m)),
                        tuple(str(j) for j in range(n)),
                        {str(i): str(images[i]) for i in range(m)},
                    )
                    mor, yobj = gen.embed_function(f)

                    amb = gen.finset_ambient(max(m, n))
                    sl = oracles.slice_category(amb, yobj)
                    generic0 = homotopy.pi0(sl.cat, mor)
                    fast0 = setcat.pi0_function(f)
                    oracles.pointed_iso(generic0.invariant, fast0.invariant, gen.ambient_pi0_map(generic0))
                    pi0_iso += 1

                    k1 = max(m, n, len(setcat.kernel_pair(f).pairs))
                    if k1 > gen.AMBIENT_MAX_K:
                        assert len(f.image()) < len(f.dom_set)
                        pi1_ambient += 1
                        continue
                    try:
                        sl1 = oracles.slice_category(gen.finset_ambient(k1), yobj)
                        generic1 = homotopy.pi1(sl1.cat, mor)
                    except SizeCapExceeded:
                        assert len(f.image()) < len(f.dom_set)
                        pi1_guarded += 1
                        continue
                    fast1 = setcat.pi1_function(f)
                    oracles.pointed_iso(generic1.invariant, fast1.invariant, gen.ambient_pi1_map(generic1, sl1, mor))
                    pi1_iso += 1
        elapsed = time.perf_counter() - start
        assert n_fn == 60 and pi0_iso == 60
        # pi1 matches exactly wherever the sufficient ambient fits the
        # documented size guards: all injective functions; the guard or the
        # ambient bound refuses the rest (see the notes ledger)
        assert pi1_iso == 24 and pi1_guarded == 6 and pi1_ambient == 30
        assert elapsed < 60.0, f"{elapsed:.1f}s"

    _report(3, "fast paths match the generic engine on all 60 small functions", body)


def test_criterion_04_triviality_theorems():
    def body():
        rng = random.Random(base_seed() + 400)
        categories = 0
        while categories < 200:
            c = gen.random_category(rng, max_objects=5, max_morphisms=25)
            categories += 1
            for x in c.objects:
                p0 = homotopy.pi0(c, x).trivial
                p1 = homotopy.pi1(c, x).trivial
                assert p0 == oracles.weak_terminal(c, x)
                assert p1 == oracles.subterminal(c, x)
                assert (p0 and p1) == oracles.terminal(c, x)
            for mname in gen.morphism_names(c):
                an = homotopy.analyze_morphism(c, mname)
                assert an.split_epi == oracles.split_epi(c, mname)
                assert an.mono == oracles.mono(c, mname)
                assert an.iso == (an.split_epi and an.mono)

    _report(4, "triviality and slice-flag theorems on 200 random categories", body)


def test_criterion_05_groupoid_degeneration():
    def body():
        one_object = [
            (gen.cyclic_group_category(2), 2),
            (gen.cyclic_group_category(3), 3),
            (gen.klein_four_category(), 4),
        ]
        for cat, n in one_object:
            assert fincat.is_groupoid(cat)
            r0 = homotopy.pi0(cat, "*")
            r1 = homotopy.pi1(cat, "*")
            for r in (r0, r1):
                assert all(a == b for a, b in oracles.leq(r.invariant.poset))
            assert len(r0.invariant.poset.elements) == 1
            assert len(r1.invariant.poset.elements) == n

        two = gen.two_component_groupoid()  # Z/2 and Z/3 components
        assert fincat.is_groupoid(two)
        for x, group_order in (("A.*", 2), ("B.*", 3)):
            r0 = homotopy.pi0(two, x)
            r1 = homotopy.pi1(two, x)
            assert len(r0.invariant.poset.elements) == 2
            assert all(a == b for a, b in oracles.leq(r0.invariant.poset))
            assert len(r1.invariant.poset.elements) == group_order
            assert all(a == b for a, b in oracles.leq(r1.invariant.poset))

    _report(5, "groupoids: discrete invariants, component and group-order counts", body)


def test_criterion_06_functoriality_laws():
    def body():
        rng = random.Random(base_seed() + 600)
        chains = 0
        while chains < 100:
            f = gen.random_functor(rng)
            g = gen.random_functor_from(rng, f.target)
            fg = fincat.compose_functors(f, g)
            c = f.source
            x = rng.choice(c.objects)
            for i in (0, 1):
                # identity law
                ident = homotopy.pi_functor_map(fincat.identity_functor(c), x, i)
                assert ident.mapping == {e: e for e in ident.source.poset.elements}
                # composition law, element-wise
                lhs = homotopy.pi_functor_map(fg, x, i)
                rhs = oracles.compose_pointed(
                    homotopy.pi_functor_map(f, x, i),
                    homotopy.pi_functor_map(g, f.obj_map[x], i),
                )
                assert lhs == rhs
            mors = [m.name for m in c.morphisms if m.dom == x]
            if mors:
                h = rng.choice(mors)
                y = c.cod(h)
                for i in (0, 1):
                    left = oracles.compose_pointed(
                        homotopy.pi_object_action(c, h, i), homotopy.pi_functor_map(f, y, i)
                    )
                    right = oracles.compose_pointed(
                        homotopy.pi_functor_map(f, x, i),
                        homotopy.pi_object_action(f.target, f.mor_map[h], i),
                    )
                    assert left == right
            chains += 1

    _report(6, "identity, composition and naturality laws on 100 functor chains", body)


def test_criterion_07_covariance():
    def body():
        rng = random.Random(base_seed() + 700)
        instances = 0
        while instances < 100:
            alpha = gen.random_nat_trans(rng)
            c = alpha.source.source
            pairs = list(oracles.comp(c))
            f, g = rng.choice(pairs)
            fg = oracles.comp(c)[(f, g)]
            for i in (0, 1):
                # construction validates monotonicity + basepoint preservation
                m_f = homotopy.covariance_map(alpha, f, i)
                m_g = homotopy.covariance_map(alpha, g, i)
                m_fg = homotopy.covariance_map(alpha, fg, i)
                assert m_fg == oracles.compose_pointed(m_f, m_g)
                x = c.dom(f)
                m_id = homotopy.covariance_map(alpha, c.id_of(x), i)
                assert m_id.mapping == {e: e for e in m_id.source.poset.elements}
            instances += 1

    _report(7, "covariance maps pointed, monotone and functorial on 100 instances", body)


def test_criterion_08_open_graphs():
    def body():
        g = opengraph.parse_open_graph(Path(fx("G.og")).read_text(encoding="utf-8"))
        h = opengraph.parse_open_graph(Path(fx("H.og")).read_text(encoding="utf-8"))
        g2 = opengraph.parse_open_graph(Path(fx("G_identified.og")).read_text(encoding="utf-8"))
        assert opengraph.reach(g).pairs == {("1", "1")}
        assert opengraph.reach(h).pairs == {("3", "1")}
        composed = opengraph.compose_rel(opengraph.reach(g), opengraph.reach(h))
        assert composed.pairs == frozenset()
        whole = opengraph.reach(opengraph.compose(g, h))
        assert whole.pairs == {("1", "1")}  # total on {1} x {1}

        r, pi1 = opengraph.laxator_obstructions(composed, whole)
        assert len(r.invariant.poset.elements) == 2
        assert r.minimal == {"{(1,1)}"}
        assert pi1.trivial

        hom = opengraph.parse_graph_hom(Path(fx("identify_outputs.gh")).read_text(encoding="utf-8"), g, g2)
        reached, pmap = opengraph.act(hom, h)
        assert reached == opengraph.reach(g2)
        assert reached.pairs == {("1", "1"), ("1", "3")}
        assert pmap.mapping["{(1,1)}"] == pmap.target.basepoint

    _report(8, "open-graph case study: reaches, two-chain, flow trivialises", body)


def test_criterion_09_states():
    def body():
        start = time.perf_counter()
        gf2 = states.StateContext("gf2")
        cart = states.StateContext("cartesian")

        # independent separability oracle over all 16 input pairs
        sep_oracle = {
            states.vec_name(v) for v in oracles.separable_vectors(2, 2)
        }
        assert len(sep_oracle) == 10
        p0, p1 = gen.obstructions(gf2, 2, 2)
        assert len(p0.minimal) == 6
        assert p0.minimal == {
            "{" + states.vec_name(v) + "}"
            for v in product((0, 1), repeat=4)
            if states.vec_name(v) not in sep_oracle
        }

        for a, b in ((("a",), ("b", "c")), (("a", "b"), ("c", "d"))):
            lax = states.laxator(cart, a, b)
            assert lax.image() == set(lax.cod_set) and len(lax.image()) == len(lax.dom_set)
            c0, c1 = gen.obstructions(cart, a, b)
            assert c0.trivial and c1.trivial

        # every rank-1 factor trivialises every obstruction
        ident = ((1, 0), (0, 1))
        rank1 = [
            m
            for m in (tuple(tuple(r) for r in rows) for rows in product(product((0, 1), repeat=2), repeat=2))
            if any(any(row) for row in m)
            and (m[0][0] * m[1][1] + m[0][1] * m[1][0]) % 2 == 0
        ]
        assert len(rank1) == 9
        for m in rank1:
            for f, g in ((m, ident), (ident, m)):
                pm = states.local_action(gf2, f, g)
                bp = pm.target.basepoint
                assert all(
                    pm.mapping[e] == bp
                    for e in pm.source.poset.elements
                    if e != pm.source.basepoint
                )

        # separability preserved under 500 random local actions
        rng = random.Random(base_seed() + 900)
        lax = states.laxator(gf2, 2, 2)
        payload = {states.vec_name(v): v for v in product((0, 1), repeat=4)}
        for _ in range(500):
            a2, b2 = rng.randint(1, 2), rng.randint(1, 2)
            fm = tuple(tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(a2))
            gm = tuple(tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(b2))
            pm = states.local_action(gf2, fm, gm)  # validates basepoint preservation
            target_sep = states.laxator(gf2, a2, b2).image()
            for name in states.laxator(gf2, 2, 2).image():
                v = payload[name]
                rows = [v[0:2], v[2:4]]
                mid = [states.apply_matrix(gm, tuple(r)) for r in rows]
                cols = list(zip(*mid))
                out_cols = [states.apply_matrix(fm, tuple(c)) for c in cols]
                flat = tuple(out_cols[j][i] for i in range(a2) for j in range(b2))
                assert states.vec_name(flat) in target_sep
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{elapsed:.1f}s"

    _report(9, "state laxator: 6 entangled states, cartesian strongness, local actions", body)


def test_criterion_10_determinism():
    def body():
        driver = os.path.join(os.path.dirname(__file__), "accept_driver.py")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, driver], capture_output=True, env=env
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 1000

    _report(10, "byte-identical CLI output across independent full runs", body)
