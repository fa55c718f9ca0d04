import io
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
import oracles
from obstructia import fincat, homotopy, order, setcat
from obstructia.errors import CapExceeded, EngineError, InvalidPoset, OracleMismatch, ParseError

FN_MISSING_TWO = "fn missing_two : {0,1} -> {0,1,2,3} ; 0=>0, 1=>1"
FN_FOLD_PAIR = "fn fold_pair : {0,1} -> {*} ; 0=>*, 1=>*"

# The expected 13-element diagram for the function {0,1} -> {0,1,2,3}:
# four tiers of subsets over the empty set, 22 cover edges.
PI0_ELEMENTS = {
    "{}",
    "{2}", "{3}",
    "{0,2}", "{1,2}", "{2,3}", "{0,3}", "{1,3}",
    "{0,1,2}", "{0,2,3}", "{1,2,3}", "{0,1,3}",
    "{0,1,2,3}",
}
PI0_COVERS = {
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


def all_functions(max_size=3):
    for m in range(max_size + 1):
        for n in range(max_size + 1):
            dom = tuple(str(i) for i in range(m))
            cod = tuple(str(j) for j in range(n))
            for images in product(range(n), repeat=m):
                yield setcat.FiniteFunction(
                    dom, cod, {str(i): str(images[i]) for i in range(m)}
                )


class TestFiniteFunction:
    def test_parse_and_round_trip(self):
        name, f = setcat.parse_function(FN_MISSING_TWO)
        assert name == "missing_two"
        assert setcat.parse_function(gen.serialize_function(name, f))[1] == f

    def test_empty_domain(self):
        name, f = setcat.parse_function("fn e : {} -> {a} ;")
        assert f.dom_set == () and f.cod_set == ("a",)

    def test_partial_mapping_rejected(self):
        with pytest.raises(ParseError):
            setcat.parse_function("fn bad : {0,1} -> {a} ; 0=>a")

    def test_empty_or_repeated_element_rejected(self):
        # an element "" would render its singleton as "{}", the basepoint's name
        with pytest.raises(ParseError, match="empty element in set '{a,,b}'"):
            setcat.parse_function("fn f : {a} -> {a,,b} ; a=>a")
        with pytest.raises(ParseError, match="element 'x' repeated in set '{x,x}'"):
            setcat.parse_function("fn f : {x,x} -> {y} ; x=>y")

    @pytest.mark.parametrize("dom, cod, labels", [
        (("a",), ("c", "c"), "('c', 'c')"),
        (("a", "a"), ("c",), "('a', 'a')"),
    ], ids=["codomain", "domain"])
    def test_repeated_label_refused(self, dom, cod, labels):
        # a set that names an element twice is refused, not read as a smaller set
        with pytest.raises(ParseError) as exc:
            setcat.FiniteFunction(dom, cod, {"a": "c"})
        assert str(exc.value) == f"duplicate element labels in {labels}"

    def test_empty_function_name_rejected(self):
        # serialize_function refuses the name "", so it must not read in either
        with pytest.raises(ParseError, match=r"^empty function name in 'fn : \{a\} -> \{b\} ; a=>b'$"):
            setcat.parse_function("fn : {a} -> {b} ; a=>b")

    def test_value_outside_codomain(self):
        with pytest.raises(ParseError):
            setcat.parse_function("fn bad : {0} -> {a} ; 0=>b")

    def test_unreadable_label_refused(self):
        # written as "{ a,b}", it would read back as a function on ('a', 'b')
        f = setcat.FiniteFunction((" a", "b"), ("y",), {" a": "y", "b": "y"})
        with pytest.raises(ParseError, match="label ' a' would not read back"):
            gen.serialize_function("f", f)
        with pytest.raises(ParseError, match="function name 'f:g' would not read back"):
            gen.serialize_function("f:g", setcat.FiniteFunction(("a",), ("y",), {"a": "y"}))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet="{}(),[]=>+'\\# ", max_size=3), max_size=4),
        st.lists(st.text(alphabet="{}(),[]=>+'\\# ", max_size=3), max_size=4),
        st.text(alphabet="fn:->;# \n", max_size=4),
        st.data(),
    )
    @example(dom=[" a", "b"], cod=["y"], name="f", data=None)
    @example(dom=[], cod=[""], name="f", data=None)
    @example(dom=["+=>"], cod=["y"], name="f", data=None)
    @example(dom=[], cod=["#"], name="f", data=None)
    @example(dom=[], cod=["a,b"], name="f", data=None)
    @example(dom=[], cod=["y"], name="f;g", data=None)
    @example(dom=["="], cod=[">"], name="f", data=None)  # reads back: "==>>" splits as "=" and ">"
    def test_round_trip_or_refusal(self, dom, cod, name, data):
        """Labels and names drawn over the characters the format gives a
        meaning to: either refused, or read back as they were written."""
        mapping = {x: (data.draw(st.sampled_from(cod)) if data else cod[0]) for x in dom} if cod else {}
        try:
            text = gen.serialize_function(name, setcat.FiniteFunction(tuple(dom), tuple(cod), mapping))
        except EngineError:
            return
        assert setcat.parse_function(text) == (name, setcat.FiniteFunction(tuple(dom), tuple(cod), mapping))


class TestKernelPair:
    def test_injective_diagonal_only(self):
        f = setcat.FiniteFunction(("0", "1"), ("0", "1"), {"0": "0", "1": "1"})
        assert setcat.kernel_pair(f).pairs == {("0", "0"), ("1", "1")}

    def test_constant_all_pairs(self):
        _, f = setcat.parse_function(FN_FOLD_PAIR)
        assert setcat.kernel_pair(f).pairs == {
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")
        }

    def test_one_doubled_fibre(self):
        f = setcat.FiniteFunction(
            ("0", "1", "2"), ("a", "b"), {"0": "a", "1": "a", "2": "b"}
        )
        kp = setcat.kernel_pair(f)
        assert len(kp.pairs) == 5
        assert {(x, y) for x, y in kp.pairs if x != y} == {("0", "1"), ("1", "0")}

    # every kernel pair of every test is checked to be an equivalence
    # relation and the pullback by name (conftest.py); pairs that are none
    # are refused, by the check and by every kernel_pair that returns them,
    # which pins that conftest.py runs the check
    def refused(self, monkeypatch, pairs, message):
        with pytest.raises(OracleMismatch, match=message):
            oracles.check_equivalence(frozenset(pairs))
        kernel_pair = setcat.KernelPair
        monkeypatch.setattr(setcat, "KernelPair", lambda _: kernel_pair(frozenset(pairs)))
        with pytest.raises(OracleMismatch, match=message):
            setcat.kernel_pair(setcat.parse_function(FN_FOLD_PAIR)[1])

    def test_missing_diagonal_refused(self, monkeypatch):
        self.refused(monkeypatch, {("a", "b"), ("b", "a"), ("b", "b")}, r"^kernel pair misses diagonal at 'a'$")

    def test_asymmetric_pairs_refused(self, monkeypatch):
        self.refused(monkeypatch, {("a", "a"), ("b", "b"), ("a", "b")}, r"^kernel pair not symmetric at \('a', 'b'\)$")

    def test_intransitive_pairs_refused(self, monkeypatch):
        pairs = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}
        self.refused(monkeypatch, pairs, r"^kernel pair not transitive$")

    def test_pairs_other_than_the_pullback_refused(self, monkeypatch):
        # the diagonal is an equivalence relation, but not the kernel pair
        # of a function that folds two elements
        diagonal = frozenset({("0", "0"), ("1", "1")})
        oracles.check_equivalence(diagonal)
        kernel_pair = setcat.KernelPair
        monkeypatch.setattr(setcat, "KernelPair", lambda _: kernel_pair(diagonal))
        with pytest.raises(AssertionError, match="differs from the pullback by name"):
            setcat.kernel_pair(setcat.parse_function(FN_FOLD_PAIR)[1])


class TestPi0Function:
    def test_missing_two_example_exact(self):
        _, f = setcat.parse_function(FN_MISSING_TWO)
        r = setcat.pi0_function(f)
        assert set(r.invariant.poset.elements) == PI0_ELEMENTS
        assert set(oracles.cover_pairs(r.invariant.poset)) == PI0_COVERS
        assert r.minimal == {"{2}", "{3}"}
        assert r.invariant.basepoint == "{}"

    def test_surjective_trivial(self):
        f = setcat.FiniteFunction(("0", "1"), ("a",), {"0": "a", "1": "a"})
        assert setcat.pi0_function(f).trivial

    def test_empty_into_point(self):
        f = setcat.FiniteFunction((), ("*",), {})
        r = setcat.pi0_function(f)
        assert set(r.invariant.poset.elements) == {"{}", "{*}"}
        assert r.minimal == {"{*}"}

    def test_cap(self):
        f = setcat.FiniteFunction((), tuple(str(i) for i in range(13)), {})
        with pytest.raises(CapExceeded):
            setcat.pi0_function(f)

    def test_labels_that_render_alike_are_refused(self):
        # {""} renders as the basepoint's name, {"a,b"} as the subset {a,b}
        f = setcat.FiniteFunction(("a",), ("", "a", "b"), {"a": "a"})
        with pytest.raises(InvalidPoset, match=r"two elements render as '\{\}'"):
            setcat.pi0_function(f)
        f = setcat.FiniteFunction((), ("a", "a,b", "b"), {})
        with pytest.raises(InvalidPoset, match=r"two elements render as '\{a,b\}'"):
            setcat.pi0_function(f)

    def test_second_route_through_collapse(self, seed):
        # independent pipeline: materialise the powerset poset, collapse the
        # lower set of the image, compare pointed posets element for element
        rng = random.Random(seed)
        fns = [f for f in all_functions(3) if len(f.cod_set) <= 3]
        for f in rng.sample(fns, 15):
            subsets = []
            for mask in range(1 << len(f.cod_set)):
                subsets.append(
                    frozenset(e for i, e in enumerate(f.cod_set) if mask >> i & 1)
                )
            name = {s: homotopy.subset_name(s) for s in subsets}
            leq = {(name[s], name[t]) for s in subsets for t in subsets if s <= t}
            p = oracles.poset_from_pairs(name.values(), leq)
            lower = {name[s] for s in subsets if s <= f.image()}
            pp = oracles.collapse_lower(p, lower, "{}")
            fast = setcat.pi0_function(f).invariant
            assert set(pp.poset.elements) == set(fast.poset.elements)
            assert oracles.leq(pp.poset) == oracles.leq(fast.poset)


class TestPi1Function:
    def test_fold_pair_example_exact(self):
        _, f = setcat.parse_function(FN_FOLD_PAIR)
        r = setcat.pi1_function(f)
        assert len(r.invariant.poset.elements) == 13
        assert r.minimal == {"{(0,1)}", "{(1,0)}"}
        assert len(oracles.cover_pairs(r.invariant.poset)) == 22

    def test_injective_trivial(self):
        f = setcat.FiniteFunction(("0", "1"), ("a", "b", "c"), {"0": "a", "1": "c"})
        assert setcat.pi1_function(f).trivial

    def test_single_doubled_fibre(self):
        f = setcat.FiniteFunction(
            ("a", "b", "c"), ("0", "1"), {"a": "0", "b": "0", "c": "1"}
        )
        r = setcat.pi1_function(f)
        assert r.minimal == {"{(a,b)}", "{(b,a)}"}

    def test_repeated_generator_is_refused(self):
        # (a, b,c) and (a,b, c) both render as (a,b,c): merging them would
        # give 113 elements where the exact pi1 has 2^8 - 2^4 + 1 = 241
        f = setcat.FiniteFunction(("a", "a,b", "b,c", "c"), ("y1", "y2"), {"a": "y1", "b,c": "y1", "a,b": "y2", "c": "y2"})
        with pytest.raises(InvalidPoset, match=r"^two generators render as '\(a,b,c\)'$"):
            setcat.pi1_function(f)


class TestMinimalCounts:
    def test_counts_match_fibre_arithmetic(self):
        for f in all_functions(3):
            if len(f.cod_set) <= homotopy.POWERSET_CAP:
                r0 = setcat.pi0_function(f)
                assert len(r0.minimal) == len(set(f.cod_set) - f.image())
                assert r0.trivial == (f.image() == set(f.cod_set))
            kp = setcat.kernel_pair(f)
            if len(kp.pairs) <= homotopy.POWERSET_CAP:
                r1 = setcat.pi1_function(f)
                assert len(r1.minimal) == len(kp.pairs) - len(f.dom_set)
                assert r1.trivial == (len(f.image()) == len(f.dom_set))


class TestInterchange:
    def test_function_reports_byte_identical(self, seed):
        """pi0 over codomains and pi1 over kernel pairs of 0 to 10 generators."""
        rng = random.Random(seed + 29)
        for n in range(11):
            cod = tuple(f"y{j}" for j in range(n))
            dom = tuple(f"x{i}" for i in range(rng.randint(0, n)))
            reports = [setcat.pi0_function(setcat.FiniteFunction(dom, cod, {x: rng.choice(cod) for x in dom}))]
            # k fibres of two elements (4 pairs each) and singletons for the rest: n pairs
            k = rng.randint(0, n // 4)
            dom = tuple(f"x{i}" for i in range(n - 2 * k))
            f = setcat.FiniteFunction(dom, dom, {x: dom[i - i % 2 if i < 2 * k else i] for i, x in enumerate(dom)})
            assert len(setcat.kernel_pair(f).pairs) == n
            reports.append(setcat.pi1_function(f))
            for r in reports:
                out = io.StringIO()
                homotopy.write_report(r, "interchange", out)
                assert out.getvalue() == oracles.interchange(r)


class TestAmbient:
    def test_k0_single_object(self):
        amb = gen.finset_ambient(0)
        assert amb.objects == ("0",)
        assert len(amb.morphisms) == 1

    def test_k1_counts(self):
        amb = gen.finset_ambient(1)
        assert len(amb.objects) == 2
        # sum of n^m over m, n in {0, 1} with 0^0 = 1
        assert len(amb.morphisms) == 3

    def test_k2_fully_validated(self):
        amb = gen.finset_ambient(2)
        assert fincat.validate_category(
            amb.objects,
            [(m.name, m.dom, m.cod) for m in amb.morphisms],
            amb.identity,
            oracles.comp(amb),
        ) == amb

    def test_k4_sampled_associativity(self, seed):
        amb = gen.finset_ambient(4)
        assert len(amb.morphisms) == sum(n**m for m in range(5) for n in range(5))
        rng = random.Random(seed)
        names, table = gen.morphism_names(amb), oracles.comp(amb)
        checked = 0
        while checked < 5000:
            f = rng.choice(names)
            g = rng.choice(names)
            if amb.cod(f) != amb.dom(g):
                continue
            h = rng.choice(names)
            if amb.cod(g) != amb.dom(h):
                continue
            assert table[(table[(f, g)], h)] == table[(f, table[(g, h)])]
            checked += 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            gen.finset_ambient(5)
        with pytest.raises(CapExceeded):
            gen.finset_ambient(-1)


class TestAmbientAnalyze:
    def test_flags_equal_surjective_injective(self):
        from obstructia.errors import SizeCapExceeded

        amb = gen.finset_ambient(3)
        checked = capped = 0
        for f in all_functions(3):
            if not f.dom_set and not f.cod_set:
                continue
            mor, _ = gen.embed_function(f)
            try:
                an = homotopy.analyze_morphism(amb, mor)
            except SizeCapExceeded:
                # pi1 of the slice reads only the reachability preorder of its
                # parallel arrows, which fits the guards for every function here
                capped += 1
                continue
            assert an.split_epi == (f.image() == set(f.cod_set))
            assert an.mono == (len(f.image()) == len(f.dom_set))
            checked += 1
        assert checked == 59 and capped == 0

    def test_missed_elements_pattern(self):
        # the ambient-category route shows the same minimal-obstruction shape
        # as the 13-element example, at the size the table caps allow
        amb = gen.finset_ambient(3)
        f = setcat.FiniteFunction(("0",), ("0", "1", "2"), {"0": "0"})
        mor, yobj = gen.embed_function(f)
        sl = oracles.slice_category(amb, yobj)
        generic = homotopy.pi0(sl.cat, mor)
        fast = setcat.pi0_function(f)
        oracles.pointed_iso(generic.invariant, fast.invariant, gen.ambient_pi0_map(generic))
        assert fast.minimal == {"{1}", "{2}"}


class TestPi1CutAgainstGeneric:
    """pi1 of a function by its kernel-pair theorem against the generic
    walk at the same function, a morphism of the skeleton of sets of at
    most k elements: a pair (h0, h1) that f equalises is a map Y -> K with
    |Y| <= k, its class is its image, and every subset of at most k pairs
    is an image.  So the generic pi1 at f is the fast report cut to the
    subsets of at most k pairs, basepoint kept.  All 60 functions of k = 3
    run on one warm walk memo, so the reflections renamed from it meet an
    oracle that shares no code with them."""

    def test_every_function_of_the_size_3_skeleton(self):
        amb, k = gen.finset_ambient(3), 3
        for f in all_functions(k):
            mor, _ = gen.embed_function(f)
            end = homotopy._end(amb, 1, amb.dom(mor), mor)
            generic = homotopy._pi_at(end, 1)
            bp = generic.invariant.basepoint
            image_of = {bp: "{}"}
            for key, cls in zip(end[0].keys, homotopy._classes(end[0], generic.invariant)):
                h0, h1 = (gen._images(amb.morphisms[h].name) for h in key)
                if cls == bp:
                    assert h0 == h1, (mor, key)
                else:
                    assert image_of.setdefault(cls, homotopy.subset_name(fincat.pair_names(set(zip(h0, h1))))) == image_of[cls]
            fast = setcat.pi1_function(f)
            cut = {e for e in fast.invariant.poset.elements if e.count("(") <= k}
            assert sorted(image_of.values()) == sorted(cut), mor
            assert {(image_of[a], image_of[b]) for a, b in oracles.leq(generic.invariant.poset)} == {
                (a, b) for a, b in oracles.leq(fast.invariant.poset) if a in cut and b in cut}, mor
            assert {image_of[e] for e in generic.minimal} == fast.minimal
            assert generic.trivial == fast.trivial
        assert (fincat._WALKS.reused, fincat._WALKS.fresh) == (51, 9)
