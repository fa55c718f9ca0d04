import io
import os
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gen
import oracles
from obstructia import cli, fincat, homotopy
from obstructia.errors import (
    BadCompositionTyping,
    DanglingReference,
    EngineError,
    MissingIdentity,
    NonAssociative,
    NotAFunctor,
    NotNatural,
    ParseError,
    SizeCapExceeded,
    UnknownObject,
)

LABELS = st.text(alphabet="{}(),[]=>+'\\# ", max_size=3)

WALKING_ARROW = """
obj 0
obj 1
mor id0 : 0 -> 0
mor id1 : 1 -> 1
mor a : 0 -> 1
id 0 = id0
id 1 = id1
comp id0 ; id0 = id0
comp id0 ; a = a
comp a ; id1 = a
comp id1 ; id1 = id1
"""

Z2 = """
obj *
mor e : * -> *
mor s : * -> *
id * = e
comp e ; e = e
comp e ; s = s
comp s ; e = s
comp s ; s = e
"""


PAIR_COLLISION = os.path.join(os.path.dirname(__file__), "..", "fixtures", "pair_collision.cat")
Z2_CAT = os.path.join(os.path.dirname(__file__), "..", "fixtures", "z2.cat")


@pytest.fixture
def wa():
    return fincat.parse_category(WALKING_ARROW)


@pytest.fixture
def z2():
    return fincat.parse_category(Z2)


def terminal_cat():
    return fincat.validate_category(
        ["*"], [("id", "*", "*")], {"*": "id"}, {("id", "id"): "id"}
    )


def discrete2():
    return fincat.validate_category(
        ["x", "y"],
        [("idx", "x", "x"), ("idy", "y", "y")],
        {"x": "idx", "y": "idy"},
        {("idx", "idx"): "idx", ("idy", "idy"): "idy"},
    )


def indexed(c):
    """The one table of c and its one index: the rows, the position of each
    morphism, and the positions into each object."""
    return c.index, c.rows, c.into


class TestValidation:
    def test_walking_arrow_accepted(self, wa):
        assert wa.objects == ("0", "1")
        assert len(wa.morphisms) == 3

    def test_z2_accepted(self, z2):
        assert len(z2.morphisms) == 2
        assert oracles.comp(z2)[("s", "s")] == "e"

    def test_broken_identity_law_names_witness(self):
        # comp(a, id1) lands on the parallel arrow b, well-typed but wrong
        with pytest.raises(MissingIdentity) as exc:
            fincat.validate_category(
                ["0", "1"],
                [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1"), ("b", "0", "1")],
                {"0": "id0", "1": "id1"},
                {
                    ("id0", "id0"): "id0",
                    ("id0", "a"): "a",
                    ("id0", "b"): "b",
                    ("a", "id1"): "b",
                    ("b", "id1"): "b",
                    ("id1", "id1"): "id1",
                },
            )
        assert exc.value.witness == "a"

    def test_missing_composite_entry(self):
        with pytest.raises(BadCompositionTyping) as exc:
            fincat.validate_category(
                ["0"],
                [("id0", "0", "0"), ("m", "0", "0")],
                {"0": "id0"},
                {("id0", "id0"): "id0", ("id0", "m"): "m", ("m", "id0"): "m"},
            )
        assert "('m', 'm')" in str(exc.value)

    def test_non_composable_entry_rejected(self):
        with pytest.raises(BadCompositionTyping):
            fincat.validate_category(
                ["0", "1"],
                [("id0", "0", "0"), ("id1", "1", "1")],
                {"0": "id0", "1": "id1"},
                {("id0", "id0"): "id0", ("id1", "id1"): "id1", ("id0", "id1"): "id0"},
            )

    def test_dangling_reference(self):
        with pytest.raises(DanglingReference):
            fincat.validate_category(
                ["0"], [("id0", "0", "0"), ("f", "0", "9")], {"0": "id0"}, {}
            )

    def test_non_associative_witness(self):
        # corrupted Z/3 table: comp(a, a) = a breaks (a, a, b)
        with pytest.raises(NonAssociative):
            fincat.validate_category(
                ["*"],
                [("e", "*", "*"), ("a", "*", "*"), ("b", "*", "*")],
                {"*": "e"},
                {
                    ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                    ("a", "e"): "a", ("a", "a"): "a", ("a", "b"): "e",
                    ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "a",
                },
            )

    def test_missing_identity_declaration(self):
        with pytest.raises(MissingIdentity):
            fincat.validate_category(["0"], [("f", "0", "0")], {}, {("f", "f"): "f"})

    def test_tables_are_read_only(self, z2):
        with pytest.raises(TypeError):
            z2.identity["*"] = "s"
        with pytest.raises(TypeError):
            z2.rows[0] = {}


class TestLightsTest:
    def test_cyclic_group_needs_one_generator(self, monkeypatch):
        gens, triples = [], []
        generators, squares = fincat._generators, fincat._squares

        def counted(*args):
            for left, right in squares(*args):
                triples.append(len(left))
                yield left, right

        monkeypatch.setattr(fincat, "_generators", lambda *args: gens.append(generators(*args)) or gens[-1])
        monkeypatch.setattr(fincat, "_squares", counted)
        c = gen.cyclic_group_category(20)
        assert [{c.morphisms[g].name for g in found} for found in gens] == [{"g1"}]
        assert sum(triples) == 20 * 20  # the scan over every middle takes 20^3

    def test_witness_is_the_first_of_the_full_scan(self):
        # Z/4 with g3;g1 = g1: the first failing triple with the generator g1
        # in the middle is (g2, g1, g1), the scan over every middle meets
        # (g1, g2, g1) first
        c = gen.cyclic_group_category(4)
        comp = dict(oracles.comp(c))
        comp[("g3", "g1")] = "g1"
        with pytest.raises(NonAssociative, match=r"\('g1', 'g2', 'g1'\)"):
            fincat.validate_category(c.objects, [(m.name, m.dom, m.cod) for m in c.morphisms], c.identity, comp)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_corrupted_entry_fails_as_the_oracle_says(self, seed, data):
        # one entry points at another morphism of the same hom-set; entries
        # with no identity in them break associativity rather than an
        # identity law, so half the draws take only those
        c = gen.random_category(random.Random(seed))
        table = oracles.comp(c)
        entries = [(key, h) for key, h in sorted(table.items()) if len(c.hom(c.dom(h), c.cod(h))) > 1]
        if data.draw(st.booleans()):
            entries = [(key, h) for key, h in entries if not set(key) & set(c.identity.values())]
        assume(entries)
        key, h = data.draw(st.sampled_from(entries))
        comp = dict(table)
        comp[key] = data.draw(st.sampled_from([m for m in c.hom(c.dom(h), c.cod(h)) if m != h]))
        decls = data.draw(st.permutations([(m.name, m.dom, m.cod) for m in c.morphisms]))
        expected = oracles.law_failure(decls, c.identity, comp)
        if expected is None:
            fincat.validate_category(c.objects, decls, c.identity, comp)
        else:
            with pytest.raises(type(expected)) as exc:
                fincat.validate_category(c.objects, decls, c.identity, comp)
            assert str(exc.value) == str(expected)


# One corruption of a generated category per kind of law failure, and none.
CORRUPTIONS = (
    "none", "duplicate object", "duplicate morphism", "unknown domain", "unknown codomain",
    "identity of unknown object", "identity is unknown morphism", "no identity", "identity elsewhere",
    "entry uses unknown morphism", "unknown composite", "not composable",
    "not composable, well typed", "mistyped composite",
    "composite mistyped at one end", "missing composite", "identity law", "associativity",
)


def corrupt(c, kind, data):
    """Tables of c with its declarations permuted and one corruption of the
    given kind, as (objects, morphisms, identity, comp)."""
    draw = data.draw

    def pick(items):
        assume(items)
        return draw(st.sampled_from(items))

    objects = list(draw(st.permutations(c.objects)))
    decls = list(draw(st.permutations([(m.name, m.dom, m.cod) for m in c.morphisms])))
    identity = dict(draw(st.permutations(sorted(c.identity.items()))))
    table = oracles.comp(c)
    comp = dict(draw(st.permutations(sorted(table.items()))))
    names = [m.name for m in c.morphisms]
    entries = sorted(table.items())
    if kind == "duplicate object":
        objects.insert(draw(st.integers(0, len(objects))), pick(c.objects))
    elif kind == "duplicate morphism":
        decls.insert(draw(st.integers(0, len(decls))), pick(decls))
    elif kind in ("unknown domain", "unknown codomain"):
        i = draw(st.integers(0, len(decls) - 1))
        name, d, e = decls[i]
        decls[i] = (name, "?", e) if kind == "unknown domain" else (name, d, "?")
    elif kind == "identity of unknown object":
        identity["?"] = pick(names)
    elif kind == "identity is unknown morphism":
        identity[pick(c.objects)] = "?"
    elif kind == "no identity":
        del identity[pick(c.objects)]
    elif kind == "identity elsewhere":
        x = pick(c.objects)
        identity[x] = pick([m for m in names if m != c.identity[x]])
    elif kind == "entry uses unknown morphism":
        (f, g), h = pick(entries)
        comp[pick([("?", g), (f, "?")])] = h
    elif kind == "unknown composite":
        comp[pick(sorted(table))] = "?"
    elif kind == "not composable":
        comp[pick([(f, g) for f in names for g in names if c.cod(f) != c.dom(g)])] = names[0]
    elif kind == "not composable, well typed":
        # a composite that would be well typed if the pair were composable
        f, g = pick([(f, g) for f in names for g in names if c.cod(f) != c.dom(g)])
        comp[f, g] = c.hom(c.dom(f), c.cod(g))[0] if c.hom(c.dom(f), c.cod(g)) else names[0]
    elif kind == "mistyped composite":
        (f, g), h = pick(entries)
        comp[f, g] = pick([m for m in names if m not in c.hom(c.dom(h), c.cod(h))])
    elif kind == "composite mistyped at one end":
        (f, g), h = pick(entries)
        comp[f, g] = pick([m for m in names if (c.dom(m) == c.dom(h)) != (c.cod(m) == c.cod(h))])
    elif kind == "missing composite":
        del comp[pick(sorted(table))]
    elif kind in ("identity law", "associativity"):
        # another morphism of the composite's hom-set; an entry with an
        # identity in it breaks an identity law, one without associativity
        ids = set(c.identity.values())
        (f, g), h = pick([(key, h) for key, h in entries if len(c.hom(c.dom(h), c.cod(h))) > 1
                          and bool(set(key) & ids) == (kind == "identity law")])
        comp[f, g] = pick([m for m in c.hom(c.dom(h), c.cod(h)) if m != h])
    return objects, decls, identity, comp


def cat_text(objects, morphisms, identity, comp, data):
    """The tables as ``.cat`` text.  The obj, mor and id lines come first and
    the comp lines after them in a drawn order, or, one time in four, all
    lines are shuffled, so that comp lines come before or among the others.
    Then comments, blank lines, CRLF endings and, one time in four, a
    line-level fault (a repeated comp entry or identity, or a line that
    does not parse) are drawn in."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    lines = [f"obj {x}" for x in objects] + [f"mor {m} : {d} -> {e}" for m, d, e in morphisms]
    lines += [f"id {x} = {i}" for x, i in identity.items()]
    tail = [f"comp {f} ; {g} = {h}" for (f, g), h in comp.items()]
    rng.shuffle(tail)
    lines += tail
    if rng.random() < 0.25:
        rng.shuffle(lines)
    fault = rng.choice(["comp", "id", "unparsed"]) if rng.random() < 0.25 else None
    if fault == "comp" and comp:
        (f, g), h = rng.choice(sorted(comp.items()))
        lines.insert(rng.randint(0, len(lines)), f"comp {f} ; {g} = {rng.choice([h, *comp.values()])}")
    elif fault == "id" and identity:
        x, i = rng.choice(sorted(identity.items()))
        lines.insert(rng.randint(0, len(lines)), f"id {x} = {i}")
    elif fault == "unparsed":
        lines.insert(rng.randint(0, len(lines)), rng.choice(["objekt x", "comp a ; b = c d", "mor a : x y"]))
    dressed = []
    for line in lines:
        if rng.random() < 0.1:
            dressed.append(rng.choice(["", "   ", "# a comment", "\t# indented"]))
        dressed.append(line + rng.choice(["", "", "", "  # trailing", "\t"]))
    return rng.choice(["\n", "\r\n"]).join(dressed) + "\n"


class TestIntValidator:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(CORRUPTIONS), st.data())
    def test_agrees_with_the_name_keyed_oracle(self, seed, kind, data):
        c = gen.random_category(random.Random(seed), max_objects=4, max_morphisms=15)
        tables = corrupt(c, kind, data)
        try:
            expected = oracles.validate_category(*tables)
        except EngineError as exc:
            with pytest.raises(EngineError) as got:
                fincat.validate_category(*tables)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        else:
            got = fincat.validate_category(*tables)
            assert got == expected
            assert indexed(got) == indexed(expected)  # the oracle's are built from comp

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(CORRUPTIONS), st.data())
    def test_parse_agrees_with_the_line_loop_oracle(self, seed, kind, data):
        """The tables written as a file, in a drawn line order and dress: the
        parser gives what the name-keyed line loop and validator give."""
        c = gen.random_category(random.Random(seed), max_objects=4, max_morphisms=15)
        text = cat_text(*corrupt(c, kind, data), data)
        try:
            expected = oracles.parse_category(text)
        except EngineError as exc:
            with pytest.raises(EngineError) as got:
                fincat.parse_category(text)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        else:
            got = fincat.parse_category(text)
            assert got == expected
            assert indexed(got) == indexed(expected)
            assert dict(oracles.comp(got)) == dict(oracles.comp(expected))

    def test_parsed_rows_are_the_rows_built_from_comp(self, wa, z2, seed):
        rng = random.Random(seed + 5)
        cats = [wa, z2, terminal_cat(), discrete2(), gen.cyclic_group_category(6)]
        cats += [gen.random_category(rng) for _ in range(20)]
        for c in cats:
            parsed = fincat.parse_category(gen.serialize_category(c))
            twice = gen.opposite(gen.opposite(c))
            assert indexed(parsed) == indexed(twice)


class TestTextFormat:
    def test_round_trip(self, wa, z2):
        for c in (wa, z2, terminal_cat(), discrete2()):
            assert fincat.parse_category(gen.serialize_category(c)) == c

    def test_unreadable_id_refused(self):
        # written as "obj  x", it would read back as a category on ('x',)
        c = fincat.validate_category([" x"], [("i", " x", " x")], {" x": "i"}, {("i", "i"): "i"})
        with pytest.raises(ParseError, match="^object ' x' would not read back from a .cat line$"):
            gen.serialize_category(c)
        c = fincat.validate_category(["x"], [("i#", "x", "x")], {"x": "i#"}, {("i#", "i#"): "i#"})
        with pytest.raises(ParseError, match="^morphism 'i#' would not read back"):
            gen.serialize_category(c)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(LABELS, min_size=2, max_size=2, unique=True),
        st.lists(LABELS, min_size=3, max_size=3, unique=True),
    )
    @example(objects=[" x", "y"], morphisms=["i", "j", "f"])
    @example(objects=["x", "a\tb"], morphisms=["i", "j", "f"])
    @example(objects=["x", "y"], morphisms=["i", "", "f"])
    @example(objects=["x", "y"], morphisms=["i", "j", "f#"])
    def test_round_trip_or_refusal(self, objects, morphisms):
        """A walking arrow with ids drawn over the characters the format and
        its neighbours give a meaning to: either refused, naming the id, or
        read back as it was written."""
        (x, y), (i, j, f) = objects, morphisms
        comp = {(i, i): i, (j, j): j, (i, f): f, (f, j): f}
        c = fincat.validate_category([x, y], [(i, x, x), (j, y, y), (f, x, y)], {x: i, y: j}, comp)
        try:
            text = gen.serialize_category(c)
        except ParseError as exc:
            assert any(repr(t) in str(exc) for t in (*objects, *morphisms))
            return
        assert fincat.parse_category(text) == c

    @pytest.mark.parametrize("text", [
        Z2.replace("\n", "\r\n"),
        Z2.replace(" ", "\t"),
        Z2.replace("comp s ; s = e", "comp s ; s = e  # s is an involution"),
    ], ids=["crlf", "tabs", "trailing comment"])
    def test_line_endings_whitespace_and_comments(self, text, z2):
        assert fincat.parse_category(text) == z2

    def test_comment_only_file_is_the_empty_category(self):
        c = fincat.parse_category("# nothing here\n   # indented\n\n")
        assert (c.objects, c.morphisms, dict(oracles.comp(c))) == ((), (), {})

    @pytest.mark.parametrize("text, message", [
        # str.splitlines ends a line at \x0b and \x0c too
        (Z2.replace("comp s ; s = e", "comp s ;\x0bs = e"), "line 9: cannot parse 'comp s ;'"),
        (Z2.replace("mor s : * -> *", "mor s : *\x0c-> *"), "line 4: cannot parse 'mor s : *'"),
        (Z2.replace("comp s ; s = e", "comp s ; s = e e"), "line 9: cannot parse 'comp s ; s = e e'"),
    ], ids=["vertical tab", "form feed", "seven tokens"])
    def test_refused_lines(self, text, message):
        with pytest.raises(ParseError) as exc:
            fincat.parse_category(text)
        assert str(exc.value) == message

    def test_bad_line(self):
        with pytest.raises(ParseError):
            fincat.parse_category("objekt 0")

    def test_duplicate_comp_line(self):
        with pytest.raises(ParseError):
            fincat.parse_category(
                "obj 0\nmor id0 : 0 -> 0\nid 0 = id0\ncomp id0 ; id0 = id0\ncomp id0 ; id0 = id0"
            )

    @pytest.mark.parametrize("order", ["canonical", "comp lines first", "one mor line last", "obj and id lines last"])
    def test_every_line_order_is_read_once(self, order, monkeypatch):
        """The size-3 ambient in four line orders reads as the canonical
        file does, without a second reading by name: the one route that
        names what is wrong with the entries fails here."""
        text = gen.serialize_category(gen.finset_ambient(3))
        canonical = fincat.parse_category(text)
        lines = text.splitlines()
        mor = next(line for line in lines if line.startswith("mor "))
        lines = {
            "canonical": lines,
            "comp lines first": sorted(lines, key=lambda line: not line.startswith("comp ")),
            "one mor line last": [line for line in lines if line != mor] + [mor],
            "obj and id lines last": sorted(lines, key=lambda line: line.startswith(("obj ", "id "))),
        }[order]

        def by_name(*args):
            raise AssertionError("read by name")

        monkeypatch.setattr(fincat, "_refuse", by_name)
        fincat._parse.cache_clear()  # the canonical text would be a memo hit
        got = fincat.parse_category("\n".join(lines) + "\n")
        assert got == canonical
        assert indexed(got) == indexed(canonical)

    @pytest.mark.parametrize("extra, message", [
        ("comp e ; e = e\nobjekt x\n", "line 10: duplicate composition entry ('e', 'e')"),
        ("objekt x\ncomp e ; e = e\n", "line 10: cannot parse 'objekt x'"),
        ("comp e ; e = e\nid * = e\n", "line 10: duplicate composition entry ('e', 'e')"),
        ("id * = e\ncomp e ; e = e\n", "line 10: duplicate identity for '*'"),
        ("obj *\ncomp e ; e = e\n", "line 11: duplicate composition entry ('e', 'e')"),
        ("comp e ; q = e\ncomp e ; e = e\n", "line 11: duplicate composition entry ('e', 'e')"),
    ], ids=["repeated entry, then a bad line", "bad line, then a repeated entry",
            "repeated entry, then a repeated identity", "repeated identity, then a repeated entry",
            "repeated object, then a repeated entry", "unknown morphism, then a repeated entry"])
    def test_the_first_of_two_faults_is_raised(self, extra, message):
        """Z/2 with two faults appended: a line that does not parse or
        repeats a comp entry or an identity is raised at its line, and a
        repeated entry anywhere wins over the declarations and the entries,
        which are checked once every line is read."""
        with open(Z2_CAT, encoding="utf-8") as fh:
            text = fh.read() + extra
        for parse in (fincat.parse_category, oracles.parse_category):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("text", [
        Z2 + "obj y\nmor i : y -> y\nid y = i\ncomp i ; i = i\n",
        Z2 + "mor t : * -> *\n",
        Z2 + "obj y\n",
        Z2 + "id y = e\n",
        Z2.replace("id * = e\n", "") + "id * = e\n",
        "comp e ; e = e\n" + Z2.replace("comp e ; e = e\n", ""),
        WALKING_ARROW + "comp a ; a = a\n",
        WALKING_ARROW.replace("comp id1 ; id1 = id1", "comp id1 ; id1 = a"),
    ], ids=["another object", "a morphism without entries", "an object without identity",
            "an identity of no object", "identity last", "comp first", "not composable but well typed",
            "composite from another domain"])
    def test_read_as_the_line_loop_oracle_reads(self, text):
        try:
            expected = oracles.parse_category(text)
        except EngineError as exc:
            with pytest.raises(type(exc)) as got:
                fincat.parse_category(text)
            assert str(got.value) == str(exc)
        else:
            assert fincat.parse_category(text) == expected


class TestParseMemo:
    """Each distinct text is read once while it stays among the last
    ``_PARSE_MEMO`` texts read; what a command prints does not depend on it."""

    @staticmethod
    def run(argv, capsys):
        out = io.StringIO()
        code = cli.run(argv, out)
        return code, out.getvalue(), capsys.readouterr().err

    @staticmethod
    def written(tmp_path, c):
        path = tmp_path / "c.cat"
        path.write_text(gen.serialize_category(c), encoding="utf-8")
        return str(path), path.read_text(encoding="utf-8")

    def test_every_op_on_one_file_interns_it_once(self, tmp_path, capsys, monkeypatch):
        c = gen.finset_ambient(3)
        path, _ = self.written(tmp_path, c)
        ops = [["cat", "analyze", path, "--morphism", m.name] for m in c.morphisms]
        ops += [["cat", f"pi{i}", path, "--object", x] for x in c.objects for i in (0, 1)]
        assert len(ops) == 68
        cold = []
        for argv in ops:
            fincat._parse.cache_clear()
            cold.append(self.run(argv, capsys))
        fincat._parse.cache_clear()
        validated, validate = [], fincat.validate_category
        monkeypatch.setattr(fincat, "validate_category", lambda *args: validated.append(args) or validate(*args))
        for argv, expected in zip(ops, cold):
            assert self.run(argv, capsys) == expected, argv
        assert len(validated) == 1

    @pytest.mark.parametrize("text", [
        "objekt 0",
        Z2 + "comp e ; e = e\n",
        Z2.replace("comp e ; s = s", "comp e ; s = e"),
        Z2 + "obj y\n",
    ], ids=["a line that does not parse", "a repeated entry", "a broken law", "an object without identity"])
    def test_a_refused_text_is_never_kept(self, text):
        fincat.parse_category(Z2)
        kept = fincat._parse.cache_info().currsize
        raised = []
        for _ in range(2):
            with pytest.raises(EngineError) as exc:
                fincat.parse_category(text)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]
        assert fincat._parse.cache_info().currsize == kept

    @pytest.mark.parametrize("c", [gen.finset_ambient(3), gen.cyclic_group_category(12)], ids=["ambient", "Z/12"])
    def test_no_command_writes_into_a_kept_category(self, c, tmp_path, capsys):
        path, text = self.written(tmp_path, c)
        kept = fincat.parse_category(text)
        formats = [[], ["--format", "dot"], ["--format", "interchange"]]
        ops = [["cat", "validate", path]]
        ops += [["cat", "check-terminal", path, "--object", x] for x in c.objects]
        ops += [["cat", f"pi{i}", path, "--object", x, *fmt] for x in c.objects for i in (0, 1) for fmt in formats]
        ops += [["cat", "analyze", path, "--morphism", m.name, *fmt] for m in c.morphisms for fmt in formats]
        for argv in ops:
            self.run(argv, capsys)
        assert fincat.parse_category(text) is kept
        fresh = fincat._parse.__wrapped__(text)
        assert kept == fresh  # objects, morphisms, identity and rows
        assert indexed(kept) == indexed(fresh)

    def test_never_more_texts_than_the_bound(self):
        texts = [gen.serialize_category(gen.cyclic_group_category(n)) for n in range(1, fincat._PARSE_MEMO + 3)]
        for text in texts:
            fincat.parse_category(text)
            info = fincat._parse.cache_info()
            assert info.currsize <= info.maxsize == fincat._PARSE_MEMO
        assert info.currsize == fincat._PARSE_MEMO
        fincat.parse_category(texts[-1])
        assert fincat._parse.cache_info().hits == info.hits + 1
        fincat.parse_category(texts[0])  # dropped: read again
        assert fincat._parse.cache_info().misses == info.misses + 1


class TestOpposite:
    def test_walking_arrow_reversed(self, wa):
        op = gen.opposite(wa)
        assert op.dom("a") == "1" and op.cod("a") == "0"

    def test_z2_self_dual(self, z2):
        assert gen.opposite(z2) == z2

    def test_discrete_fixed(self):
        d = discrete2()
        assert gen.opposite(d) == d

    def test_involution_random(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            c = gen.random_category(rng)
            assert gen.opposite(gen.opposite(c)) == c

    def test_transposed_rows_are_the_rows_of_the_reversed_table(self, wa, seed):
        rng = random.Random(seed + 7)
        for c in [wa, gen.cyclic_group_category(5), *(gen.random_category(rng) for _ in range(20))]:
            op = gen.opposite(c)
            reversed_table = {(g, f): h for (f, g), h in oracles.comp(c).items()}
            built = oracles.build(op.objects, [(m.name, m.dom, m.cod) for m in op.morphisms], op.identity, reversed_table)
            assert op.rows == built.rows
            assert dict(oracles.comp(op)) == reversed_table


class TestRowsAreTheTable:
    def test_classify_path_never_builds_the_name_table(self):
        c = fincat.parse_category(gen.serialize_category(gen.finset_ambient(3)))
        for m in c.morphisms:
            homotopy.analyze_morphism(c, m.name)
        for x in c.objects:
            homotopy.pi0(c, x)
            homotopy.pi1(c, x)
        # the one table and the one index as fields, and the one cached property
        assert {*c._fields, *vars(c)} == {"objects", "morphisms", "identity", "rows", "index", "into", "split_epis"}
        assert oracles.comp(c)[("1>2:0", "2>1:00")] == "1>1:0"


class TestSlice:
    def test_walking_arrow_over_1(self, wa):
        sl = oracles.slice_category(wa, "1")
        assert set(sl.cat.objects) == {"a", "id1"}
        non_id = [m for m in sl.cat.morphisms if m.name not in sl.cat.identity.values()]
        assert len(non_id) == 1
        assert non_id[0].dom == "a" and non_id[0].cod == "id1"

    def test_no_incoming_gives_one_object(self, wa):
        sl = oracles.slice_category(wa, "0")
        assert sl.cat.objects == ("id0",)

    def test_z2_slice_full_enumeration(self, z2):
        # oracle: count factorizations h with h;g = f over all pairs
        sl = oracles.slice_category(z2, "*")
        assert set(sl.cat.objects) == {"e", "s"}
        for f in ("e", "s"):
            for g in ("e", "s"):
                expected = sum(1 for h in ("e", "s") if oracles.comp(z2)[(h, g)] == f)
                got = len(sl.cat.hom(f, g))
                assert got == expected == 1

    def test_unknown_object(self, wa):
        with pytest.raises(UnknownObject):
            oracles.slice_category(wa, "missing")

    def test_projection_is_valid_functor_and_fibers_partition(self, seed):
        rng = random.Random(seed + 1)
        for _ in range(10):
            c = gen.random_category(rng, max_objects=4, max_morphisms=15)
            x = rng.choice(c.objects)
            sl = oracles.slice_category(c, x)
            # re-validate the projection from its raw tables
            fincat.validate_functor(
                sl.cat, c, sl.projection.obj_map, sl.projection.mor_map
            )
            fibers = {}
            for obj, img in sl.projection.obj_map.items():
                fibers.setdefault(img, set()).add(obj)
            assert sum(len(v) for v in fibers.values()) == len(sl.cat.objects)

    def test_derived_tables_revalidate(self, seed):
        rng = random.Random(seed + 2)
        for _ in range(6):
            c = gen.random_category(rng, max_objects=3, max_morphisms=10)
            x = rng.choice(c.objects)
            sl = oracles.slice_category(c, x)
            fincat.validate_category(
                sl.cat.objects,
                [(m.name, m.dom, m.cod) for m in sl.cat.morphisms],
                sl.cat.identity,
                oracles.comp(sl.cat),
            )


class TestParallelArrows:
    def test_terminal(self):
        pa = oracles.parallel_arrows(terminal_cat(), "*")
        assert pa.cat.objects == ("(id,id)",)
        assert len(pa.cat.morphisms) == 1

    def test_walking_arrow(self, wa):
        pa = oracles.parallel_arrows(wa, "1")
        assert set(pa.cat.objects) == {"(a,a)", "(id1,id1)"}
        # exactly one morphism (a,a) -> (id1,id1): the one witnessed by a
        assert len(pa.cat.hom("(a,a)", "(id1,id1)")) == 1

    def test_object_count_formula(self, seed):
        rng = random.Random(seed + 3)
        for _ in range(10):
            c = gen.random_category(rng, max_objects=4, max_morphisms=15)
            x = rng.choice(c.objects)
            pa = oracles.parallel_arrows(c, x)
            expected = sum(len(c.hom(y, x)) ** 2 for y in c.objects)
            assert len(pa.cat.objects) == expected

    def test_projection_valid_and_tables_revalidate(self, z2):
        pa = oracles.parallel_arrows(z2, "*")
        fincat.validate_functor(pa.cat, z2, pa.projection.obj_map, pa.projection.mor_map)
        fincat.validate_category(
            pa.cat.objects,
            [(m.name, m.dom, m.cod) for m in pa.cat.morphisms],
            pa.cat.identity,
            oracles.comp(pa.cat),
        )

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded) as exc:
            oracles.parallel_arrows(gen.cyclic_group_category(142), "*")
        assert str(exc.value) == "parallel arrows over '*' objects: projected 20164 exceeds cap 20000"

    def test_pairs_that_render_alike_stay_distinct(self):
        # (p,q ; r) and (p ; q,r) both render as (p,q,r)
        with open(PAIR_COLLISION, encoding="utf-8") as fh:
            c = fincat.parse_category(fh.read())
        pa = oracles.parallel_arrows(c, "x")
        over_y = [p for p in pa.cat.objects if pa.projection.obj_map[p] == "y"]
        assert len(set(over_y)) == len(over_y) == 16
        assert len(set(pa.cat.objects)) == 17
        assert sorted(pa.elements.values()) == sorted(
            (f0, f1) for y in c.objects for f0 in c.hom(y, "x") for f1 in c.hom(y, "x")
        )


# One way to break a map between categories per check of validate_functor,
# a map whose every morphism goes into the hom-set its ends ask for, and none.
MAP_BREAKS = (
    "none", "object unmapped", "unknown image object", "morphism unmapped", "unknown image morphism",
    "mistyped", "identity not kept", "another of its hom-set", "typed anywhere", "stray object", "stray morphism",
)


def break_map(c, d, om, mm, kind, draw):
    """The object and morphism maps om and mm of a functor c -> d, broken
    in the given way."""

    def pick(items):
        items = list(items)
        assume(items)
        return draw(st.sampled_from(items))

    names = gen.morphism_names(c)
    if kind == "object unmapped":
        del om[pick(c.objects)]
    elif kind == "unknown image object":
        om[pick(c.objects)] = "?"
    elif kind == "morphism unmapped":
        del mm[pick(names)]
    elif kind == "unknown image morphism":
        mm[pick(names)] = "?"
    elif kind == "mistyped":
        m = pick(names)
        mm[m] = pick(n for n in gen.morphism_names(d) if (d.dom(n), d.cod(n)) != (d.dom(mm[m]), d.cod(mm[m])))
    elif kind == "identity not kept":
        x = pick(c.objects)
        mm[c.id_of(x)] = pick(n for n in d.hom(om[x], om[x]) if n != d.id_of(om[x]))
    elif kind == "another of its hom-set":
        m = pick(names)
        mm[m] = pick(n for n in d.hom(d.dom(mm[m]), d.cod(mm[m])) if n != mm[m])
    elif kind == "stray object":
        om[pick(["?", *(y for y in d.objects if not c.has_object(y))])] = pick(d.objects)
    elif kind == "stray morphism":
        mm[pick(["?", *(n for n in gen.morphism_names(d) if not c.has_morphism(n))])] = pick(gen.morphism_names(d))
    elif kind == "typed anywhere":
        # objects anywhere, identities kept, and every other morphism into
        # the hom-set its ends ask for, so composition is what is tested
        om = {x: pick(d.objects) for x in c.objects}
        ids = {c.id_of(x): d.id_of(om[x]) for x in c.objects}
        mm = {m.name: ids.get(m.name) or pick(d.hom(om[m.dom], om[m.cod]) or gen.morphism_names(d)) for m in c.morphisms}
    return om, mm


class TestFunctors:
    def test_identity_accepted(self, wa):
        f = fincat.identity_functor(wa)
        fincat.validate_functor(wa, wa, f.obj_map, f.mor_map)

    def test_constant_accepted(self, wa):
        fincat.validate_functor(
            wa, wa, {"0": "1", "1": "1"}, {"id0": "id1", "id1": "id1", "a": "id1"}
        )

    def test_not_a_functor_witness(self, wa):
        with pytest.raises(NotAFunctor):
            fincat.validate_functor(
                wa, wa, {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1", "a": "id0"}
            )

    def test_broken_naturality_square_names_witness(self, wa):
        ident = fincat.identity_functor(wa)
        const1 = fincat.validate_functor(
            wa, wa, {"0": "1", "1": "1"}, {"id0": "id1", "id1": "id1", "a": "id1"}
        )
        # components must satisfy a ; alpha_1 = alpha_0 ; id1; alpha_0 = id... pick
        # the family that breaks the square at a
        with pytest.raises(NotNatural) as exc:
            fincat.validate_nat_trans(ident, ident, {"0": "id0", "1": "a"})
        assert exc.value.witness in ("1", "a")
        good = fincat.validate_nat_trans(ident, const1, {"0": "a", "1": "id1"})
        assert good.components["0"] == "a"

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_naturality_refuses_a_functor_off_its_target(self, side):
        # a FunctorData built without validate_functor may map a morphism
        # outside its target or leave one unmapped
        z2 = gen.cyclic_group_category(2)
        ident = fincat.identity_functor(z2)
        for mor_map, detail in (({"e": "e", "g1": "nosuch"}, "image morphism 'nosuch' not in target"),
                                ({"e": "e"}, "morphism not mapped")):
            broken = fincat.FunctorData(z2, z2, {"*": "*"}, mor_map)
            ends = (broken, ident) if side == "source" else (ident, broken)
            with pytest.raises(NotAFunctor) as exc:
                fincat.validate_nat_trans(*ends, {"*": "e"})
            with pytest.raises(NotAFunctor) as want:
                fincat.validate_functor(z2, z2, broken.obj_map, broken.mor_map)
            assert (exc.value.witness, str(exc.value)) == (want.value.witness, str(want.value))
            assert str(exc.value) == f"not a functor at 'g1': {detail}"

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_composition_refuses_an_unchecked_functor(self, side):
        # built without validate_functor, a stray image reached the composite
        # as a bare KeyError, or was composed without a word
        z2 = gen.cyclic_group_category(2)
        ident = fincat.identity_functor(z2)
        for mor_map, detail in (({"e": "e", "g1": "nosuch"}, "image morphism 'nosuch' not in target"),
                                ({"e": "e"}, "morphism not mapped")):
            broken = fincat.FunctorData(z2, z2, {"*": "*"}, mor_map)
            with pytest.raises(NotAFunctor) as exc:
                fincat.compose_functors(*((broken, ident) if side == "first" else (ident, broken)))
            assert str(exc.value) == f"not a functor at 'g1': {detail}"

    @pytest.mark.parametrize("obj_map, mor_map, witness, detail", [
        ({"*": "*", "zz": "nosuch"}, {"e": "e", "g1": "g1"}, "zz", "not an object of the source"),
        ({"*": "*"}, {"e": "e", "g1": "g1", "ghost": "nosuch"}, "ghost", "not a morphism of the source"),
    ], ids=["object", "morphism"])
    def test_a_name_outside_the_source_is_refused(self, obj_map, mor_map, witness, detail):
        # kept, a stray entry would reach compose_functors as a KeyError
        z2 = gen.cyclic_group_category(2)
        for check in (fincat.validate_functor, oracles.validate_functor):
            with pytest.raises(NotAFunctor) as exc:
                check(z2, z2, obj_map, mor_map)
            assert (exc.value.witness, str(exc.value)) == (witness, f"not a functor at {witness!r}: {detail}")

    def test_witness_is_the_first_in_row_order(self):
        # Z/12's row of g1 lists e, g1, .., g11 as declared, not by name:
        # moving g10 fails there first at (g9, g1), where a walk by name
        # would meet (g10, g1)
        c = gen.cyclic_group_category(12)
        mm = {m: m for m in gen.morphism_names(c)} | {"g10": "g3"}
        for check in (fincat.validate_functor, oracles.validate_functor):
            with pytest.raises(NotAFunctor) as exc:
                check(c, c, {"*": "*"}, mm)
            assert exc.value.witness == ("g9", "g1")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(MAP_BREAKS), st.data())
    def test_agrees_with_the_name_keyed_oracle(self, seed, kind, data):
        """A drawn functor, or a map broken at one of the checks, is refused
        with the witness the check by name gives, or accepted by both.  Half
        the draws start from the identity functor of a category with large
        hom-sets, where a moved morphism is likely to break composition."""
        if data.draw(st.booleans()):
            f = gen.random_functor(random.Random(seed))
        else:
            rich = [*iso_rich_categories().values(), gen.cyclic_group_category(12)]  # Z/12 rows not in name order
            f = fincat.identity_functor(data.draw(st.sampled_from(rich)))
        c, d = f.source, f.target
        om, mm = break_map(c, d, dict(f.obj_map), dict(f.mor_map), kind, data.draw)
        try:
            expected = oracles.validate_functor(c, d, om, mm)
        except NotAFunctor as exc:
            with pytest.raises(NotAFunctor) as got:
                fincat.validate_functor(c, d, om, mm)
            assert (got.value.witness, str(got.value)) == (exc.witness, str(exc))
        else:
            assert fincat.validate_functor(c, d, om, mm) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["none", "missing", "unknown", "mistyped", "typed"]),
           st.data())
    def test_naturality_agrees_with_the_name_keyed_oracle(self, seed, kind, data):
        """A drawn natural transformation with one component moved: missing,
        unknown, mistyped, or another of its hom-set, which may break a
        square.  Both checks refuse at the same witness, or accept."""
        alpha = gen.random_nat_trans(random.Random(seed))
        F, G = alpha.source, alpha.target
        d, comps = F.target, dict(alpha.components)
        assume(F.source.objects)
        x = data.draw(st.sampled_from(F.source.objects))
        ends = (F.obj_map[x], G.obj_map[x])
        others = {"none": [comps[x]], "unknown": ["?"],
                  "mistyped": [m for m in gen.morphism_names(d) if (d.dom(m), d.cod(m)) != ends],
                  "typed": [m for m in d.hom(*ends) if m != comps[x]]}
        if kind == "missing":
            del comps[x]
        else:
            assume(others[kind])
            comps[x] = data.draw(st.sampled_from(others[kind]))
        try:
            expected = oracles.validate_nat_trans(F, G, comps)
        except NotNatural as exc:
            with pytest.raises(NotNatural) as got:
                fincat.validate_nat_trans(F, G, comps)
            assert (got.value.witness, str(got.value)) == (exc.witness, str(exc))
        else:
            assert fincat.validate_nat_trans(F, G, comps) == expected


class TestGroupoid:
    def test_examples(self, wa, z2):
        assert not fincat.is_groupoid(wa)
        assert fincat.is_groupoid(z2)
        assert fincat.is_groupoid(discrete2())


def iso_rich_categories():
    """Groups, groupoids, finite sets and distinct isomorphic objects, next
    to monoids and a retract whose one-sided inverses are not isos."""
    return {
        "Z/5": gen.cyclic_group_category(5),
        "V4": gen.klein_four_category(),
        "Z/2+Z/3": gen.two_component_groupoid(),
        "Z/2xZ/3": gen.product_category(gen.cyclic_group_category(2), gen.cyclic_group_category(3, "o")),
        "FinSet3": gen.finset_ambient(3),
        "iso": gen.walking_isomorphism(),
        "FinSet2xiso": gen.product_category(gen.finset_ambient(2), gen.walking_isomorphism()),
        "idempotent": gen.idempotent_monoid_category(),
        "flipflop": gen.flipflop_monoid_category(),
        "retract": gen.retraction_category(),
    }


def groupoid_by_search(c):
    return oracles.isos(c) == set(gen.morphism_names(c))


class TestIsos:
    """``is_groupoid`` reads split epis alone, since every morphism is iso
    iff every morphism is split epi; these check it against the search for
    two-sided inverses in ``oracles.isos``."""

    def test_equal_brute_force(self):
        for c in iso_rich_categories().values():
            assert fincat.is_groupoid(c) == groupoid_by_search(c)
            # a free terminal object adds arrows with no way back
            assert not fincat.is_groupoid(gen.add_free_terminal(c))

    def test_known_sets(self):
        cats = iso_rich_categories()
        for name in ("Z/5", "V4", "Z/2+Z/3", "Z/2xZ/3", "iso"):
            assert oracles.isos(cats[name]) == set(gen.morphism_names(cats[name]))
            assert fincat.is_groupoid(cats[name])
        # bijections of 0..3 elements: 0! + 1! + 2! + 3!
        assert len(oracles.isos(cats["FinSet3"])) == 10
        assert not fincat.is_groupoid(cats["FinSet3"])
        assert oracles.isos(cats["FinSet2xiso"]) == {
            f"{p}*{q}" for p in ("0>0:", "1>1:0", "2>2:01", "2>2:10") for q in ("ida", "idb", "f", "g")}
        assert not fincat.is_groupoid(cats["FinSet2xiso"])

    def test_one_sided_inverses_rejected(self):
        cats = iso_rich_categories()
        # p;p = p and p;q = q: no element but e has an inverse on either side
        assert oracles.isos(cats["idempotent"]) == oracles.isos(cats["flipflop"]) == {"e"}
        assert not fincat.is_groupoid(cats["idempotent"]) and not fincat.is_groupoid(cats["flipflop"])
        # s;r = id_a but r;s = e is not id_b: r is split epi, s is not
        retract = cats["retract"]
        table = oracles.comp(retract)
        assert table["s", "r"] == "ida" and table["r", "s"] == "e"
        assert oracles.isos(retract) == {"ida", "idb"}
        assert not fincat.is_groupoid(retract)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_equal_brute_force(self, seed):
        rng = random.Random(seed)
        # random groupoids: a group beside a group times the walking iso
        groupoid = gen.disjoint_union(
            gen.cyclic_group_category(rng.randint(1, 4)),
            gen.product_category(gen.cyclic_group_category(rng.randint(1, 3)), gen.walking_isomorphism()),
        )
        for c in (gen.random_category(rng), groupoid, gen.add_free_initial(groupoid)):
            assert fincat.is_groupoid(c) == groupoid_by_search(c)
        assert fincat.is_groupoid(groupoid)


def reversed_finset(k):
    """finset_ambient(k) with its objects renamed so that their name order
    is the reverse of their size order: the largest set sorts first."""
    c = gen.finset_ambient(k)
    new = {m.name: m.name for m in c.morphisms} | {x: chr(ord("z") - int(x)) for x in c.objects}
    return gen.renamed(c, new)


class TestSplitEpis:
    def test_equal_brute_force(self):
        for c in [*iso_rich_categories().values(), reversed_finset(3)]:
            assert {c.morphisms[i].name for i in c.split_epis} == {
                m.name for m in c.morphisms if oracles.split_epi(c, m.name)}

    def test_known_sets(self):
        retract = gen.retraction_category()
        assert {retract.morphisms[i].name for i in retract.split_epis} == {"ida", "idb", "r"}
        # among finite sets the split epis are the surjections
        finset = gen.finset_ambient(3)
        surjective = {m.name for m in finset.morphisms
                      if set(m.name.split(":")[1]) == {str(i) for i in range(int(m.cod))}}
        assert {finset.morphisms[i].name for i in finset.split_epis} == surjective

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_equal_brute_force(self, seed):
        c = gen.random_category(random.Random(seed))
        assert {c.morphisms[i].name for i in c.split_epis} == {
            m.name for m in c.morphisms if oracles.split_epi(c, m.name)}


def assert_orbit_walk_is_full_walk(c, x):
    """The down-masks of the orbit walk equal those of the walk over every
    arrow, element for element: k = 1, k = 2, and k = 2 over every morphism
    out of x."""
    cases = [(1, None), (2, None)] + [(2, m.name) for m in c.morphisms if m.dom == x]
    for k, over in cases:
        assert fincat._elements_preorder(c, x, k, over) == oracles.elements_down_masks(c, x, k, over)


class TestOrbitWalk:
    def test_iso_rich_categories(self):
        for c in iso_rich_categories().values():
            for x in c.objects:
                assert_orbit_walk_is_full_walk(c, x)

    def test_retracts_in_either_name_order(self):
        # masks are handed along split epis whichever of a retract and the
        # object it is a retract of sorts first by name
        for c in (gen.retraction_category(), reversed_finset(3),
                  gen.product_category(reversed_finset(2), gen.walking_isomorphism())):
            for x in c.objects:
                assert_orbit_walk_is_full_walk(c, x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["plain", "iso", "Z/2"]))
    def test_random_categories(self, seed, twist):
        rng = random.Random(seed)
        if twist == "plain":
            c = gen.random_category(rng)
        else:
            # give every object a distinct isomorphic twin, or an automorphism
            other = gen.walking_isomorphism() if twist == "iso" else gen.cyclic_group_category(2, "o")
            c = gen.product_category(gen.random_category(rng, max_objects=3, max_morphisms=10), other)
        for x in c.objects:
            assert_orbit_walk_is_full_walk(c, x)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_categories_satisfy_all_laws(seed):
    # the generator promises validity; re-check through the validator
    c = gen.random_category(random.Random(seed))
    assert fincat.validate_category(
        c.objects, [(m.name, m.dom, m.cod) for m in c.morphisms], c.identity, oracles.comp(c)
    ) == c
