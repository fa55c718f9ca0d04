import ast
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import obstructia
import gen
import oracles
from obstructia import cli, errors, fincat, opengraph, setcat, states
from obstructia.errors import ParseError

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out)
    return code, out.getvalue()


class TestCat:
    def test_validate(self):
        code, text = run("cat", "validate", fx("walking_arrow.cat"))
        assert code == 0
        assert "2 objects, 3 morphisms" in text

    def test_pi0_trivial(self):
        code, text = run("cat", "pi0", fx("walking_arrow.cat"), "--object", "1")
        assert code == 0
        assert "trivial: yes" in text

    def test_pi0_obstruction(self):
        code, text = run("cat", "pi0", fx("walking_arrow.cat"), "--object", "0")
        assert code == 0
        assert "trivial: no" in text
        assert "minimal obstructions (1): 1" in text

    def test_pi1_z2(self):
        code, text = run("cat", "pi1", fx("z2.cat"), "--object", "*")
        assert code == 0
        assert "elements (2)" in text

    def test_analyze(self):
        code, text = run("cat", "analyze", fx("walking_arrow.cat"), "--morphism", "a")
        assert code == 0
        assert "split-epi: no" in text
        assert "mono: yes" in text

    def test_check_terminal(self):
        code, text = run("cat", "check-terminal", fx("walking_arrow.cat"), "--object", "1")
        assert code == 0
        assert "terminal: yes" in text

    def test_unknown_object_error_code(self, capsys):
        code, _ = run("cat", "pi0", fx("walking_arrow.cat"), "--object", "zz")
        assert code == 1
        assert "UnknownObject" in capsys.readouterr().err

    def test_unknown_morphism_error(self, capsys):
        code, text = run("cat", "analyze", fx("walking_arrow.cat"), "--morphism", "zz")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error UnknownMorphism: no such morphism: 'zz'\n"

    def test_pi1_pairs_that_render_alike_stay_distinct(self):
        code, text = run("cat", "pi1", fx("pair_collision.cat"), "--object", "x")
        assert code == 0
        assert "elements (13)" in text

    def test_cap_objects_zero_is_a_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(fincat, "OBJECTS_CAP", 0)
        code, _ = run("cat", "pi1", fx("z2.cat"), "--object", "*")
        assert code == 1
        assert "SizeCapExceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("pi0", "--object", "*"), ("pi1", "--object", "*"), ("analyze", "--morphism", "s")],
                             ids=["pi0", "pi1", "analyze"])
    def test_cap_objects_is_not_an_option(self, capsys, argv):
        # the object cap is the constant fincat.OBJECTS_CAP, set by no call
        code, text = run("cat", argv[0], fx("z2.cat"), *argv[1:], "--cap-objects", "5")
        assert (code, text) == (2, "")
        assert "unrecognized arguments: --cap-objects 5" in capsys.readouterr().err

    def test_interchange_is_json(self):
        code, text = run(
            "cat", "pi0", fx("walking_arrow.cat"), "--object", "0", "--format", "interchange"
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["version"] == 1 and doc["basepoint"] == "[0]"

    def test_dot_output(self):
        code, text = run("cat", "pi0", fx("walking_arrow.cat"), "--object", "0", "--format", "dot")
        assert code == 0
        assert text.startswith("digraph") and "doublecircle" in text


class TestSet:
    def test_pi0_missing_two(self):
        code, text = run("set", "pi0", "--fn", fx("missing_two.fn"))
        assert code == 0
        assert "elements (13)" in text
        assert "minimal obstructions (2): {2}, {3}" in text

    def test_pi1_fold_pair(self):
        code, text = run("set", "pi1", "--fn", fx("fold_pair.fn"))
        assert code == 0
        assert "elements (13)" in text
        assert "{(0,1)}" in text and "{(1,0)}" in text


class TestPowersetCap:
    """homotopy.POWERSET_CAP alone bounds the powerset reports the CLI prints."""

    @staticmethod
    def fn_file(tmp_path, mapping, cod):
        body = ", ".join(f"{x}=>{y}" for x, y in mapping.items())
        path = tmp_path / "f.fn"
        path.write_text(f"fn f : {{{','.join(mapping)}}} -> {{{','.join(cod)}}} ; {body}\n")
        return str(path)

    @pytest.mark.parametrize("u", [11, 12])
    def test_pi0_up_to_cap(self, tmp_path, u):
        cod = [f"y{j}" for j in range(u)]
        c = u - 2
        code, text = run("set", "pi0", "--fn", self.fn_file(tmp_path, {y: y for y in cod[:c]}, cod))
        assert code == 0
        assert f"elements ({1 + 2**u - 2**c}): " in text

    def test_pi1_twelve_pair_kernel(self, tmp_path):
        # one fibre of two and eight singletons: 4 + 8 = 12 pairs, 10 on the diagonal
        mapping = {"a": "y", "b": "y"} | {f"x{i}": f"y{i}" for i in range(8)}
        code, text = run("set", "pi1", "--fn", self.fn_file(tmp_path, mapping, sorted(set(mapping.values()))))
        assert code == 0
        assert f"elements ({1 + 2**12 - 2**10}): " in text

    def test_past_cap_refused_before_output(self, tmp_path, capsys):
        code, text = run("set", "pi0", "--fn", self.fn_file(tmp_path, {}, [f"y{j}" for j in range(13)]))
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith("error CapExceeded")

    @pytest.mark.parametrize("hub", [False, True])
    def test_obstruct_four_by_four_boundary(self, tmp_path, capsys, hub):
        # Diagonal: input i reaches output i only (4 pairs of 16), served.
        # Hub: every input reaches every output (16 pairs), refused.
        vertex = ["h"] * 4 if hub else ["v0", "v1", "v2", "v3"]

        def graph(name, ins, outs):
            lines = [f"inputs {','.join(ins)}", f"outputs {','.join(outs)}", "vertex " + " ".join(sorted(set(vertex)))]
            lines += [f"in {x} = {v}" for x, v in zip(ins, vertex)]
            lines += [f"out {y} = {v}" for y, v in zip(outs, vertex)]
            path = tmp_path / name
            path.write_text("\n".join(lines) + "\n")
            return str(path)

        code, text = run("opengraph", "obstruct", graph("left.og", "abcd", "mnpq"), graph("right.og", "mnpq", "wxyz"))
        if hub:
            assert (code, text) == (1, "")
            assert capsys.readouterr().err.startswith("error CapExceeded")
        else:
            assert code == 0
            assert "reach of composite: {(a,w),(b,x),(c,y),(d,z)}\n" in text
            assert "elements (1): " in text


class TestOpenGraph:
    def test_reach(self):
        code, text = run("opengraph", "reach", fx("G.og"))
        assert code == 0
        assert "reach: {(1,1)}" in text

    def test_compose_round_trips(self, tmp_path):
        code, text = run("opengraph", "compose", fx("G.og"), fx("H.og"))
        assert code == 0
        g = opengraph.parse_open_graph(text)
        assert len(g.vertices) == 5

    def test_obstruct(self):
        code, text = run("opengraph", "obstruct", fx("G.og"), fx("H.og"))
        assert code == 0
        assert "composite of parts: {}" in text
        assert "minimal obstructions (1): {(1,1)}" in text
        assert "pi1 trivial: yes" in text

    def test_act(self):
        code, text = run(
            "opengraph", "act", fx("G.og"), fx("G_identified.og"), fx("identify_outputs.gh"), fx("H.og")
        )
        assert code == 0
        assert "reach of acted graph: {(1,1),(1,3)}" in text
        assert "trivialised: 1 of 1" in text

    @pytest.mark.parametrize("command", ["compose", "obstruct"])
    def test_boundary_mismatch_code(self, command, capsys):
        code, _ = run("opengraph", command, fx("G.og"), fx("G.og"))
        assert code == 1
        assert "BoundaryMismatch: outputs ['1', '2', '3'] do not match inputs ['1']" in capsys.readouterr().err

    def test_obstruct_nine_pair_composite(self, tmp_path):
        # Three inputs and three outputs through one hub: all 9 pairs reach.
        left = tmp_path / "left.og"
        left.write_text("inputs a,b,c\noutputs m\nvertex h\nin a = h\nin b = h\nin c = h\nout m = h\n")
        right = tmp_path / "right.og"
        right.write_text("inputs m\noutputs x,y,z\nvertex k\nin m = k\nout x = k\nout y = k\nout z = k\n")
        code, text = run("opengraph", "obstruct", str(left), str(right))
        assert code == 0
        pairs = ",".join(f"({x},{z})" for x in "abc" for z in "xyz")
        assert f"reach of composite: {{{pairs}}}\n" in text
        assert text.endswith("pi1 trivial: yes\n")


class TestStates:
    @pytest.mark.parametrize("argv, calls", [
        (("obstruct",), {"laxator": 1, "kernel_pair": 1}),
        (("local-act", "--fmat", "1", "--gmat", "1"), {"laxator": 2, "kernel_pair": 0}),
    ], ids=["obstruct", "local-act"])
    def test_one_laxator_per_command(self, monkeypatch, argv, calls):
        # obstruct prints its totals from the laxator its reports are read
        # off; local-act maps pi0 alone, one laxator at each end
        counted = {"laxator": 0, "kernel_pair": 0}
        for module, name in ((states, "laxator"), (setcat, "kernel_pair")):
            def counting(*args, fn=getattr(module, name), name=name):
                counted[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counting)
        code, _ = run("states", argv[0], "--context", "gf2", "--dims", "1,1", *argv[1:])
        assert (code, counted) == (0, calls)

    def test_obstruct_gf2(self):
        code, text = run("states", "obstruct", "--context", "gf2", "--dims", "2,2")
        assert code == 0
        assert "separable: 10" in text
        assert "minimal obstructions (6)" in text
        assert "minimal obstructions (42)" in text

    def test_obstruct_cartesian(self):
        code, text = run("states", "obstruct", "--context", "cartesian", "--sets", "a,b|c,d")
        assert code == 0
        assert text.count("trivial: yes") == 2

    def test_local_act_rank_one(self):
        code, text = run(
            "states", "local-act", "--context", "gf2", "--dims", "2,2",
            "--fmat", "10,00", "--gmat", "10,01",
        )
        assert code == 0
        assert "trivialised: 6 of 6" in text
        assert "basepoint preserved: yes" in text

    def test_local_act_cartesian(self):
        code, text = run(
            "states", "local-act", "--context", "cartesian", "--sets", "a,b|c",
            "--target-sets", "a|c", "--fmap", "a=>a,b=>a", "--gmap", "c=>c",
        )
        assert code == 0
        assert "trivialised: 0 of 0" in text

    @pytest.mark.parametrize("flags", [
        ("--context", "cartesian", "--sets", "|b", "--target-sets", "|c", "--fmap", "", "--gmap", "b=>c"),
        ("--context", "gf2", "--dims", "0,1", "--fmat", "", "--gmat", "1"),
    ], ids=["cartesian", "gf2"])
    def test_local_act_empty_flag_is_given(self, flags):
        # an empty map or matrix is given, and reads as its blank spelling does
        blank = tuple(" " if f == "" else f for f in flags)
        assert run("states", "local-act", *flags) == run("states", "local-act", *blank)
        assert run("states", "local-act", *flags) == (0, "obstruction flow (0):\ntrivialised: 0 of 0\nbasepoint preserved: yes\n")

    def test_local_act_repeated_source_refused(self, capsys):
        code, text = run(
            "states", "local-act", "--context", "cartesian", "--sets", "a,b|c",
            "--target-sets", "x,y|c", "--fmap", "a=>x,b=>y,a=>y", "--gmap", "c=>c",
        )
        assert (code, text) == (1, "")
        assert "error ParseError: element 'a' assigned twice" in capsys.readouterr().err

    @pytest.mark.parametrize("sets, target_sets, labels", [
        ("a|b", "c,c|d", "('c', 'c')"),
        ("a,a|b", "c|d", "('a', 'a')"),
    ], ids=["target", "source"])
    def test_local_act_repeated_label_refused(self, capsys, sets, target_sets, labels):
        # states obstruct refuses a repeated label; so must the sets of a flow
        code, text = run(
            "states", "local-act", "--context", "cartesian", "--sets", sets,
            "--target-sets", target_sets, "--fmap", "a=>c", "--gmap", "b=>d",
        )
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error ParseError: duplicate element labels in {labels}\n"

    @pytest.mark.parametrize("flag, fmat, gmat", [("--fmat", "10,01", "1"), ("--gmat", "1", "10,01")])
    def test_local_act_matrix_columns_match_dims(self, capsys, flag, fmat, gmat):
        code, text = run(
            "states", "local-act", "--context", "gf2", "--dims", "1,1", "--fmat", fmat, "--gmat", gmat,
        )
        assert (code, text) == (1, "")
        assert f"error ParseError: {flag} has 2 columns, --dims wants 1" in capsys.readouterr().err

    def test_empty_set_item_refused(self, capsys):
        code, text = run("states", "obstruct", "--context", "cartesian", "--sets", "a,,b|c")
        assert (code, text) == (1, "")
        assert "error ParseError: --sets has an empty item in 'a,,b|c'" in capsys.readouterr().err
        code, text = run("states", "obstruct", "--context", "cartesian", "--sets", "a|")
        assert code == 0
        assert "states of tensor: 0" in text

    def test_target_sets_named_in_its_error(self, capsys):
        code, text = run(
            "states", "local-act", "--context", "cartesian", "--sets", "a|b",
            "--target-sets", "c", "--fmap", "a=>c", "--gmap", "b=>d",
        )
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error ParseError: --target-sets wants 'a,b|c,d'\n"

    @pytest.mark.parametrize("flags, message", [
        (("--context", "cartesian", "--sets"), "--sets wants 'a,b|c,d'"),
        (("--context", "gf2", "--dims"), "--dims wants 'm,n'"),
    ], ids=["sets", "dims"])
    def test_empty_objects_flag_is_given(self, capsys, flags, message):
        # an empty --sets or --dims is given, and is refused as its blank spelling is
        for value in ("", " "):
            assert run("states", "obstruct", *flags, value) == (1, "")
            assert capsys.readouterr().err == f"error ParseError: {message}\n"

    def test_missing_args(self, capsys):
        code, _ = run("states", "obstruct", "--context", "gf2")
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=",|() \ta", max_size=10))
    @example("a,,b|c")
    @example(" a , ( |a|b) ")
    @example("|")
    def test_sets_refused_or_read_back(self, text):
        """--sets over its separators, brackets, blanks and empty items:
        either refused, or stripped non-empty labels that read back from
        the context line of their reports."""
        try:
            a, b = cli._parse_sets(text, "--sets")
        except ParseError:
            return
        assert all(x and x == x.strip() for x in a + b)
        line = states.lax_context(states.StateContext("cartesian"), a, b)
        assert line.startswith("sets (") and line.endswith(")")
        assert cli._parse_sets(line[len("sets (") : -1], "--sets") == (a, b)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
CAT_ENGINE = {"obstructia", "obstructia.cli", "obstructia.errors", "obstructia.fincat", "obstructia.homotopy", "obstructia.order"}


# Standard-library modules that no command loads: dataclasses pulls in
# inspect, and with it ast, dis and tokenize, typing is slow to import, and
# argparse loads gettext and, for its help, shutil.
HEAVY = {"argparse", "dataclasses", "inspect", "typing"}


def loaded_after(code):
    """The obstructia modules, and those of HEAVY, that a fresh interpreter
    holds after running code.  It runs with -S, as a site hook may load
    typing on its own (some .pth files do) and so hide an engine import."""
    probe = code + f"\nimport sys\nprint(*(m for m in sys.modules if m.partition('.')[0] in {sorted({'obstructia', *HEAVY})!r}))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stderr) == (0, "")
    return set(proc.stdout.split())


class TestLoadSet:
    """A command loads the engine it runs and no other module."""

    def test_import_loads_no_submodule(self):
        assert loaded_after("import obstructia") == {"obstructia"}

    @pytest.mark.parametrize("argv, adds", [
        (("cat", "validate", fx("z2.cat")), ()),
        (("cat", "analyze", fx("walking_arrow.cat"), "--morphism", "a", "--format", "interchange"), ()),
        (("set", "pi0", "--fn", fx("missing_two.fn")), ("setcat",)),
        (("opengraph", "reach", fx("G.og")), ("opengraph",)),
        (("states", "obstruct", "--context", "gf2", "--dims", "1,1"), ("setcat", "states")),
    ], ids=["cat validate", "cat analyze", "set", "opengraph", "states"])
    def test_a_command_loads_its_engine(self, argv, adds):
        script = f"import io\nfrom obstructia import cli\nassert cli.run({list(argv)!r}, io.StringIO()) == 0"
        loaded = loaded_after(script)
        assert not loaded & HEAVY, f"the command loads {sorted(loaded & HEAVY)}"
        assert loaded == CAT_ENGINE | {f"obstructia.{m}" for m in adds}

    @pytest.mark.parametrize("reach", [
        "import obstructia\nmods = [getattr(obstructia, n) for n in obstructia.__all__]",
        "from obstructia import *\nimport obstructia\nmods = [globals()[n] for n in obstructia.__all__]",
    ], ids=["attribute", "star"])
    def test_every_module_in_all_is_reached(self, reach):
        check = "\nassert [m.__name__ for m in mods] == ['obstructia.' + n for n in obstructia.__all__]"
        assert loaded_after(reach + check) == {"obstructia"} | {f"obstructia.{n}" for n in obstructia.__all__}


# Every file-reading command, with the file that gets a stray byte.
FILE_COMMANDS = [
    (("cat", "validate", "BAD"), "walking_arrow.cat"),
    (("cat", "pi0", "BAD", "--object", "0"), "walking_arrow.cat"),
    (("cat", "pi1", "BAD", "--object", "*"), "z2.cat"),
    (("cat", "analyze", "BAD", "--morphism", "a"), "walking_arrow.cat"),
    (("cat", "check-terminal", "BAD", "--object", "1"), "walking_arrow.cat"),
    (("set", "pi0", "--fn", "BAD"), "missing_two.fn"),
    (("set", "pi1", "--fn", "BAD"), "fold_pair.fn"),
    (("opengraph", "reach", "BAD"), "G.og"),
    (("opengraph", "compose", fx("G.og"), "BAD"), "H.og"),
    (("opengraph", "obstruct", "BAD", fx("H.og")), "G.og"),
    (("opengraph", "act", fx("G.og"), fx("G_identified.og"), "BAD", fx("H.og")), "identify_outputs.gh"),
]


@pytest.mark.parametrize("argv, fixture", FILE_COMMANDS, ids=[" ".join(argv[:2]) for argv, _ in FILE_COMMANDS])
def test_non_utf8_file_is_parse_error(tmp_path, capsys, argv, fixture):
    with open(fx(fixture), "rb") as fh:
        data = fh.read()
    at = data.index(b"\n") + 1
    bad = tmp_path / fixture
    bad.write_bytes(data[:at] + b"\xff" + data[at:])
    code, text = run(*(str(bad) if a == "BAD" else a for a in argv))
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == f"error ParseError: {bad}: byte {at} is not UTF-8\n"


@pytest.mark.parametrize("argv, fixture", FILE_COMMANDS, ids=[" ".join(argv[:2]) for argv, _ in FILE_COMMANDS])
@pytest.mark.parametrize("broken", [False, True], ids=["as is", "bad third line"])
def test_line_ends_read_alike(tmp_path, capsys, argv, fixture, broken):
    """A copy of the fixture with "\\r\\n" line ends, and one with lone
    "\\r", gives the exit code, output and errors of the "\\n" original,
    line-numbered refusals included, as the text-mode read did; a byte that
    is not UTF-8 is named at its offset in the file, line ends counted."""
    with open(fx(fixture), "rb") as fh:
        lines = fh.read().split(b"\n")
    if broken:
        lines.insert(2, b"!? not a line")
    got = []
    for end in (b"\n", b"\r\n", b"\r"):
        path = tmp_path / str(len(got)) / fixture
        path.parent.mkdir()
        path.write_bytes(end.join(lines))
        code, text = run(*(str(path) if a == "BAD" else a for a in argv))
        got.append((code, text, capsys.readouterr().err))
    assert got[1] == got[0] and got[2] == got[0]
    path.write_bytes(b"\r\n".join([lines[0], b"\xff" + lines[1], *lines[2:]]))
    run(*(str(path) if a == "BAD" else a for a in argv))
    assert capsys.readouterr().err == f"error ParseError: {path}: byte {len(lines[0]) + 2} is not UTF-8\n"


# Refusals with several witnesses, each named at its least: an open graph
# with four edges to undeclared vertices, and a graph homomorphism that
# sends four edges to no edge.
ONE_WITNESS = {
    "dangling": (
        {"g.og": "inputs a\noutputs b\nvertex v\nedge v -> x3\nedge x1 -> v\nedge v -> x2\nedge x0 -> x4\nin a = v\nout b = v\n"},
        ("opengraph", "reach", "g.og"),
        "error DanglingReference: edge ('v', 'x2') uses unknown vertex\n",
    ),
    "no image edge": (
        {
            "s.og": "inputs a\noutputs b\nvertex p q r s\nedge r -> s\nedge q -> r\nedge p -> q\nedge s -> p\nin a = p\nout b = s\n",
            "t.og": "inputs a\noutputs b\nvertex p q r s\nedge p -> s\nin a = p\nout b = s\n",
            "id.gh": "",
        },
        ("opengraph", "act", "s.og", "t.og", "id.gh", fx("H.og")),
        "error NotAGraphHom: edge ('p', 'q') has no image edge\n",
    ),
}


@pytest.mark.parametrize("refusal", ONE_WITNESS)
def test_refusal_names_one_witness_under_every_hash_seed(tmp_path, refusal):
    """The least offending edge in sort order, whatever order the hash seed
    gives the edge set."""
    files, argv, err = ONE_WITNESS[refusal]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run([sys.executable, "-m", "obstructia.cli", *argv], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err), f"PYTHONHASHSEED={seed}"


def src_modules():
    """Each module of the package by name, its tree, and by node id the
    function that owns each node, decorators included: walked outer first,
    so a nested def owns its own nodes."""
    package = os.path.dirname(errors.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            functions = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
            yield name[:-3], tree, {id(n): f"{name[:-3]}.{fn.name}" for fn in functions for n in ast.walk(fn)}


def raised_names(tree):
    """Each ``raise`` of an exception in tree, with the names it mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            yield node, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.exc) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_error_class_is_raised_in_src():
    """Each class of ``obstructia.errors`` but the base is named in a
    ``raise`` of another module of the package: a class that only the tests
    raise belongs in the tests."""
    raised = {name for module, tree, _ in src_modules() if module != "errors" for _, names in raised_names(tree) for name in names}
    classes = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, errors.EngineError)}
    assert len(classes) > 1 and sorted(classes - raised - {"EngineError"}) == []


def test_one_memo_in_src():
    """The one ``functools.cache``/``lru_cache`` in ``src/`` is the bounded
    parse memo on ``fincat._parse``: a memo keyed by a query would keep
    state from one call, or one test, to the next."""
    memos = [owner.get(id(n), f"{module}.py:{n.lineno}") for module, tree, owner in src_modules() for n in ast.walk(tree)
             if (n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None)) in ("cache", "lru_cache")]
    assert memos == ["fincat._parse"]


def test_one_self_check_in_src():
    """The one ``raise OracleMismatch`` in ``src/`` is the minimality check
    of ``homotopy.report_from_pointed``, one bit test per report.  Every
    other check of a result that holds by construction runs in the tests,
    on every call (``conftest.py``), so a new one in ``src/`` edits this
    test."""
    raisers = [owner.get(id(n), f"{module}.py:{n.lineno}") for module, tree, owner in src_modules() for n, names in raised_names(tree) if "OracleMismatch" in names]
    assert raisers == ["homotopy.report_from_pointed"]


class TestUsage:
    def test_no_args_is_usage_error(self):
        code, _ = run()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = run("cat", "frobnicate")
        assert code == 2

    def test_missing_file_is_domain_error(self, capsys):
        code, _ = run("cat", "validate", fx("nope.cat"))
        assert code == 1

    def test_usage_error_then_valid_command(self, capsys):
        code, _ = run("cat", "pi0", fx("walking_arrow.cat"))
        assert code == 2
        assert "--object" in capsys.readouterr().err
        code, text = run("cat", "pi0", fx("walking_arrow.cat"), "--object", "0")
        assert code == 0
        assert "minimal obstructions (1): 1" in text


class TestArgv:
    """The argv grammar of cli._read_argv, one test for each form that
    argparse, the reader before it, took or refused on its own."""

    WA = fx("walking_arrow.cat")

    def test_prefix_of_a_flag_refused(self, capsys):
        # argparse took a unique prefix, --obj for --object
        assert run("cat", "pi0", self.WA, "--obj", "0") == (2, "")
        assert capsys.readouterr().err.endswith("\nobstructia: error: unrecognized arguments: --obj 0\n")

    def test_flag_equals_value(self):
        code, text = run("cat", "pi0", self.WA, "--object=0", "--format=dot")
        assert (code, text) == run("cat", "pi0", self.WA, "--object", "0", "--format", "dot")
        assert code == 0 and text.startswith("digraph")

    def test_flags_before_and_between_positionals(self):
        assert run("cat", "pi0", "--object", "0", self.WA) == run("cat", "pi0", self.WA, "--object", "0")
        g, h = fx("G.og"), fx("H.og")
        code, text = run("opengraph", "obstruct", g, "--format", "dot", h)
        assert (code, text) == run("opengraph", "obstruct", g, h, "--format", "dot") and code == 0

    def test_repeated_flag_last_wins(self):
        code, text = run("cat", "pi0", self.WA, "--object", "1", "--format", "dot", "--object", "0", "--format", "text")
        assert (code, text) == run("cat", "pi0", self.WA, "--object", "0") and "trivial: no" in text

    def test_value_that_starts_with_a_dash(self, tmp_path, capsys):
        # argparse refused `--object ->` and `--dims -1,2` with "expected one
        # argument"; a flag takes the next word as its value, whatever it holds
        path = tmp_path / "arrow.cat"
        path.write_text("obj ->\nobj b\nmor i : -> -> ->\nmor j : b -> b\nmor f : -> -> b\nid -> = i\nid b = j\n"
                        "comp i ; i = i\ncomp j ; j = j\ncomp i ; f = f\ncomp f ; j = f\n")
        code, text = run("cat", "pi0", str(path), "--object", "->")
        assert (code, text) == run("cat", "pi0", str(path), "--object=->") and "basepoint: [->]\n" in text
        assert run("states", "obstruct", "--context", "gf2", "--dims", "-1,2") == (1, "")
        assert capsys.readouterr().err == "error DimensionCap: negative dimension -1\n"

    def test_flag_without_a_value(self, capsys):
        assert run("cat", "pi0", self.WA, "--object") == (2, "")
        assert capsys.readouterr().err.endswith("\nobstructia: error: --object expects a value\n")

    @pytest.mark.parametrize("argv", [("cat", "pi0", WA, "--object", "0", "--format", "svg"), ("opengraph", "reach", fx("G.og"), "--format", "interchange")],
                             ids=["svg", "per-command"])
    def test_choice_outside_the_table(self, capsys, argv):
        assert run(*argv) == (2, "")
        assert f"obstructia: error: --format: invalid choice {argv[-1]!r}" in capsys.readouterr().err

    def test_empty_words_are_values(self, capsys):
        assert run("cat", "validate", "") == (1, "")
        assert capsys.readouterr().err.startswith("error IO: ")
        assert run("cat", "pi0", self.WA, "--object", "") == run("cat", "pi0", self.WA, "--object=") == (1, "")
        assert capsys.readouterr().err == "error UnknownObject: no such object: ''\n" * 2

    @pytest.mark.parametrize("word", ["-", "--", "-x"])
    def test_other_dash_words_are_unrecognized(self, capsys, word):
        # argparse read `-` as a positional and `--` as the end of the flags
        assert run("cat", "validate", word, fx("z2.cat")) == (2, "")
        assert capsys.readouterr().err.endswith(f"\nobstructia: error: unrecognized arguments: {word}\n")

    def test_help_anywhere(self, capsys):
        # -h and --help print the table wherever they stand, even as a
        # flag's value (`--object=-h` names an object -h) and whatever the
        # rest of argv holds
        argv = ["cat", "pi0", self.WA, "--object", "0", "--format", "svg", "--bogus"]
        table = run("-h")[1]
        for at in range(len(argv) + 1):
            for word in ("-h", "--help"):
                assert run(*argv[:at], word, *argv[at:]) == (0, table)
        assert capsys.readouterr().err == ""
        lines = table.splitlines()
        assert [line.removeprefix("usage:").split()[1:3] for line in lines] == [list(key) for key in cli.COMMANDS]
        assert lines[0] == "usage: obstructia cat validate FILE" and all(line.startswith("       obstructia ") for line in lines[1:])

    @pytest.mark.parametrize("argv, first, lines", [
        ((), "cat validate", 13), (("cat",), "cat validate", 5), (("cat", "frobnicate"), "cat validate", 5),
        (("frob", "pi0"), "cat validate", 13), (("set", "pi0"), "set pi0", 1),
    ], ids=["empty", "group", "unknown command", "unknown group", "command"])
    def test_usage_names_the_commands_argv_could_mean(self, capsys, argv, first, lines):
        assert run(*argv) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == lines + 1 and err[0].startswith(f"usage: obstructia {first} ")
        assert err[-1] == ("obstructia: error: missing --fn" if argv == ("set", "pi0") else
                           "obstructia: error: missing a command" if len(argv) < 2 else f"obstructia: error: unknown command {' '.join(argv)!r}")


class TestDeterminismQuick:
    def test_same_command_twice(self):
        a = run("set", "pi0", "--fn", fx("missing_two.fn"), "--format", "interchange")
        b = run("set", "pi0", "--fn", fx("missing_two.fn"), "--format", "interchange")
        assert a == b

    def test_thirteen_node_dot(self):
        code, text = run("set", "pi0", "--fn", fx("missing_two.fn"), "--format", "dot")
        assert code == 0
        assert sum(1 for line in text.splitlines() if "[shape=" in line) == 13
        assert text.count(" -> ") == 22


# the source and target open graphs of each .gh fixture
GH_GRAPHS = {"identify_outputs.gh": ("G.og", "G_identified.og")}


def fixture_graph(name):
    with open(fx(name), encoding="utf-8") as fh:
        return opengraph.parse_open_graph(fh.read())


class TestFixtureRoundTrips:
    def test_every_fixture_round_trips(self):
        for name in sorted(os.listdir(FIXTURES)):
            path = os.path.join(FIXTURES, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if name.endswith(".cat"):
                value = fincat.parse_category(text)
                assert fincat.parse_category(gen.serialize_category(value)) == value
            elif name.endswith(".fn"):
                fn_name, value = setcat.parse_function(text)
                assert setcat.parse_function(gen.serialize_function(fn_name, value))[1] == value
            elif name.endswith(".og"):
                value = opengraph.parse_open_graph(text)
                assert opengraph.parse_open_graph(opengraph.serialize_open_graph(value)) == value
            else:
                assert name.endswith(".gh")
                source, target = (fixture_graph(g) for g in GH_GRAPHS[name])
                value = opengraph.parse_graph_hom(text, source, target)
                assert opengraph.parse_graph_hom(oracles.graph_hom_text(value), source, target) == value
