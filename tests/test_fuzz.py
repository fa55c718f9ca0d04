"""Refusals, not crashes: mutated command lines and mutated input files
through `cli.run`.

Every run exits 0, 1 or 2 and no exception escapes it.  Its stderr is empty
on exit 0, one `error <Class>: ...` line on exit 1, and the usage with one
error line on exit 2.  A run that exits 0 writes the same bytes when run
again.  On every mutated `.cat` text, `fincat.parse_category` and the line
reader of `tests/oracles.py` agree on accept or refuse, and on the error
class.  The draws are seeded by OBSTRUCTIA_SEED.
"""

import contextlib
import io
import os
import pathlib
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from conftest import base_seed
from obstructia import cli, fincat
from obstructia.errors import EngineError

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


# Valid command lines, one or more per command of the table, to mutate.
ARGVS = [
    ["cat", "validate", fx("z2.cat")],
    ["cat", "pi0", fx("walking_arrow.cat"), "--object", "0", "--format", "dot"],
    ["cat", "pi1", fx("z2.cat"), "--object", "*", "--format", "interchange"],
    ["cat", "analyze", fx("walking_arrow.cat"), "--morphism", "a"],
    ["cat", "check-terminal", fx("walking_arrow.cat"), "--object", "1"],
    ["set", "pi0", "--fn", fx("missing_two.fn")],
    ["set", "pi1", "--fn", fx("fold_pair.fn"), "--format", "text"],
    ["opengraph", "compose", fx("G.og"), fx("H.og"), "--format", "dot"],
    ["opengraph", "reach", fx("G.og")],
    ["opengraph", "obstruct", fx("G.og"), fx("H.og"), "--format", "interchange"],
    ["opengraph", "act", fx("G.og"), fx("G_identified.og"), fx("identify_outputs.gh"), fx("H.og")],
    ["states", "obstruct", "--context", "cartesian", "--sets", "a,b|c,d"],
    ["states", "obstruct", "--context", "gf2", "--dims", "2,2", "--format", "dot"],
    ["states", "local-act", "--context", "gf2", "--dims", "2,2", "--fmat", "10,00", "--gmat", "10,01"],
    ["states", "local-act", "--context", "cartesian", "--sets", "a,b|c", "--target-sets", "a|c", "--fmap", "a=>a,b=>a", "--gmap", "c=>c"],
]

# Words to put in: unknown flags, prefixes of real ones, a flag with an
# empty value after `=`, empty strings, help, and values of other commands.
WORDS = ["--bogus", "-x", "-", "--", "--obj", "--form", "--fo=dot", "--x=", "--object=", "--format=", "--dims=", "",
         "-h", "--help", "dot", "svg", "gf2", "->", "-1,2", "0", "*", fx("H.og"), fx("nope.cat"), FIXTURES]


def mutate_argv(data, argv):
    """argv with one to three mutations; the group and command words are
    left alone in three draws of four, so most runs reach the flags."""
    argv, lo = list(argv), data.draw(st.sampled_from([0, 2, 2, 2]))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(min(lo, len(argv)), len(argv)))
        op = data.draw(st.sampled_from(["drop", "repeat", "swap", "insert", "prefix", "equals"]))
        if op == "insert" or at == len(argv) == lo:
            argv.insert(at, data.draw(st.sampled_from(WORDS)))
            continue
        i = min(at, len(argv) - 1)
        j = data.draw(st.integers(min(lo, i), len(argv) - 1))
        if op == "drop":
            del argv[i]
        elif op == "repeat":
            argv.insert(j, argv[i])
        elif op == "swap":
            argv[i], argv[j] = argv[j], argv[i]
        elif op == "prefix":
            argv[i] = argv[i][: data.draw(st.integers(0, len(argv[i])))]
        else:  # join a word to the next with `=`, as `--flag=value` does
            argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    return argv


def run(argv):
    """Exit code, stdout and stderr of one in-process run, which must not
    raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out)
    return code, out.getvalue(), err.getvalue()


ONE_ERROR = re.compile(r"error \w+: [^\n]*\n")
USAGE = re.compile(r"usage: obstructia [^\n]*\n(       obstructia [^\n]*\n)*obstructia: error: [^\n]*\n")


def check_run(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err == "", argv
        assert run(argv) == (code, out, err), f"{argv}: a second run differs"
    elif code == 1:
        assert ONE_ERROR.fullmatch(err), (argv, err)
    else:
        assert (out, bool(USAGE.fullmatch(err))) == ("", True), (argv, err)
    return code, err


SETTINGS = settings(max_examples=250, deadline=None)


@seed(base_seed())
@SETTINGS
@given(st.data())
def test_mutated_argv(data):
    argv = mutate_argv(data, data.draw(st.sampled_from(ARGVS)))
    check_run(argv)


# The commands that read each kind of file, with F where the mutated file
# goes; `obj` and `mor` name the first object and morphism of a .cat
# fixture.  The two wide12 functions are left out: each of their runs
# writes a 4096-element report, which the time budget of this module
# cannot hold.
FILE_ARGVS = {
    ".cat": [["cat", "validate", "F"], ["cat", "pi1", "F", "--object", "obj"], ["cat", "analyze", "F", "--morphism", "mor"]],
    ".fn": [["set", "pi0", "--fn", "F"], ["set", "pi1", "--fn", "F"]],
    ".og": [["opengraph", "obstruct", "F", fx("H.og")], ["opengraph", "obstruct", fx("G.og"), "F"]],
    ".gh": [["opengraph", "act", fx("G.og"), fx("G_identified.og"), "F", fx("H.og")]],
}
TEXTS = {name: pathlib.Path(fx(name)).read_text(encoding="utf-8") for name in sorted(os.listdir(FIXTURES)) if not name.startswith("wide12")}
EDITS = ["#", ",", "->", "=", ";", ":", "=>", "é", "", "x", "a", "0", "{", "}", "|"]


def mutate_text(data, text):
    lines = text.splitlines(keepends=True)
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        op = data.draw(st.sampled_from(["drop", "repeat", "swap", "cut", "edit"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "cut":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
        else:
            words = lines[i].split(" ")
            k = data.draw(st.integers(0, len(words) - 1))
            words[k] = data.draw(st.sampled_from(EDITS + words))
            lines[i] = " ".join(words)
    return "".join(lines)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(base_seed() + 1)
@SETTINGS
@given(st.data())
def test_mutated_files(scratch, data):
    name = data.draw(st.sampled_from(sorted(TEXTS)))
    text = mutate_text(data, TEXTS[name])
    raw = text.encode("utf-8")
    if data.draw(st.booleans()):  # a stray byte that is no UTF-8
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    path = scratch / ("mutated" + os.path.splitext(name)[1])
    path.write_bytes(raw)
    names, stray = dict(re.findall(r"^(obj|mor) (\S+)", TEXTS[name], re.M)[::-1]), raw.find(b"\xff")
    for argv in FILE_ARGVS[path.suffix]:
        code, err = check_run([str(path) if a == "F" else names.get(a, a) for a in argv])
        if stray >= 0:
            assert (code, err) == (1, f"error ParseError: {path}: byte {stray} is not UTF-8\n")
    if path.suffix == ".cat" and stray < 0:
        assert outcome(fincat.parse_category, text) == outcome(oracles.parse_category, text), text


def outcome(parse, text):
    """'ok', or the name of the EngineError class that parse raised."""
    fincat._parse.cache_clear()
    try:
        parse(text)
    except EngineError as exc:
        return type(exc).__name__
    return "ok"
