"""Command-line front end.

Subcommands mirror the library: ``cat`` for finite categories, ``set`` for
functions, ``opengraph`` for open graphs, ``states`` for the state-functor
contexts.  One table, ``COMMANDS``, holds each command's usage line and
function, and ``_read_argv`` reads argv against it.  Reports go out through
``homotopy.write_report`` in the format ``--format`` names.  Output is
deterministic (everything sorted).  Exit code 0 on success, and for ``-h``
or ``--help`` anywhere in argv, which print the table; 1 on a domain or IO
error (the structured error name is printed; a file that is not UTF-8 is a
ParseError); 2 on a usage error, with the command's usage on stderr.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

# The set, opengraph and states engines load in the commands that run them,
# so a cat command compiles and runs none of them.
from . import fincat, homotopy, order
from .errors import EngineError, ParseError


def _read(path: str) -> str:
    """The text of a UTF-8 file, read as bytes and decoded whole: the
    parsers' ``str.splitlines`` reads "\\r\\n" and lone "\\r" line ends.  Any
    other bytes are a ParseError at the first one's offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8") from None


def _emit_flow(pmap: order.PointedMap, out) -> None:
    """Where each obstruction of the source goes, and how many reach the basepoint."""
    moved = sorted(e for e in pmap.mapping if e != pmap.source.basepoint)
    out.write(f"obstruction flow ({len(moved)}):\n")
    for e in moved:
        out.write(f"  {e} -> {pmap.mapping[e]}\n")
    trivialised = sum(1 for e in moved if pmap.mapping[e] == pmap.target.basepoint)
    out.write(f"trivialised: {trivialised} of {len(moved)}\n")


# -- cat ---------------------------------------------------------------------


def _cmd_cat_validate(args, out):
    c = fincat.parse_category(_read(args.file))
    out.write(f"ok: {len(c.objects)} objects, {len(c.morphisms)} morphisms\n")
    return 0


def _cmd_cat_pi(args, out, i: int):
    c = fincat.parse_category(_read(args.file))
    homotopy.write_report((homotopy.pi0, homotopy.pi1)[i](c, args.object), args.format, out)
    return 0


def _cmd_cat_analyze(args, out):
    c = fincat.parse_category(_read(args.file))
    analysis = homotopy.analyze_morphism(c, args.morphism)
    out.write(f"morphism: {args.morphism}\n")
    out.write(f"split-epi: {'yes' if analysis.split_epi else 'no'}\n")
    out.write(f"mono: {'yes' if analysis.mono else 'no'}\n")
    out.write(f"iso: {'yes' if analysis.iso else 'no'}\n")
    homotopy.write_report(analysis.pi0, args.format, out)
    homotopy.write_report(analysis.pi1, args.format, out)
    return 0


def _cmd_cat_check_terminal(args, out):
    c = fincat.parse_category(_read(args.file))
    out.write(f"weak-terminal: {'yes' if homotopy.is_weak_terminal(c, args.object) else 'no'}\n")
    out.write(f"subterminal: {'yes' if homotopy.is_subterminal(c, args.object) else 'no'}\n")
    out.write(f"terminal: {'yes' if homotopy.is_terminal(c, args.object) else 'no'}\n")
    return 0


# -- set ---------------------------------------------------------------------


def _cmd_set_pi(args, out, i: int):
    from . import setcat

    name, f = setcat.parse_function(_read(args.fn))
    report = setcat.pi0_function(f) if i == 0 else setcat.pi1_function(f)
    out.write(f"function: {name}\n")
    homotopy.write_report(report, args.format, out)
    return 0


# -- opengraph ------------------------------------------------------------------


def _cmd_og_compose(args, out):
    from . import opengraph

    g = opengraph.parse_open_graph(_read(args.left))
    h = opengraph.parse_open_graph(_read(args.right))
    gh = opengraph.compose(g, h)
    if args.format == "dot":
        out.write(opengraph.open_graph_dot(gh))
    else:
        out.write(opengraph.serialize_open_graph(gh))
    return 0


def _cmd_og_reach(args, out):
    from . import opengraph

    g = opengraph.parse_open_graph(_read(args.graph))
    if args.format == "dot":
        out.write(opengraph.open_graph_dot(g))
        return 0
    out.write("reach: " + opengraph.relation_text(opengraph.reach(g)) + "\n")
    return 0


def _cmd_og_obstruct(args, out):
    from . import opengraph

    g = opengraph.parse_open_graph(_read(args.left))
    h = opengraph.parse_open_graph(_read(args.right))
    rg, rh = opengraph.reach(g), opengraph.reach(h)
    whole = opengraph.glued_reach(g, h)  # a BoundaryMismatch, as compose and act raise
    composed = opengraph.compose_rel(rg, rh)
    # both reports before any output, so a refusal leaves stdout empty
    pi0, pi1 = opengraph.laxator_obstructions(composed, whole)
    out.write("reach left: " + opengraph.relation_text(rg) + "\n")
    out.write("reach right: " + opengraph.relation_text(rh) + "\n")
    out.write("composite of parts: " + opengraph.relation_text(composed) + "\n")
    out.write("reach of composite: " + opengraph.relation_text(whole) + "\n")
    homotopy.write_report(pi0, args.format, out)
    out.write(f"pi1 trivial: {'yes' if pi1.trivial else 'no'}\n")
    return 0


def _cmd_og_act(args, out):
    from . import opengraph

    g = opengraph.parse_open_graph(_read(args.source))
    g2 = opengraph.parse_open_graph(_read(args.target))
    hom = opengraph.parse_graph_hom(_read(args.hom), g, g2)
    h = opengraph.parse_open_graph(_read(args.right))
    reached, pmap = opengraph.act(hom, h)
    out.write("reach of acted graph: " + opengraph.relation_text(reached) + "\n")
    _emit_flow(pmap, out)
    return 0


# -- states -----------------------------------------------------------------------


def _parse_sets(text: str, flag: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    try:
        left, right = text.split("|", 1)
    except ValueError:
        raise ParseError(f"{flag} wants 'a,b|c,d'")
    a, b = (tuple(x.strip() for x in side.split(",")) if side.strip() else () for side in (left, right))
    if "" in a + b:
        raise ParseError(f"{flag} has an empty item in {text!r}")
    return a, b


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        m, n = text.split(",", 1)
        return int(m), int(n)
    except ValueError:
        raise ParseError("--dims wants 'm,n'")


def _parse_matrix(text: str) -> tuple:
    rows = []
    for row in text.split(","):
        row = row.strip()
        if not all(ch in "01" for ch in row):
            raise ParseError(f"matrix row {row!r} must be bits")
        rows.append(tuple(int(ch) for ch in row))
    return tuple(rows)


def _states_objects(args):
    from . import states

    if args.context == "cartesian":
        if args.sets is None:
            raise ParseError("cartesian context needs --sets")
        return states.StateContext("cartesian"), *_parse_sets(args.sets, "--sets")
    if args.dims is None:
        raise ParseError("gf2 context needs --dims")
    return states.StateContext("gf2"), *_parse_dims(args.dims)


def _cmd_states_obstruct(args, out):
    from . import states

    ctx, a, b = _states_objects(args)
    lax = states.laxator(ctx, a, b)
    p0, p1 = states.laxator_obstructions(lax, states.lax_context(ctx, a, b))
    out.write(f"states of tensor: {len(lax.cod_set)}\n")
    out.write(f"separable: {len(lax.image())}\n")
    homotopy.write_report(p0, args.format, out)
    homotopy.write_report(p1, args.format, out)
    return 0


def _cmd_states_local_act(args, out):
    from . import setcat, states

    ctx, a, b = _states_objects(args)
    if ctx.kind == "cartesian":
        if None in (args.target_sets, args.fmap, args.gmap):
            raise ParseError("cartesian local action needs --target-sets, --fmap, --gmap")
        a2, b2 = _parse_sets(args.target_sets, "--target-sets")
        f = setcat.FiniteFunction(a, a2, setcat.parse_assignments(args.fmap))
        g = setcat.FiniteFunction(b, b2, setcat.parse_assignments(args.gmap))
    else:
        if None in (args.fmat, args.gmat):
            raise ParseError("gf2 local action needs --fmat and --gmat")
        f = _parse_matrix(args.fmat)
        g = _parse_matrix(args.gmat)
        for flag, m, dim in (("--fmat", f, a), ("--gmat", g, b)):
            if len(m[0]) != dim:
                raise ParseError(f"{flag} has {len(m[0])} columns, --dims wants {dim}")
    _emit_flow(states.local_action(ctx, f, g), out)
    out.write("basepoint preserved: yes\n")
    return 0


# -- wiring ------------------------------------------------------------------------

_FORMAT = "[--format text|dot|interchange]"
_CONTEXT = "--context cartesian|gf2 [--sets SETS] [--dims M,N]"

# (group, command) -> (usage, function).  The usage is the whole spec: an
# upper-case word is a positional, read in order into its lower-case name;
# `--flag VALUE` is a required flag, `[--flag VALUE]` an optional one, None
# when not given; a value written `a|b` is a choice, and an optional choice
# defaults to its first.  `--target-sets` is read into `target_sets`.
COMMANDS = {
    ("cat", "validate"): ("FILE", _cmd_cat_validate),
    ("cat", "pi0"): (f"FILE --object OBJECT {_FORMAT}", lambda args, out: _cmd_cat_pi(args, out, 0)),
    ("cat", "pi1"): (f"FILE --object OBJECT {_FORMAT}", lambda args, out: _cmd_cat_pi(args, out, 1)),
    ("cat", "analyze"): (f"FILE --morphism MORPHISM {_FORMAT}", _cmd_cat_analyze),
    ("cat", "check-terminal"): ("FILE --object OBJECT", _cmd_cat_check_terminal),
    ("set", "pi0"): (f"--fn FILE {_FORMAT}", lambda args, out: _cmd_set_pi(args, out, 0)),
    ("set", "pi1"): (f"--fn FILE {_FORMAT}", lambda args, out: _cmd_set_pi(args, out, 1)),
    ("opengraph", "compose"): ("LEFT RIGHT [--format text|dot]", _cmd_og_compose),
    ("opengraph", "reach"): ("GRAPH [--format text|dot]", _cmd_og_reach),
    ("opengraph", "obstruct"): (f"LEFT RIGHT {_FORMAT}", _cmd_og_obstruct),
    ("opengraph", "act"): ("SOURCE TARGET HOM RIGHT", _cmd_og_act),
    ("states", "obstruct"): (f"{_CONTEXT} {_FORMAT}", _cmd_states_obstruct),
    ("states", "local-act"): (
        f"{_CONTEXT} [--target-sets SETS] [--fmap MAP] [--gmap MAP] [--fmat BITS] [--gmat BITS]",
        _cmd_states_local_act,
    ),
}


class _Usage(Exception):
    """argv does not match the table; exit 2."""


def _spec(usage: str):
    """A usage line read into its positionals' names, in order, its flags
    (each with its name and choices, None for a free value), what is
    required, as shown and by name, and the defaults of the optional
    flags."""
    places, flags, need, defaults = [], {}, [], {}
    words = iter(usage.split())
    for word in words:
        flag, name = word.lstrip("["), word.lstrip("[-").lower().replace("-", "_")
        if flag[:2] == "--":
            spec = next(words).rstrip("]")
            choices = spec.split("|") if "|" in spec else None
            flags[flag] = name, choices
            if flag != word:
                defaults[name] = choices and choices[0]
                continue
        else:
            places.append(name)
        need.append((flag, name))
    return tuple(places), flags, need, defaults


# Each command's function and usage line, read once, when the module loads.
_SPECS = {command: (func, *_spec(usage)) for command, (usage, func) in COMMANDS.items()}


def _read_argv(argv):
    """The function of argv's command and its args, read against COMMANDS.

    argv is a group and a command, then that command's positionals and
    flags in any order.  A flag is named in full, and takes the next word as
    its value whatever that word holds (``--object ->``, ``--dims -1,2``),
    or the text after its first ``=`` (``--object=->``).  When a flag is
    given twice the last one wins.  Any other word that starts with ``-`` is
    unrecognized, as is a positional past the last.  The command's spec
    (``_SPECS``) is shared: its positionals and defaults are copied before
    they are consumed."""
    try:
        func, places, flags, need, values = _SPECS[argv[0], argv[1]]
    except (IndexError, KeyError):
        raise _Usage(f"unknown command {' '.join(argv[:2])!r}" if argv[1:] else "missing a command") from None
    places, values = list(places), dict(values)
    extra, rest = [], iter(argv[2:])
    for word in rest:
        flag, eq, value = word.partition("=")
        if word[:1] != "-" and places:
            values[places.pop(0)] = word
        elif flag not in flags:
            extra.append(word)
        else:
            name, choices = flags[flag]
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise _Usage(f"{flag} expects a value")
            if choices and value not in choices:
                raise _Usage(f"{flag}: invalid choice {value!r} (choose from {'|'.join(choices)})")
            values[name] = value
    missing = [shown for shown, name in need if name not in values]
    if extra or missing:
        raise _Usage(f"unrecognized arguments: {' '.join(extra)}" if extra else f"missing {', '.join(missing)}")
    return func, SimpleNamespace(**values)


def _usage(head) -> str:
    """'usage:' and the table's lines for the command head names, or else
    for its group, or else all of them."""
    for n in (2, 1, 0):
        lines = [f"obstructia {g} {c} {COMMANDS[g, c][0]}" for g, c in COMMANDS if (g, c)[:n] == tuple(head[:n])]
        if lines:
            return "usage: " + "\n       ".join(lines) + "\n"


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    if "-h" in argv or "--help" in argv:
        out.write(_usage(()))
        return 0
    try:
        func, args = _read_argv(argv)
    except _Usage as exc:
        sys.stderr.write(f"{_usage(argv)}obstructia: error: {exc}\n")
        return 2
    try:
        return func(args, out)
    except EngineError as exc:
        sys.stderr.write(f"error {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error IO: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
