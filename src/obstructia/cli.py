"""Command-line front end.

Subcommands mirror the library: ``cat`` for finite categories, ``set`` for
functions, ``opengraph`` for open graphs, ``states`` for the state-functor
contexts.  Reports go out through ``homotopy.write_report`` in the format
``--format`` names.  Output is deterministic (everything sorted), exit code 0
on success, 1 on a domain error (the structured error name is printed; a
file that is not UTF-8 is a ParseError), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

# The set, opengraph and states engines load in the commands that run them,
# so a cat command compiles and runs none of them.
from . import fincat, homotopy, order
from .errors import EngineError, ParseError


def _read(path: str) -> str:
    """The text of a UTF-8 file; any other bytes are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
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
    pi0 = opengraph.laxator_obstructions(composed, whole)
    pi1 = opengraph.pi1_laxator(composed, whole)
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


def _add_format(p, choices=("text", "dot", "interchange")):
    p.add_argument("--format", choices=choices, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="obstructia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("cat", help="finite category computations")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)

    p = cat_sub.add_parser("validate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_cat_validate)

    for name, i in (("pi0", 0), ("pi1", 1)):
        p = cat_sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--object", required=True)
        _add_format(p)
        p.set_defaults(func=lambda a, o, i=i: _cmd_cat_pi(a, o, i))

    p = cat_sub.add_parser("analyze")
    p.add_argument("file")
    p.add_argument("--morphism", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_cat_analyze)

    p = cat_sub.add_parser("check-terminal")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.set_defaults(func=_cmd_cat_check_terminal)

    st = sub.add_parser("set", help="finite function fast paths")
    st_sub = st.add_subparsers(dest="subcommand", required=True)
    for name, i in (("pi0", 0), ("pi1", 1)):
        p = st_sub.add_parser(name)
        p.add_argument("--fn", required=True)
        _add_format(p)
        p.set_defaults(func=lambda a, o, i=i: _cmd_set_pi(a, o, i))

    og = sub.add_parser("opengraph", help="open graphs and the reachability laxator")
    og_sub = og.add_subparsers(dest="subcommand", required=True)

    p = og_sub.add_parser("compose")
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p, ("text", "dot"))
    p.set_defaults(func=_cmd_og_compose)

    p = og_sub.add_parser("reach")
    p.add_argument("graph")
    _add_format(p, ("text", "dot"))
    p.set_defaults(func=_cmd_og_reach)

    p = og_sub.add_parser("obstruct")
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)
    p.set_defaults(func=_cmd_og_obstruct)

    p = og_sub.add_parser("act")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("hom")
    p.add_argument("right")
    p.set_defaults(func=_cmd_og_act)

    stt = sub.add_parser("states", help="state-functor laxators")
    stt_sub = stt.add_subparsers(dest="subcommand", required=True)

    p = stt_sub.add_parser("obstruct")
    p.add_argument("--context", choices=("cartesian", "gf2"), required=True)
    p.add_argument("--sets")
    p.add_argument("--dims")
    _add_format(p)
    p.set_defaults(func=_cmd_states_obstruct)

    p = stt_sub.add_parser("local-act")
    p.add_argument("--context", choices=("cartesian", "gf2"), required=True)
    p.add_argument("--sets")
    p.add_argument("--dims")
    p.add_argument("--target-sets")
    p.add_argument("--fmap")
    p.add_argument("--gmap")
    p.add_argument("--fmat")
    p.add_argument("--gmat")
    p.set_defaults(func=_cmd_states_local_act)

    return parser


# Built once, at import, so no run pays for argparse's set-up (gettext's
# locale lookups on disk included) and the first run costs what later ones do.
_PARSER = build_parser()


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, out)
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
