"""State-functor laxators for two concrete monoidal contexts.

Cartesian finite sets: tensoring states is pairing, the laxator is a
bijection, and both obstruction posets are trivial.  GF(2) vector spaces
with the tensor product: the laxator is the outer product, which from
dimension 2x2 on is neither surjective (non-separable vectors exist) nor
injective (anything tensored with zero is zero), and the minimal
obstructions are exactly the non-separable states respectively the
colliding input pairs.

Posets are materialised in full up to ``homotopy.POWERSET_CAP`` generators;
past it the reports keep the exact basepoint-plus-minimal sub-poset (which
carries the whole separability story), a star checked by
``order.from_masks``, with the elision noted in the report context; code
tells the routes apart by size alone.  A local action is a
``homotopy.induced_map`` that moves the minimal layer alone, each
non-separable state to its image, which lands on the basepoint when it is
separable: up to the cap every state is separable (at most 12 states means
a factor of dimension <= 1), and so is every cartesian one.
Each call builds the laxator it reads, and a CLI command builds one.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, product

from . import homotopy, order, setcat
from .fincat import pair_name
from .errors import DimensionCap, ParseError, WrongContext

Matrix = tuple  # rows of 0/1 ints; rows = target dim, columns = source dim
DIM_CAP = 6  # largest GF(2) dimension, of a factor or a tensor, enumerated


class StateContext(namedtuple("StateContext", "kind")):  # kind: "cartesian" | "gf2"
    __slots__ = ()

    def __init__(self, kind):
        if kind not in ("cartesian", "gf2"):
            raise WrongContext(f"unknown context kind {kind!r}")


# -- GF(2) vectors -----------------------------------------------------------


def vec_name(bits: tuple[int, ...]) -> str:
    return "".join(str(b) for b in bits) if bits else "_"


def all_vectors(dim: int) -> list[tuple[int, ...]]:
    return [tuple(reversed(bits)) for bits in product((0, 1), repeat=dim)] if dim else [()]


def tensor_bits(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # Row-major flattening, first factor on the slow index.
    return tuple(x & y for x in a for y in b)


def check_matrix(m: Matrix, rows: int, cols: int):
    if len(m) != rows:
        raise ParseError(f"matrix needs {rows} rows, has {len(m)}")
    for row in m:
        if len(row) != cols:
            raise ParseError(f"matrix row {row!r} needs {cols} columns")
        if any(x not in (0, 1) for x in row):
            raise ParseError(f"matrix row {row!r} is not over GF(2)")


def apply_matrix(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(r * x for r, x in zip(row, v)) % 2 for row in m)


def _check_dim(dim: int):
    if dim < 0:
        raise DimensionCap(f"negative dimension {dim}")
    if dim > DIM_CAP:
        raise DimensionCap(f"dimension {dim} exceeds cap {DIM_CAP}")


# -- state enumeration ---------------------------------------------------------


def states_of(ctx: StateContext, obj) -> tuple[str, ...]:
    """The names of all morphisms from the unit into the object, enumerated
    explicitly: elements for a finite set, vectors for a GF(2) space."""
    if ctx.kind == "cartesian":
        labels = tuple(obj)
        if len(set(labels)) != len(labels):
            raise ParseError(f"duplicate element labels in {labels!r}")
        return labels
    dim = int(obj)
    _check_dim(dim)
    return tuple(vec_name(v) for v in all_vectors(dim))


def _gf2_payload(dim: int) -> dict[str, tuple[int, ...]]:
    return {vec_name(v): v for v in all_vectors(dim)}


def laxator(ctx: StateContext, a, b) -> setcat.FiniteFunction:
    """The structural map from pairs of states to states of the tensor:
    pairing for cartesian sets, outer product for GF(2)."""
    sa, sb = states_of(ctx, a), states_of(ctx, b)
    dom = tuple(pair_name(x, y) for x in sa for y in sb)
    if ctx.kind == "cartesian":  # product set states are exactly the pairs
        return setcat.FiniteFunction(dom, dom, {p: p for p in dom})
    m, n = int(a), int(b)
    _check_dim(m * n)
    va, vb = _gf2_payload(m), _gf2_payload(n)
    cod = tuple(vec_name(v) for v in all_vectors(m * n))
    mapping = {pair_name(x, y): vec_name(tensor_bits(va[x], vb[y])) for x in sa for y in sb}
    return setcat.FiniteFunction(dom, cod, mapping)


# -- obstruction reports ---------------------------------------------------------


def _report(universe, collapsed, context: str) -> homotopy.ObstructionReport:
    """The powerset report up to ``homotopy.POWERSET_CAP`` generators; past
    it, state spaces too large to materialise, the exact basepoint + minimal
    sub-poset: the basepoint below each {y}, y not collapsed, and no more."""
    if len(universe) <= homotopy.POWERSET_CAP:
        return homotopy.powerset_report(universe, collapsed, "{}", context)
    bp, coll = "{}", set(collapsed)
    elements = tuple(sorted([bp, *(homotopy.subset_name([y]) for y in universe if y not in coll)]))
    up = [1 << i for i in range(len(elements))]
    up[elements.index(bp)] = (1 << len(elements)) - 1  # "{}" sorts after "{0..." and "{(..."
    pp = order.PointedPoset(order.from_masks(elements, up), bp)
    return homotopy.report_from_pointed(pp, context + " (minimal sub-poset; full powerset elided)")


def _pi0(lax: setcat.FiniteFunction, where: str) -> homotopy.ObstructionReport:
    return _report(lax.cod_set, lax.image(), f"pi0 of state laxator at {where}")


def laxator_obstructions(lax: setcat.FiniteFunction, where: str) -> tuple[homotopy.ObstructionReport, homotopy.ObstructionReport]:
    """(pi0, pi1) of a laxator, at ``where``, its ``lax_context``; pi1 is over
    its kernel pair, the diagonal collapsed.  Minimal pi0 obstructions are
    the non-separable states; minimal pi1 obstructions are the distinct
    input pairs with equal tensor."""
    pi0, kp = _pi0(lax, where), setcat.kernel_pair(lax)
    return pi0, _report([pair_name(*p) for p in kp.pairs], [pair_name(x, x) for x in lax.dom_set], f"pi1 of state laxator at {where}")


def lax_context(ctx: StateContext, a, b) -> str:
    if ctx.kind == "cartesian":
        return f"sets ({','.join(a)}|{','.join(b)})"
    return f"gf2 dims ({int(a)},{int(b)})"


# -- covariance under local actions ------------------------------------------------


def local_action(ctx: StateContext, f, g) -> order.PointedMap:
    """Pointed map on pi0 obstruction posets induced by acting on the two
    factors separately: f and g are FiniteFunctions in the cartesian
    context, bit matrices (rows = target dimension) over GF(2).

    Only the minimal layer moves: ``homotopy.induced_map`` sends {y}, y a
    non-separable state, to {f V g^T}, V the bit matrix of y, which is no
    element of the target report when f V g^T is separable and then goes
    to the basepoint.  Nothing else moves: up to ``homotopy.POWERSET_CAP``
    states m*n <= 3, so every state has rank <= 1 and the report is one
    point; past it the report is the basepoint and the minimal layer; and
    both reports of the bijective cartesian laxator are one point.
    """
    if ctx.kind == "cartesian":
        if not isinstance(f, setcat.FiniteFunction) or not isinstance(g, setcat.FiniteFunction):
            raise WrongContext("cartesian local actions are finite functions")
        a, b, a2, b2 = f.dom_set, g.dom_set, f.cod_set, g.cod_set
        image = None
    else:
        fm, gm = tuple(tuple(r) for r in f), tuple(tuple(r) for r in g)
        if not fm or not gm:
            raise ParseError("empty matrix")
        a, b, a2, b2 = len(fm[0]), len(gm[0]), len(fm), len(gm)
        check_matrix(fm, a2, a)
        check_matrix(gm, b2, b)
        _check_dim(a * b)
        _check_dim(a2 * b2)
        bits = _gf2_payload(a * b)

        def image(e: str) -> str:
            v = bits[e[1:-1]]  # e = {y}; row-major: a rows of b bits
            vg = [apply_matrix(gm, v[i : i + b]) for i in range(0, a * b, b)]
            fvg = zip(*(apply_matrix(fm, c) for c in zip(*vg)))  # by rows
            return homotopy.subset_name([vec_name(tuple(chain.from_iterable(fvg)))])

    return homotopy.induced_map(*(_pi0(laxator(ctx, p, q), lax_context(ctx, p, q)) for p, q in ((a, b), (a2, b2))), image)
