"""Open graphs: directed graphs with input and output boundary legs.

Composition glues the outputs of the left graph onto the inputs of the right
one (a pushout over the shared boundary); a composite vertex is named by
the side-qualified vertices it merges, primed if that name is taken.
Reachability sends an open graph to the relation pairing boundary labels
connected by a directed path; it is lax with respect to gluing, and the gap
between "compose the relations" and "relation of the composite" is measured
by the same powerset-collapse obstruction posets (at most
``homotopy.POWERSET_CAP`` pairs), read off those two relations so that each
is computed once.  The relation of the composite is read off the gluing
itself, one union-find over int vertex ids that ``compose`` also names its
classes from, so obstruct and act never name or build a composite graph;
the flow of obstructions under a 2-morphism is checked along covers
(``order.make_monotone``), and built by ``homotopy.induced_map``.  The
laxator's pi1 is trivial by theorem (hom-categories of relations are
posets), so it is the powerset report of an empty universe: one point.
"""

from __future__ import annotations

from collections import namedtuple

from . import homotopy, order
from .fincat import check_label, pair_name
from .errors import (
    BoundaryMismatch,
    DanglingReference,
    LaxityViolation,
    NotAGraphHom,
    OracleMismatch,
    ParseError,
    TypeMismatch,
)


class OpenGraph(namedtuple("OpenGraph", "inputs outputs vertices edges in_leg out_leg")):
    __slots__ = ()

    def __new__(cls, inputs, outputs, vertices, edges, in_leg, out_leg):
        self = super().__new__(cls, tuple(inputs), tuple(outputs), tuple(sorted(set(vertices))), edges, in_leg, out_leg)
        for side, labels in (("input", self.inputs), ("output", self.outputs)):
            twice = [x for i, x in enumerate(labels) if labels.index(x) != i]
            if twice:
                raise BoundaryMismatch(f"{side} label {twice[0]!r} is repeated")
        vs = set(self.vertices)
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise DanglingReference(f"edge ({u!r}, {v!r}) uses unknown vertex")
        for side, labels, legs in (("input", self.inputs, self.in_leg), ("output", self.outputs, self.out_leg)):
            for x in labels:
                if x not in legs:
                    raise DanglingReference(f"{side} {x!r} has no leg")
                if legs[x] not in vs:
                    raise DanglingReference(f"{side} leg of {x!r} lands outside the graph")
            extra = sorted(set(legs) - set(labels))
            if extra:
                raise DanglingReference(f"{side} leg {extra[0]!r} has no {side} label")
        return self


class Relation(namedtuple("Relation", "dom_set cod_set pairs")):
    __slots__ = ()

    def __new__(cls, dom_set, cod_set, pairs):
        self = super().__new__(cls, tuple(sorted(set(dom_set))), tuple(sorted(set(cod_set))), pairs)
        for x, y in self.pairs:
            if x not in self.dom_set or y not in self.cod_set:
                raise TypeMismatch(f"pair ({x!r}, {y!r}) outside carrier")
        return self


class GraphHom(namedtuple("GraphHom", "source target vertex_map")):
    """Interface-preserving graph homomorphism between open graphs sharing
    boundaries: edges map to edges and both legs commute."""

    __slots__ = ()

    def __init__(self, source, target, vertex_map):
        s, t = source, target
        if set(s.inputs) != set(t.inputs) or set(s.outputs) != set(t.outputs):
            raise BoundaryMismatch("graph homomorphism must preserve the boundary sets")
        tv = set(t.vertices)
        for v in s.vertices:
            if v not in vertex_map:
                raise NotAGraphHom(f"vertex {v!r} not mapped")
            if vertex_map[v] not in tv:
                raise NotAGraphHom(f"image of {v!r} is not a target vertex")
        for u, v in s.edges:
            if (vertex_map[u], vertex_map[v]) not in t.edges:
                raise NotAGraphHom(f"edge ({u!r}, {v!r}) has no image edge")
        for x in s.inputs:
            if vertex_map[s.in_leg[x]] != t.in_leg[x]:
                raise NotAGraphHom(f"input leg {x!r} does not commute")
        for y in s.outputs:
            if vertex_map[s.out_leg[y]] != t.out_leg[y]:
                raise NotAGraphHom(f"output leg {y!r} does not commute")


# -- reachability and relation composition ------------------------------------


def _paths(succ: dict, starts, ends) -> frozenset:
    """The (x, y) for (x, s) in starts and (y, t) in ends with a directed
    path (length >= 0) from s to t along succ: one search per start."""
    pairs = set()
    for x, start in starts:
        seen = {start}
        stack = [start]
        while stack:
            for v in succ.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        pairs.update((x, y) for y, t in ends if t in seen)
    return frozenset(pairs)


def reach(g: OpenGraph) -> Relation:
    """(x, y) related iff a directed path (length >= 0) runs from the vertex
    under input x to the vertex under output y."""
    succ: dict[str, list[str]] = {}
    for u, v in g.edges:
        succ.setdefault(u, []).append(v)
    ends = [(y, g.out_leg[y]) for y in g.outputs]
    pairs = _paths(succ, ((x, g.in_leg[x]) for x in g.inputs), ends)
    return Relation(g.inputs, g.outputs, pairs)


def compose_rel(r: Relation, s: Relation) -> Relation:
    if set(r.cod_set) != set(s.dom_set):
        raise TypeMismatch("relations not composable")
    pairs = frozenset(
        (x, z) for (x, y) in r.pairs for (y2, z) in s.pairs if y == y2
    )
    return Relation(r.dom_set, s.cod_set, pairs)


# -- gluing composition ----------------------------------------------------------


def _glue(g: OpenGraph, h: OpenGraph) -> tuple[dict[str, int], dict[str, int]]:
    """The one gluing of g's outputs to the equally-named inputs of h: a
    union-find over int ids, g's vertices in sorted order and then h's,
    merging out_leg_g(y) with in_leg_h(y) for each label y.  Returns the
    class of each vertex of g and of h, as the id of its root."""
    if set(g.outputs) != set(h.inputs):
        raise BoundaryMismatch(
            f"outputs {sorted(g.outputs)} do not match inputs {sorted(h.inputs)}"
        )
    n = len(g.vertices)
    parent = list(range(n + len(h.vertices)))
    left, right = dict(zip(g.vertices, parent)), dict(zip(h.vertices, parent[n:]))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for y in g.outputs:
        a, b = find(left[g.out_leg[y]]), find(right[h.in_leg[y]])
        if a != b:
            parent[b] = a
    return {v: find(a) for v, a in left.items()}, {v: find(a) for v, a in right.items()}


def compose(g: OpenGraph, h: OpenGraph) -> OpenGraph:
    """Glue outputs of g to the equally-named inputs of h.

    Vertices of the composite are the classes of ``_glue``; a class is named
    by the sorted, side-qualified names it merges, so composites are
    reproducible."""
    left, right = _glue(g, h)
    # Vertices come in qualified-name order, L.v before R.v: each class lists
    # its members sorted, and classes come in the order of their member lists.
    members: dict[int, list[str]] = {}
    for side, classes in (("L.", left), ("R.", right)):
        for v, r in classes.items():
            members.setdefault(r, []).append(side + v)
    # A left vertex named "a+R.c" renders like the class of L.a and R.c:
    # name classes in sorted-member order and prime a repeated rendering.
    cl: dict[int, str] = {}
    used: set = set()
    for r, ms in members.items():
        name = "+".join(ms)
        while name in used:
            name += "'"
        used.add(name)
        cl[r] = name
    edges = {(cl[left[u]], cl[left[v]]) for u, v in g.edges}
    edges.update((cl[right[u]], cl[right[v]]) for u, v in h.edges)
    in_leg = {x: cl[left[g.in_leg[x]]] for x in g.inputs}
    out_leg = {z: cl[right[h.out_leg[z]]] for z in h.outputs}
    return OpenGraph(g.inputs, h.outputs, tuple(cl.values()), frozenset(edges), in_leg, out_leg)


def glued_reach(g: OpenGraph, h: OpenGraph) -> Relation:
    """reach(compose(g, h)), read off the classes of ``_glue`` unnamed."""
    left, right = _glue(g, h)
    succ: dict[int, list[int]] = {}
    for classes, graph in ((left, g), (right, h)):
        for u, v in graph.edges:
            succ.setdefault(classes[u], []).append(classes[v])
    starts = ((x, left[g.in_leg[x]]) for x in g.inputs)
    ends = [(z, right[h.out_leg[z]]) for z in h.outputs]
    return Relation(g.inputs, h.outputs, _paths(succ, starts, ends))


# -- obstruction posets of the reachability laxator -------------------------------


def _rel_pair_labels(pairs) -> list[str]:
    return sorted(pair_name(x, y) for (x, y) in pairs)


def _check_laxator(composed: Relation, whole: Relation) -> None:
    """The composite of the parts' reachabilities must lie inside reach(g . h)."""
    if not composed.pairs <= whole.pairs:
        raise LaxityViolation("composite of parts exceeds reachability of the composite")


def laxator_obstructions(composed: Relation, whole: Relation) -> homotopy.ObstructionReport:
    """pi0 of the slice of inclusion-ordered relations over whole =
    reach(g . h), pointed at composed = compose_rel(reach g, reach h).
    Non-basepoint elements are the sub-relations of the composite's
    reachability that are not accounted for by composing the parts."""
    _check_laxator(composed, whole)
    universe = _rel_pair_labels(whole.pairs)
    collapsed = _rel_pair_labels(composed.pairs)
    basepoint = "[" + homotopy.subset_name(collapsed) + "]"
    return homotopy.powerset_report(
        universe, collapsed, basepoint, "pi0 of reachability laxator"
    )


def pi1_laxator(composed: Relation, whole: Relation) -> homotopy.ObstructionReport:
    """pi1 at the same point: hom-categories of relations are posets, so
    pi1 is the one-point poset that homotopy.pi1 gives on the thin category
    of sub-relations (the tests keep that as the oracle), the powerset
    report of an empty universe."""
    _check_laxator(composed, whole)
    point = homotopy.subset_name(_rel_pair_labels(composed.pairs))
    return homotopy.powerset_report((), (), f"[{point}]", f"pi1 at object {point!r}")


def act(hom: GraphHom, h: OpenGraph) -> tuple[Relation, order.PointedMap]:
    """Flow of laxator obstructions induced by acting on the left part with
    a 2-morphism.  Returns the reachability of the acted-on graph (the
    target of hom) and the pointed map from the obstruction poset of
    (source, h) to that of (target, h); obstructions may trivialise, the
    basepoint never moves."""
    g, g2 = hom.source, hom.target
    if set(g.outputs) != set(h.inputs):
        raise BoundaryMismatch("homomorphism target not composable with the right part")
    rg, rg2 = reach(g), reach(g2)
    if not rg.pairs <= rg2.pairs:
        raise OracleMismatch("reachability must grow along a graph homomorphism")

    rh = reach(h)
    src = laxator_obstructions(compose_rel(rg, rh), glued_reach(g, h))
    dst = laxator_obstructions(compose_rel(rg2, rh), glued_reach(g2, h))
    # Paths survive the homomorphism, so reach(g . h) lies inside
    # reach(g2 . h) and every source subset is still a subset on the target
    # side; it keeps its name exactly when the grown composite-of-parts does
    # not cover it, that is when it is an element of dst.
    return rg2, homotopy.induced_map(src, dst, lambda e: e)


# -- text formats -------------------------------------------------------------------
#
#   inputs a,b          outputs c
#   vertex v1           edge v1 -> v2
#   in a = v1           out c = v2


def parse_open_graph(text: str) -> OpenGraph:
    boundary: dict[str, dict[str, None]] = {}  # labels in order of appearance
    vertices: set[str] = set()
    edges: set[tuple[str, str]] = set()
    in_leg: dict[str, str] = {}
    out_leg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("inputs", "outputs"):
            labels = boundary.setdefault(parts[0], {})
            for x in " ".join(parts[1:]).split(",") if len(parts) > 1 else ():
                x = x.strip()
                if not x:
                    raise ParseError(f"line {lineno}: empty {parts[0][:-1]} label")
                if x in labels:
                    raise ParseError(f"line {lineno}: duplicate {parts[0][:-1]} {x!r}")
                labels[x] = None
        elif parts[0] == "vertex" and len(parts) >= 2:
            for v in parts[1:]:
                if v in vertices:
                    raise ParseError(f"line {lineno}: duplicate vertex {v!r}")
                vertices.add(v)
        elif parts[0] == "edge" and len(parts) == 4 and parts[2] == "->":
            if (parts[1], parts[3]) in edges:
                raise ParseError(f"line {lineno}: duplicate edge {parts[1]!r} -> {parts[3]!r}")
            edges.add((parts[1], parts[3]))
        elif parts[0] in ("in", "out") and len(parts) == 4 and parts[2] == "=":
            legs = in_leg if parts[0] == "in" else out_leg
            if parts[1] in legs:
                raise ParseError(f"line {lineno}: duplicate {parts[0]} leg {parts[1]!r}")
            legs[parts[1]] = parts[3]
        else:
            raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
    if len(boundary) < 2:
        raise ParseError("open graph needs 'inputs' and 'outputs' lines")
    return OpenGraph(tuple(boundary["inputs"]), tuple(boundary["outputs"]), tuple(vertices), frozenset(edges), in_leg, out_leg)


def serialize_open_graph(g: OpenGraph) -> str:
    """The text of g.  A ParseError names the first boundary label, or else
    the first vertex, that would not read back (``fincat.check_label``)."""
    for x in (*g.inputs, *g.outputs):
        check_label(x, "boundary label", ".og", (" ", "#", ","))
    for v in g.vertices:
        check_label(v, "vertex", ".og", (" ", "#"))
    lines = ["inputs " + ",".join(g.inputs), "outputs " + ",".join(g.outputs)]
    lines += [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {u} -> {v}" for u, v in sorted(g.edges)]
    lines += [f"in {x} = {g.in_leg[x]}" for x in g.inputs]
    lines += [f"out {y} = {g.out_leg[y]}" for y in g.outputs]
    return "\n".join(lines) + "\n"


def parse_graph_hom(text: str, source: OpenGraph, target: OpenGraph) -> GraphHom:
    """Vertex-map format: 'map <source vertex> = <target vertex>' lines.
    Unmentioned vertices map to their own name; a vertex the source lacks,
    one mapped twice, or an image the target lacks is a ParseError naming
    the line."""
    vmap = {v: v for v in source.vertices}
    targets = set(target.vertices)
    mapped = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "map" and len(parts) == 4 and parts[2] == "=":
            if parts[1] not in vmap:
                raise ParseError(f"line {lineno}: {parts[1]!r} is not a source vertex")
            if parts[1] in mapped:
                raise ParseError(f"line {lineno}: duplicate map of {parts[1]!r}")
            if parts[3] not in targets:
                raise ParseError(f"line {lineno}: {parts[3]!r} is not a target vertex")
            mapped.add(parts[1])
            vmap[parts[1]] = parts[3]
        else:
            raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
    return GraphHom(source, target, vmap)


def relation_text(r: Relation) -> str:
    return homotopy.subset_name(_rel_pair_labels(r.pairs))


def open_graph_dot(g: OpenGraph) -> str:
    """DOT drawing with boundary legs as labelled half-edges."""
    quote = order.quote
    lines = ["digraph opengraph {", "  rankdir=LR;"]
    for x in g.inputs:
        lines.append(f"  {quote('in:' + x)} [shape=none];")
    for y in g.outputs:
        lines.append(f"  {quote('out:' + y)} [shape=none];")
    for v in g.vertices:
        lines.append(f"  {quote(v)} [shape=circle];")
    for x in g.inputs:
        lines.append(f"  {quote('in:' + x)} -> {quote(g.in_leg[x])} [style=dashed];")
    for u, v in sorted(g.edges):
        lines.append(f"  {quote(u)} -> {quote(v)};")
    for y in g.outputs:
        lines.append(f"  {quote(g.out_leg[y])} -> {quote('out:' + y)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
