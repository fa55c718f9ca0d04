"""Open graphs: directed graphs with input and output boundary legs.

Composition glues the outputs of the left graph onto the inputs of the right
one (a pushout over the shared boundary); a composite vertex is named by
the side-qualified vertices it merges, primed if that name is taken.
Reachability sends an open graph to the relation pairing boundary labels
connected by a directed path; it is lax with respect to gluing, and the gap
between "compose the relations" and "relation of the composite" is measured
by the same powerset-collapse obstruction posets (at most
``homotopy.POWERSET_CAP`` pairs), read off those two relations so that each
is computed once.  Its pi1 is trivial by theorem (hom-categories of
relations are posets), so it is read off and builds no powerset.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class OpenGraph:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    vertices: tuple[str, ...]
    edges: frozenset
    in_leg: dict[str, str]
    out_leg: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        vs = set(self.vertices)
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise DanglingReference(f"edge ({u!r}, {v!r}) uses unknown vertex")
        for x in self.inputs:
            if x not in self.in_leg:
                raise DanglingReference(f"input {x!r} has no leg")
            if self.in_leg[x] not in vs:
                raise DanglingReference(f"input leg of {x!r} lands outside the graph")
        for y in self.outputs:
            if y not in self.out_leg:
                raise DanglingReference(f"output {y!r} has no leg")
            if self.out_leg[y] not in vs:
                raise DanglingReference(f"output leg of {y!r} lands outside the graph")


@dataclass(frozen=True)
class Relation:
    dom_set: tuple[str, ...]
    cod_set: tuple[str, ...]
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "dom_set", tuple(sorted(set(self.dom_set))))
        object.__setattr__(self, "cod_set", tuple(sorted(set(self.cod_set))))
        for x, y in self.pairs:
            if x not in self.dom_set or y not in self.cod_set:
                raise TypeMismatch(f"pair ({x!r}, {y!r}) outside carrier")


@dataclass(frozen=True)
class GraphHom:
    """Interface-preserving graph homomorphism between open graphs sharing
    boundaries: edges map to edges and both legs commute."""

    source: OpenGraph
    target: OpenGraph
    vertex_map: dict[str, str]

    def __post_init__(self):
        s, t = self.source, self.target
        if set(s.inputs) != set(t.inputs) or set(s.outputs) != set(t.outputs):
            raise BoundaryMismatch("graph homomorphism must preserve the boundary sets")
        tv = set(t.vertices)
        for v in s.vertices:
            if v not in self.vertex_map:
                raise NotAGraphHom(f"vertex {v!r} not mapped")
            if self.vertex_map[v] not in tv:
                raise NotAGraphHom(f"image of {v!r} is not a target vertex")
        for u, v in s.edges:
            if (self.vertex_map[u], self.vertex_map[v]) not in t.edges:
                raise NotAGraphHom(f"edge ({u!r}, {v!r}) has no image edge")
        for x in s.inputs:
            if self.vertex_map[s.in_leg[x]] != t.in_leg[x]:
                raise NotAGraphHom(f"input leg {x!r} does not commute")
        for y in s.outputs:
            if self.vertex_map[s.out_leg[y]] != t.out_leg[y]:
                raise NotAGraphHom(f"output leg {y!r} does not commute")


# -- reachability and relation composition ------------------------------------


def _reachable_from(succ: dict[str, list[str]], start: str) -> set:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reach(g: OpenGraph) -> Relation:
    """(x, y) related iff a directed path (length >= 0) runs from the vertex
    under input x to the vertex under output y."""
    succ: dict[str, list[str]] = {}
    for u, v in g.edges:
        succ.setdefault(u, []).append(v)
    pairs = set()
    for x in g.inputs:
        seen = _reachable_from(succ, g.in_leg[x])
        for y in g.outputs:
            if g.out_leg[y] in seen:
                pairs.add((x, y))
    return Relation(g.inputs, g.outputs, frozenset(pairs))


def compose_rel(r: Relation, s: Relation) -> Relation:
    if set(r.cod_set) != set(s.dom_set):
        raise TypeMismatch("relations not composable")
    pairs = frozenset(
        (x, z) for (x, y) in r.pairs for (y2, z) in s.pairs if y == y2
    )
    return Relation(r.dom_set, s.cod_set, pairs)


def identity_graph(boundary: tuple[str, ...]) -> OpenGraph:
    legs = {x: x for x in boundary}
    return OpenGraph(tuple(boundary), tuple(boundary), tuple(boundary), frozenset(), dict(legs), dict(legs))


# -- gluing composition ----------------------------------------------------------


def compose(g: OpenGraph, h: OpenGraph) -> OpenGraph:
    """Glue outputs of g to the equally-named inputs of h.

    Vertices of the composite are classes of the equivalence generated by
    out_leg_g(y) ~ in_leg_h(y); a class is named by the sorted, side-qualified
    names it merges, so composites are reproducible."""
    if set(g.outputs) != set(h.inputs):
        raise BoundaryMismatch(
            f"outputs {sorted(g.outputs)} do not match inputs {sorted(h.inputs)}"
        )

    def q(side: str, v: str) -> str:
        return f"{side}.{v}"

    parent: dict[str, str] = {}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: str, b: str):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for v in g.vertices:
        parent[q("L", v)] = q("L", v)
    for v in h.vertices:
        parent[q("R", v)] = q("R", v)
    for y in g.outputs:
        union(q("L", g.out_leg[y]), q("R", h.in_leg[y]))

    members: dict[str, list[str]] = {}
    for a in sorted(parent):
        members.setdefault(find(a), []).append(a)
    # A left vertex named "a+R.c" renders like the class of L.a and R.c:
    # name classes in sorted-member order and prime a repeated rendering.
    cls_name: dict[str, str] = {}
    used: set = set()
    for root, ms in sorted(members.items(), key=lambda item: item[1]):
        name = "+".join(ms)
        while name in used:
            name += "'"
        used.add(name)
        cls_name[root] = name

    def cl(side: str, v: str) -> str:
        return cls_name[find(q(side, v))]

    vertices = sorted(set(cls_name.values()))
    edges = set()
    for u, v in g.edges:
        edges.add((cl("L", u), cl("L", v)))
    for u, v in h.edges:
        edges.add((cl("R", u), cl("R", v)))
    in_leg = {x: cl("L", g.in_leg[x]) for x in g.inputs}
    out_leg = {z: cl("R", h.out_leg[z]) for z in h.outputs}
    return OpenGraph(g.inputs, h.outputs, tuple(vertices), frozenset(edges), in_leg, out_leg)


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
    """pi1 at the same point.  Hom-categories of relations are posets, so
    every parallel pair of sub-relations is an identity pair and pi1 is the
    one-point poset that homotopy.pi1 gives on the thin category of
    sub-relations (the tests keep that as the oracle)."""
    _check_laxator(composed, whole)
    point = homotopy.subset_name(_rel_pair_labels(composed.pairs))
    bp = f"[{point}]"
    pp = order.PointedPoset(order.make_poset([bp], [(bp, bp)]), bp)
    return homotopy.report_from_pointed(pp, f"pi1 at object {point!r}")


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
    src = laxator_obstructions(compose_rel(rg, rh), reach(compose(g, h)))
    dst = laxator_obstructions(compose_rel(rg2, rh), reach(compose(g2, h)))
    # Paths survive the homomorphism, so reach(g . h) lies inside
    # reach(g2 . h) and every source subset is still a subset on the target
    # side; it keeps its name exactly when the grown composite-of-parts does
    # not cover it, that is when it is an element of dst.
    return rg2, homotopy._induced_map(src, dst, lambda e: e)


# -- text formats -------------------------------------------------------------------
#
#   inputs a,b          outputs c
#   vertex v1           edge v1 -> v2
#   in a = v1           out c = v2


def parse_open_graph(text: str) -> OpenGraph:
    boundary: dict[str, dict[str, None]] = {}  # labels in order of appearance
    vertices: list[str] = []
    edges = set()
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
            vertices.extend(parts[1:])
        elif parts[0] == "edge" and len(parts) == 4 and parts[2] == "->":
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
    Unmentioned vertices map to their own name."""
    vmap = {v: v for v in source.vertices}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "map" and len(parts) == 4 and parts[2] == "=":
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
