"""Seeded inputs, op lists and independently derived expectations.

Nothing here imports obstructia: every expected count is worked out from the
structure of the generated input (image tuples, kernel-pair sizes, a
breadth-first search over open graphs), so a wrong engine answer cannot also
be the benchmark's reference.

A workload is a fixed list of op *slots*.  The seed chooses the concrete
input of each slot (labels, relabellings, graph shapes, which elements are
hit), never its size class, so every seed costs about the same and the spread
between seeds stays small.  One pass runs every slot once; runs consist of
whole passes, so the op mix of a run does not depend on how many passes fit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from math import comb
from pathlib import Path

WORKLOADS = ("classify", "powerset", "laxator")
# Passes per timed child for 20 s of measuring: a pass takes about 10, 5 and
# 3.5 s on a quiet 2-core 2.0 GHz x86-64 host with Python 3.11.
PASSES_PER_20S = {"classify": 1, "powerset": 2, "laxator": 3}


@dataclass
class Op:
    """One CLI invocation and what its output must say."""

    kind: str  # short label for reporting, e.g. "set pi0 u=10 dot"
    argv: list[str]
    fields: dict[str, str] = field(default_factory=dict)  # "key: value" lines
    relations: dict[str, frozenset] = field(default_factory=dict)  # relation lines
    reports: list[dict] = field(default_factory=list)  # expected report counts
    flow: tuple[int, int] | None = None  # (moved, trivialised) for opengraph act


def powerset_counts(u: int, c: int) -> dict:
    """Element, order-pair, cover and minimal counts of the pointed poset of
    subsets of a u-set not contained in a fixed c-subset, over a basepoint."""
    return {
        "elements": 1 + 2**u - 2**c,
        "pairs": 3**u - 3**c * 2 ** (u - c) + 2**u - 2**c + 1,
        "covers": u * 2**u // 2 - u * 2**c + c * 2**c // 2 + (u - c),
        "minimal": u - c,
        "trivial": u == c,
    }


def bounded_subsets_counts(k: int, d: int, bound: int = 3) -> dict:
    """pi1 of a finite-set skeleton capped at cardinality ``bound``: classes
    are the subsets of size <= bound of a k-element kernel pair, and the
    subsets of its d-element diagonal collapse to the basepoint."""
    elements = 1 + sum(comb(k, j) for j in range(bound + 1)) - 2**d
    return {"elements": elements, "minimal": k - d, "trivial": k == d}


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct ids of equal length, in a seeded order."""
    width = len(str(4 * n))
    picks = rng.sample(range(4 * n), n)
    return [f"{prefix}{p:0{width}d}" for p in picks]


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- classify -----------------------------------------------------------------


def _cat_text(objects, morphisms, identity, comp) -> str:
    lines = [f"obj {x}" for x in objects]
    lines += [f"mor {m} : {d} -> {c}" for m, d, c in morphisms]
    lines += [f"id {x} = {i}" for x, i in identity.items()]
    lines += [f"comp {f} ; {g} = {h}" for (f, g), h in comp.items()]
    return "\n".join(lines) + "\n"


ZN_LADDER = range(8, 21, 2)


def classify_ops(rng: random.Random, workdir: Path) -> list[Op]:
    """Every morphism of the skeleton of finite sets of size <= 3, pi0 and pi1
    at each of its objects, and pi1 of cyclic groups Z/8 to Z/20."""
    k = 3
    obj_name = dict(zip(range(k + 1), _names(rng, "s", k + 1)))
    fns = [(m, n, im) for m in range(k + 1) for n in range(k + 1) for im in product(range(n), repeat=m)]
    mor_name = dict(zip(fns, _names(rng, "f", len(fns))))
    by_domain: dict[int, list] = {}
    for f in fns:
        by_domain.setdefault(f[0], []).append(f)
    comp = {}
    for f in fns:
        for g in by_domain[f[1]]:
            comp[(mor_name[f], mor_name[g])] = mor_name[(f[0], g[1], tuple(g[2][i] for i in f[2]))]
    decls = [(mor_name[f], obj_name[f[0]], obj_name[f[1]]) for f in fns]
    rng.shuffle(decls)
    identity = {obj_name[n]: mor_name[(n, n, tuple(range(n)))] for n in range(k + 1)}
    ambient = _write(workdir, "ambient.cat", _cat_text(list(obj_name.values()), decls, identity, comp))

    ops = []
    for f in fns:
        m, n, im = f
        image = len(set(im))
        kernel = sum(im.count(v) ** 2 for v in set(im))
        surj, inj = image == n, image == m
        yn = {True: "yes", False: "no"}
        ops.append(Op(
            f"cat analyze {m}->{n}",
            ["cat", "analyze", ambient, "--morphism", mor_name[f]],
            fields={"split-epi": yn[surj], "mono": yn[inj], "iso": yn[surj and inj]},
            reports=[powerset_counts(n, image) | {"pairs": None}, bounded_subsets_counts(kernel, m)],
        ))
    for n in range(k + 1):
        pi0 = {"elements": 2, "covers": 1, "minimal": 1, "trivial": False} if n == 0 else powerset_counts(0, 0)
        ops.append(Op(f"cat pi0 at {n}", ["cat", "pi0", ambient, "--object", obj_name[n]], reports=[pi0]))
        ops.append(Op(
            f"cat pi1 at {n}", ["cat", "pi1", ambient, "--object", obj_name[n]],
            reports=[bounded_subsets_counts(n * n, n)],
        ))

    # Z/n: one-object groupoids, where the reflection has one large class.
    # The whole ladder runs on every pass: a single seeded n would put its op
    # above the median latency on some seeds and below it on others.
    for order in ZN_LADDER:
        g = _names(rng, "g", order)
        zn = _cat_text(
            ["*"], [(x, "*", "*") for x in g], {"*": g[0]},
            {(g[i], g[j]): g[(i + j) % order] for i in range(order) for j in range(order)},
        )
        path = _write(workdir, f"cyclic{order}.cat", zn)
        ops.append(Op(
            f"cat pi1 Z/{order}", ["cat", "pi1", path, "--object", "*"],
            reports=[{"elements": order, "minimal": order - 1, "covers": 0, "trivial": False}],
        ))
    return ops


# -- powerset -------------------------------------------------------------------

FORMATS = ("text", "dot", "interchange")
# (codomain size, image size) for set pi0 and fibre sizes for set pi1 (the
# kernel pair has sum(s*s) elements).  The first entry of each is the top of
# its ladder, at the CLI cap of 10, and runs in all three formats; the smaller
# sizes run in two formats each, rotating.  Top-size ops are about a sixth of
# a pass, so they set op_p90_ms, and the small ones set op_p50_ms.
PI0_LADDER = [(10, 5), (9, 3), (8, 2), (7, 6), (6, 3), (6, 1), (5, 0), (4, 2), (4, 0), (3, 1), (2, 1)]
PI1_LADDER = [(3, 1), (3,), (2, 2), (2, 1, 1, 1), (2, 1, 1), (2, 1), (2,)]
# GF(2) dimensions for states obstruct, one per pass so the states caches
# never see a repeat.  (1,6) and (6,1) fit m*n <= 6 too, but at about 6 s each
# they would outweigh the rest of a pass.
GF2_DIMS = [(2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 2), (2, 1), (1, 4), (4, 1), (1, 1), (1, 5), (5, 1)]
# Past every powerset cap (CLI 10, library 12): a refusal on each pass.
PROBE_CODOMAIN = 16


def _formats(rung: int) -> tuple[str, ...]:
    return FORMATS if rung == 0 else (FORMATS[rung % 3], FORMATS[(rung + 1) % 3])


def _fn_text(name, dom, cod, mapping) -> str:
    body = ", ".join(f"{x}=>{mapping[x]}" for x in dom)
    return f"fn {name} : {{{','.join(dom)}}} -> {{{','.join(cod)}}} ; {body}\n"


def _pi0_function(rng, workdir, idx, u, c):
    cod = _names(rng, "y", u)
    image = rng.sample(cod, c)
    dom = _names(rng, "x", c + (rng.randint(0, 2) if c else 0))
    mapping = {x: image[i] if i < c else rng.choice(image) for i, x in enumerate(dom)}
    return _write(workdir, f"pi0_{idx}.fn", _fn_text(f"f{idx}", dom, cod, mapping))


def _pi1_function(rng, workdir, idx, fibres):
    cod = _names(rng, "y", len(fibres) + rng.randint(0, 2))
    dom = _names(rng, "x", sum(fibres))
    targets = rng.sample(cod, len(fibres))
    values = [t for t, s in zip(targets, fibres) for _ in range(s)]
    rng.shuffle(values)
    return _write(workdir, f"pi1_{idx}.fn", _fn_text(f"k{idx}", dom, cod, dict(zip(dom, values))))


def _set_op(kind, path, fmt, u, c) -> Op:
    report = powerset_counts(u, c)
    if fmt != "interchange":
        report["pairs"] = None  # only the interchange document lists the order
    return Op(f"set {kind} u={u} {fmt}", ["set", kind, "--fn", path, "--format", fmt], reports=[report])


def _gf2_op(m: int, n: int) -> Op:
    """states obstruct over GF(2): the separable states of an m x n tensor are
    the rank <= 1 matrices, and only the zero tensor has several preimages."""
    states, sep = 2 ** (m * n), 1 + (2**m - 1) * (2**n - 1)
    zero_fibre = 2**m + 2**n - 1
    kernel, dom = zero_fibre**2 + (2**m - 1) * (2**n - 1), 2 ** (m + n)
    return Op(
        f"states gf2 {m},{n}",
        ["states", "obstruct", "--context", "gf2", "--dims", f"{m},{n}"],
        fields={"states of tensor": str(states), "separable": str(sep)},
        reports=[_states_report(states, sep), _states_report(kernel, dom)],
    )


def _states_report(u: int, c: int) -> dict:
    if u <= 12:  # the library powerset cap; above it only the minimal layer is kept
        return powerset_counts(u, c) | {"pairs": None}
    return {"elements": 1 + u - c, "covers": u - c, "minimal": u - c, "trivial": u == c}


def _cartesian_op(rng: random.Random, p: int) -> Op:
    a, b = _names(rng, f"a{p}x", 2), _names(rng, f"b{p}x", 3)
    return Op(
        "states cartesian 2x3",
        ["states", "obstruct", "--context", "cartesian", "--sets", f"{','.join(a)}|{','.join(b)}"],
        fields={"states of tensor": "6", "separable": "6"},
        reports=[_states_report(6, 6), _states_report(6, 6)],
    )


def powerset_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i, (u, c) in enumerate(PI0_LADDER):
        path = _pi0_function(rng, workdir, i, u, c)
        ops += [_set_op("pi0", path, fmt, u, c) for fmt in _formats(i)]
    for i, fibres in enumerate(PI1_LADDER):
        path = _pi1_function(rng, workdir, i, fibres)
        u, c = sum(s * s for s in fibres), sum(fibres)
        ops += [_set_op("pi1", path, fmt, u, c) for fmt in _formats(i)]
    probe = _pi0_function(rng, workdir, "probe", PROBE_CODOMAIN, 3)
    ops.append(_set_op("pi0", probe, "text", PROBE_CODOMAIN, 3))
    return ops


def powerset_pass_ops(rng: random.Random, p: int) -> list[Op]:
    """The states slots of pass p: inputs differ on every pass."""
    return [_gf2_op(*GF2_DIMS[p]), _cartesian_op(rng, p)]


# -- laxator ----------------------------------------------------------------------


@dataclass
class OpenGraph:
    inputs: list[str]
    outputs: list[str]
    vertices: list[str]
    edges: list[tuple[str, str]]
    in_leg: dict[str, str]
    out_leg: dict[str, str]

    def text(self) -> str:
        lines = ["inputs " + ",".join(self.inputs), "outputs " + ",".join(self.outputs)]
        lines += [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {u} -> {v}" for u, v in self.edges]
        lines += [f"in {x} = {self.in_leg[x]}" for x in self.inputs]
        lines += [f"out {y} = {self.out_leg[y]}" for y in self.outputs]
        return "\n".join(lines) + "\n"


def reach(g: OpenGraph) -> frozenset:
    succ: dict[str, list[str]] = {}
    for u, v in g.edges:
        succ.setdefault(u, []).append(v)
    pairs = set()
    for x in g.inputs:
        seen, todo = {g.in_leg[x]}, [g.in_leg[x]]
        while todo:
            for v in succ.get(todo.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        pairs |= {(x, y) for y in g.outputs if g.out_leg[y] in seen}
    return frozenset(pairs)


def compose_relations(r, s) -> frozenset:
    return frozenset((x, z) for x, y in r for y2, z in s if y == y2)


def glued_reach(g: OpenGraph, h: OpenGraph) -> frozenset:
    """Reachability of the gluing of g's outputs to h's inputs, with vertices
    keyed by (side, name) tuples so no two names can merge by accident."""
    parent = {("L", v): ("L", v) for v in g.vertices} | {("R", v): ("R", v) for v in h.vertices}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for y in g.outputs:
        a, b = find(("L", g.out_leg[y])), find(("R", h.in_leg[y]))
        if a != b:
            parent[b] = a
    succ: dict = {}
    for side, graph in (("L", g), ("R", h)):
        for u, v in graph.edges:
            succ.setdefault(find((side, u)), set()).add(find((side, v)))
    pairs = set()
    for x in g.inputs:
        start = find(("L", g.in_leg[x]))
        seen, todo = {start}, [start]
        while todo:
            for v in succ.get(todo.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        pairs |= {(x, z) for z in h.outputs if find(("R", h.out_leg[z])) in seen}
    return frozenset(pairs)


def _gadget_graphs(rng: random.Random, n_in: int, n_out: int, width: int, parts: int):
    """Open graphs G, H whose gluing connects `width` input/output pairs, of
    which `parts` are already connected through the parts (a path through
    one boundary label) and the rest only through a zigzag that crosses the
    boundary three times.  Returns (G, H, zigzags) where each zigzag is the
    pair of G vertices (entry, exit) whose merge makes that pair direct."""
    pairs = rng.sample([(x, z) for x in range(n_in) for z in range(n_out)], width)
    direct = set(rng.sample(range(width), parts))
    n_labels = parts + 3 * (width - parts)
    labels = [str(i + 1) for i in range(n_labels)]
    rng.shuffle(labels)
    gv = iter(_names(rng, "v", n_in + 3 * n_labels + 6))
    hv = iter(_names(rng, "u", n_out + 3 * n_labels + 6))
    inputs = [str(i + 1) for i in range(n_in)]
    outputs = [str(i + 1) for i in range(n_out)]
    g_in = {x: next(gv) for x in inputs}
    h_out = {z: next(hv) for z in outputs}
    g_edges, h_edges, g_out, h_in = [], [], {}, {}
    zigzags = []
    label = iter(labels)
    for i, (x, z) in enumerate(pairs):
        vx, uz = g_in[inputs[x]], h_out[outputs[z]]
        if i in direct:
            m = next(label)
            g_out[m], h_in[m] = next(gv), next(hv)
            mid = next(gv)  # a two-step path on the left
            g_edges += [(vx, mid), (mid, g_out[m])]
            h_edges.append((h_in[m], uz))
        else:
            a, b, c = next(label), next(label), next(label)
            for m in (a, b, c):
                g_out[m], h_in[m] = next(gv), next(hv)
            g_edges += [(vx, g_out[a]), (g_out[b], g_out[c])]
            h_edges += [(h_in[a], h_in[b]), (h_in[c], uz)]
            zigzags.append((g_out[a], g_out[c]))
    # Dead ends that change no reachability: sinks hanging off live vertices.
    g_live, h_live = list(g_in.values()) + list(g_out.values()), list(h_in.values()) + list(h_out.values())
    for live, edges, names in ((g_live, g_edges, gv), (h_live, h_edges, hv)):
        for _ in range(3):
            edges.append((rng.choice(live), next(names)))
    mids = sorted(g_out)
    g = OpenGraph(inputs, mids, _vertices(g_in, g_out, g_edges), g_edges, g_in, g_out)
    h = OpenGraph(mids, outputs, _vertices(h_in, h_out, h_edges), h_edges, h_in, h_out)
    for graph in (g, h):
        rng.shuffle(graph.edges)
        rng.shuffle(graph.vertices)
    if (len(glued_reach(g, h)), len(compose_relations(reach(g), reach(h)))) != (width, parts):
        raise RuntimeError(f"generated open graphs miss width {width} / parts {parts}")
    return g, h, zigzags


def _vertices(legs_a, legs_b, edges) -> list[str]:
    vs = set(legs_a.values()) | set(legs_b.values())
    for u, v in edges:
        vs |= {u, v}
    return sorted(vs)


def _merge(g: OpenGraph, fold: dict[str, str]) -> OpenGraph:
    def f(v):
        return fold.get(v, v)

    return OpenGraph(
        list(g.inputs), list(g.outputs), sorted({f(v) for v in g.vertices}),
        sorted({(f(u), f(v)) for u, v in g.edges}),
        {x: f(v) for x, v in g.in_leg.items()}, {y: f(v) for y, v in g.out_leg.items()},
    )


# (inputs, outputs, width, width through the parts); width 8 is the pi1 cap.
# One width-8 op is most of a pass's time, so it sets ops_per_s; the three
# width-6 ops sit at op_p90_ms; the small widths set op_p50_ms.
OBSTRUCT_LADDER = [
    (3, 3, 8, 3),
    (2, 3, 6, 2), (3, 2, 6, 4), (2, 4, 6, 0),
    (2, 2, 4, 1), (2, 2, 4, 3), (1, 4, 4, 0), (4, 1, 4, 2), (2, 2, 4, 2),
    (1, 3, 3, 1), (3, 1, 3, 0), (2, 2, 3, 2), (1, 3, 3, 0), (1, 2, 2, 0),
    (2, 1, 2, 1), (2, 2, 2, 0), (3, 1, 2, 1), (1, 1, 1, 0), (1, 1, 1, 1), (2, 2, 1, 0),
]
# (inputs, outputs, width, width through the parts, zigzags merged by the hom)
ACT_LADDER = [
    (3, 3, 8, 4, 2), (2, 3, 6, 2, 3), (2, 2, 4, 1, 2), (2, 2, 4, 0, 3), (2, 2, 3, 0, 1),
    (1, 3, 3, 1, 2), (1, 2, 2, 0, 2), (2, 1, 2, 0, 1), (1, 1, 1, 0, 1),
]
# Boundary carrier 4 x 4 = 16 is past every pair cap: a refusal on each pass.
PROBE_GRAPH = (4, 4, 16, 16)


def _obstruct_op(g: OpenGraph, h: OpenGraph, gp: str, hp: str, tag: str) -> Op:
    rg, rh, whole = reach(g), reach(h), glued_reach(g, h)
    parts = compose_relations(rg, rh)
    w, c = len(whole), len(parts)
    return Op(
        f"opengraph obstruct {tag}w={w}",
        ["opengraph", "obstruct", gp, hp],
        fields={"pi1 trivial": "yes"},
        relations={"reach left": rg, "reach right": rh, "composite of parts": parts, "reach of composite": whole},
        reports=[powerset_counts(w, c) | {"pairs": None}],
    )


def laxator_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i, (n_in, n_out, width, parts) in enumerate(OBSTRUCT_LADDER):
        g, h, _ = _gadget_graphs(rng, n_in, n_out, width, parts)
        gp, hp = _write(workdir, f"G{i}.og", g.text()), _write(workdir, f"H{i}.og", h.text())
        ops.append(_obstruct_op(g, h, gp, hp, ""))
    for i, (n_in, n_out, width, parts, merged) in enumerate(ACT_LADDER):
        g, h, zigzags = _gadget_graphs(rng, n_in, n_out, width, parts)
        fold = {exit_: entry for entry, exit_ in rng.sample(zigzags, merged)}
        g2 = _merge(g, fold)
        whole, before = glued_reach(g, h), compose_relations(reach(g), reach(h))
        after = compose_relations(reach(g2), reach(h))
        shared = len(whole & after)
        paths = [_write(workdir, f"A{i}.{ext}", text) for ext, text in (
            ("og", g.text()), ("acted.og", g2.text()),
            ("gh", "".join(f"map {v} = {w}\n" for v, w in sorted(fold.items()))), ("right.og", h.text()),
        )]
        ops.append(Op(
            f"opengraph act w={width}", ["opengraph", "act", *paths],
            relations={"reach of acted graph": reach(g2)},
            flow=(2 ** len(whole) - 2 ** len(before), 2**shared - 2 ** len(before)),
        ))
    g, h, _ = _gadget_graphs(rng, *PROBE_GRAPH)
    gp, hp = _write(workdir, "probe_G.og", g.text()), _write(workdir, "probe_H.og", h.text())
    ops.append(_obstruct_op(g, h, gp, hp, "probe "))
    return ops


# -- entry points -------------------------------------------------------------------

_BUILDERS = {"classify": classify_ops, "powerset": powerset_ops, "laxator": laxator_ops}


class Workload:
    """The generated inputs of one workload and seed.  ``pass_ops(p)`` is the
    op list of pass p; only the states slots of ``powerset`` vary by pass."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in _BUILDERS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.fixed = _BUILDERS[name](self.rng, workdir)
        self._per_pass: dict[int, list[Op]] = {}
        if name == "powerset":
            for p in range(len(GF2_DIMS)):
                self._per_pass[p] = powerset_pass_ops(self.rng, p)

    @property
    def max_passes(self) -> int:
        return len(GF2_DIMS) if self.name == "powerset" else 10**9

    def pass_ops(self, p: int) -> list[Op]:
        return self.fixed + self._per_pass.get(p, [])
