"""Span recording around obstructia's public functions, and the per-layer
metrics computed from the spans.

Wrappers are installed by replacing module attributes.  Calls between and
within obstructia's modules go through module globals, so every call of a
public function lands in a wrapper and nothing under ``src/`` changes.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from time import perf_counter

MODULES = ("fincat", "order", "homotopy", "setcat", "opengraph", "states", "cli")


def _derived(args, result):
    return (len(result.cat.comp), len(result.cat.morphisms))


# Counts read at the wrapper from a call's arguments or return value.
SIZES = {
    "fincat.slice_category": _derived,
    "fincat.parallel_arrows": _derived,
    "fincat.validate_category": lambda args, result: len(result.morphisms) ** 2,
    "order.make_poset": lambda args, result: len(result.leq),
    "cli.run": lambda args, result: len(args[1].getvalue().encode("utf-8")),
}


class Tracer:
    """Records (name, start, end, parent span, op id, size) for every call."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, size = self.spans, self.stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                span[5] = "raised " + type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def install(self, package) -> int:
        """Wrap every public function defined in the traced modules."""
        count = 0
        for short in MODULES:
            module = getattr(package, short)
            for name, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    setattr(module, name, self.wrap(f"{short}.{name}", fn))
                    count += 1
        return count

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its child spans, summed
        per function name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - child[i])
        return totals

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "size"], "spans": self.spans}, fh)


# Self-time metrics: metric -> the functions whose self time it sums.
SELF_TIME = {
    "fincat.parallel_s": ["fincat.parallel_arrows"],
    "fincat.slice_s": ["fincat.slice_category"],
    "fincat.validate_s": ["fincat.validate_category"],
    "fincat.parse_s": ["fincat.parse_category"],
    "order.reflect_s": ["order.poset_reflection"],
    "order.collapse_s": ["order.lower_closure", "order.collapse_lower"],
    "order.make_poset_s": ["order.make_poset"],
    "order.hasse_s": ["order.hasse"],
    "order.thin_category_s": ["order.thin_category"],
    "homotopy.pi0_s": ["homotopy.pi0"],
    "homotopy.pi1_s": ["homotopy.pi1"],
    "homotopy.analyze_s": ["homotopy.analyze_morphism", "homotopy.brute_split_epi", "homotopy.brute_mono"],
    "homotopy.powerset_report_s": ["homotopy.powerset_report"],
    "homotopy.report_to_dict_s": ["homotopy.report_to_dict"],
    "setcat.parse_s": ["setcat.parse_function"],
    "setcat.pi_function_s": ["setcat.pi0_function", "setcat.pi1_function", "setcat.kernel_pair"],
    "opengraph.parse_s": ["opengraph.parse_open_graph", "opengraph.parse_graph_hom"],
    "opengraph.reach_s": ["opengraph.reach"],
    "opengraph.compose_s": ["opengraph.compose", "opengraph.compose_rel"],
    "opengraph.laxator_s": ["opengraph.laxator_obstructions"],
    "opengraph.pi1_laxator_s": ["opengraph.pi1_laxator"],
    "opengraph.act_s": ["opengraph.act"],
    "states.obstructions_s": ["states.*"],  # the whole states layer
    "cli.run_s": ["cli.run", "cli.build_parser"],  # argparse, file reads, formatting
}

COUNTS = {
    "fincat.derived_comp_entries": "count",
    "fincat.derived_morphisms": "count",
    "fincat.cap_refusals": "count",
    "fincat.validate_m2": "count",
    "order.make_poset_pairs": "count",
    "order.hasse_per_report": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

PER_LAYER = [(name, "s") for name in SELF_TIME] + list(COUNTS.items())


def layer_metrics(tracer: Tracer, passes: int, reports: int, speed: float) -> dict:
    """Every per-layer metric but trace.overhead_frac, which needs the
    untraced run too, as {name: (value per pass, unit, base)}.  Times are
    at reference speed: multiplied by the run's calibration ratio."""
    selfs = tracer.self_times()
    out = {}
    for metric, names in SELF_TIME.items():
        total = 0.0
        for name, t in selfs.items():
            if name in names or any(n.endswith("*") and name.startswith(n[:-1]) for n in names):
                total += t
        out[metric] = (total * speed / passes, "s", f"self time per pass over {passes} passes, reference speed")

    def spans(*names):
        return [s for s in tracer.spans if s[0] in names]

    derived = spans("fincat.slice_category", "fincat.parallel_arrows")
    built = [s[5] for s in derived if isinstance(s[5], tuple)]
    refused = sum(1 for s in derived if s[5] == "raised SizeCapExceeded")
    validated = [s[5] for s in spans("fincat.validate_category") if isinstance(s[5], int)]
    posets = [s[5] for s in spans("order.make_poset") if isinstance(s[5], int)]
    hasse = len(spans("order.hasse"))
    written = [s[5] for s in spans("cli.run") if isinstance(s[5], int)]
    out["fincat.derived_comp_entries"] = (sum(c for c, _ in built) / passes, "count", f"{len(built)} derived categories per {passes} passes")
    out["fincat.derived_morphisms"] = (sum(m for _, m in built) / passes, "count", f"{len(built)} derived categories per {passes} passes")
    out["fincat.cap_refusals"] = (refused / passes, "count", f"of {len(derived) / passes:g} derived builds per pass")
    out["fincat.validate_m2"] = (sum(validated) / passes, "count", f"{len(validated)} validations per {passes} passes")
    out["order.make_poset_pairs"] = (sum(posets) / passes, "count", f"{len(posets)} posets per {passes} passes")
    out["order.hasse_per_report"] = (hasse / max(reports, 1), "ratio", f"{hasse} hasse calls / {reports} reports")
    out["cli.output_bytes"] = (sum(written) / passes, "bytes", f"{len(written)} ops per {passes} passes")
    return out


def top_self(tracer: Tracer, n: int = 8) -> list[tuple[str, float]]:
    selfs = tracer.self_times()
    return sorted(selfs.items(), key=lambda kv: -kv[1])[:n]
