"""Parse CLI output and compare it with a workload's own expectations.

The parser reads the three report renderings (the six-line text block, the
DOT digraph and the interchange JSON document) plus the "key: value" lines
around them.  It shares no code with obstructia.
"""

from __future__ import annotations

import json
import re

REFUSALS = ("error SizeCapExceeded", "error CapExceeded")
_PAIR = re.compile(r"\(([^(),]*),([^(),]*)\)")
_COUNT = re.compile(r"^(elements|minimal obstructions|covers) \((\d+)\): ?(.*)$")
_FLOW = re.compile(r"^obstruction flow \((\d+)\):$")
_TRIVIALISED = re.compile(r"^trivialised: (\d+) of (\d+)$")


def _split_items(text: str) -> list[str]:
    return [x for x in text.split(", ") if x] if text else []


def _text_report(lines: list[str]) -> dict:
    report = {"basepoints": 1}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        if key == "trivial":
            report["trivial"] = value == "yes"
            continue
        m = _COUNT.match(line)
        if not m:
            continue
        name, count, items = m.group(1), int(m.group(2)), m.group(3)
        listed = len(items.split("; ")) if name == "covers" and items else len(_split_items(items))
        if listed != count:
            raise ValueError(f"{name} says {count} but lists {listed}")
        report[{"minimal obstructions": "minimal"}.get(name, name)] = count
    if len(report) != 5:
        raise ValueError("incomplete text report")
    return report


def _dot_report(lines: list[str]) -> dict:
    nodes = sum(1 for x in lines if x.endswith("];") and "->" not in x)
    edges = sum(1 for x in lines if x.endswith(";") and "->" in x)
    bases = sum(1 for x in lines if "[shape=doublecircle]" in x)
    return {"elements": nodes, "covers": edges, "basepoints": bases}


def _interchange_report(text: str) -> dict:
    doc = json.loads(text)
    if doc.get("kind") != "obstruction-report":
        raise ValueError("interchange document is not an obstruction report")
    if doc["element_count"] != len(doc["elements"]):
        raise ValueError("element_count disagrees with the element list")
    leq = {tuple(p) for p in doc["leq"]}
    if not all((e, e) in leq for e in doc["elements"]):
        raise ValueError("order is not reflexive")
    bp = doc["basepoint"]
    return {
        "elements": len(doc["elements"]),
        "pairs": len(leq),
        "covers": len(doc["covers"]),
        "minimal": len(doc["minimal"]),
        "trivial": doc["trivial"],
        "basepoints": int(all((bp, e) in leq for e in doc["elements"])),
    }


def parse(text: str) -> tuple[dict[str, str], list[dict], list[str]]:
    """Split an op's output into key/value lines, reports and flow lines."""
    lines = text.split("\n")
    fields: dict[str, str] = {}
    reports: list[dict] = []
    flow: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line == "{" or line.startswith("digraph hasse {"):
            j = lines.index("}", i)
            block = lines[i : j + 1]
            reports.append(_interchange_report("\n".join(block)) if line == "{" else _dot_report(block))
            i = j + 1
        elif line.startswith("context: "):
            reports.append(_text_report(lines[i : i + 6]))
            i += 6
        elif _FLOW.match(line) or line.startswith("  ") or _TRIVIALISED.match(line):
            flow.append(line)
            i += 1
        else:
            key, sep, value = line.partition(": ")
            if sep:
                fields[key] = value
            i += 1
    return fields, reports, flow


def relation(text: str) -> frozenset:
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a relation: {text!r}")
    pairs = frozenset(_PAIR.findall(text))
    if len(pairs) != (text.count("(")):
        raise ValueError(f"malformed relation: {text!r}")
    return pairs


def check(op, code: int, out: str, err: str) -> tuple[str, list[dict]]:
    """Return ("ok" | "refused" | "wrong: <why>", parsed reports).

    A size-cap refusal is the program's documented answer for an input past
    its caps: it is counted, not judged.  Anything else that exits non-zero,
    and any output that disagrees with the expectation, is wrong.
    """
    if code != 0:
        if code == 1 and err.startswith(REFUSALS):
            return "refused", []
        return f"wrong: exit {code}: {err.strip()[:200]}", []
    try:
        fields, reports, flow = parse(out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"wrong: unparsable output ({exc})", []
    for key, want in op.fields.items():
        if fields.get(key) != want:
            return f"wrong: {key} is {fields.get(key)!r}, expected {want!r}", reports
    for key, want in op.relations.items():
        try:
            got = relation(fields.get(key, ""))
        except ValueError as exc:
            return f"wrong: {key}: {exc}", reports
        if got != want:
            return f"wrong: {key} is {sorted(got)}, expected {sorted(want)}", reports
    if len(reports) != len(op.reports):
        return f"wrong: {len(reports)} reports, expected {len(op.reports)}", reports
    for i, (got, want) in enumerate(zip(reports, op.reports)):
        if got.get("basepoints") != 1:
            return f"wrong: report {i} does not have exactly one basepoint", reports
        for key, value in want.items():
            if value is None or key not in got:  # a rendering the format does not show
                continue
            if got.get(key) != value:
                return f"wrong: report {i} {key} is {got.get(key)}, expected {value}", reports
    if op.flow is not None:
        moved, trivialised = op.flow
        head = _FLOW.match(flow[0]) if flow else None
        tail = _TRIVIALISED.match(flow[-1]) if flow else None
        if not head or not tail or len(flow) != moved + 2:
            return "wrong: malformed obstruction flow", reports
        got = (int(head.group(1)), int(tail.group(1)), int(tail.group(2)))
        if got != (moved, trivialised, moved):
            return f"wrong: flow {got}, expected {(moved, trivialised, moved)}", reports
    return "ok", reports
