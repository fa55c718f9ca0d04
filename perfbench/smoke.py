"""Smoke test of the benchmark itself (standard library only).

    python3 perfbench/smoke.py

Runs every workload in both modes on a few op slots, checks that each
declared metric comes out with its unit, that digests agree across modes and
hash seeds, that the checker rejects corrupted outputs, and that the command
fails without the sources it measures.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import check  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Workload, powerset_counts  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class Formulas(unittest.TestCase):
    def test_known_counts(self):
        small = powerset_counts(4, 2)  # missing_two.fn: {0,1} -> {0,1,2,3}
        self.assertEqual((small["elements"], small["covers"], small["pairs"]), (13, 22, 58))
        big = powerset_counts(10, 4)
        self.assertEqual((big["elements"], big["pairs"]), (1009, 54874))
        self.assertEqual(powerset_counts(3, 3), powerset_counts(3, 3) | {"elements": 1, "covers": 0, "pairs": 1})


class Checker(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from obstructia import cli

        cls.cli = cli
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".perfbench"))
        cls.ops = {}
        for w in WORKLOADS:
            (cls.tmp / w).mkdir()
            cls.ops[w] = Workload(w, 7, cls.tmp / w).pass_ops(0)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def run_op(self, workload: str, kind: str):
        op = next(o for o in self.ops[workload] if o.kind == kind)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            code = self.cli.run(op.argv, out)
        self.assertEqual(check(op, code, out.getvalue(), err.getvalue())[0], "ok", kind)
        return op, out.getvalue()

    def assertRejected(self, op, text: str):
        self.assertTrue(check(op, 0, text, "")[0].startswith("wrong"), text[:300])

    def test_text_count_off_by_one(self):
        op, text = self.run_op("powerset", "set pi0 u=4 text")
        line = next(x for x in text.splitlines() if x.startswith("elements ("))
        items = line.partition(": ")[2].split(", ")
        self.assertRejected(op, text.replace(line, f"elements ({len(items) - 1}): " + ", ".join(items[1:])))

    def test_dot_missing_edge(self):
        op, text = self.run_op("powerset", "set pi1 u=6 dot")
        edge = next(line for line in text.splitlines() if "->" in line)
        self.assertRejected(op, text.replace(edge + "\n", "", 1))

    def test_interchange_missing_pair(self):
        op, text = self.run_op("powerset", "set pi0 u=10 interchange")
        head, _, body = text.partition("\n")
        doc = json.loads(body)
        doc["leq"] = [p for p in doc["leq"] if p[0] != p[1]][1:] + [p for p in doc["leq"] if p[0] == p[1]]
        self.assertRejected(op, head + "\n" + json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def test_flags_and_relations(self):
        op, text = self.run_op("classify", "cat analyze 2->2")
        flipped = "mono: no" if "mono: yes" in text else "mono: yes"
        self.assertRejected(op, re.sub(r"^mono: \w+$", flipped, text, flags=re.M))
        op, text = self.run_op("laxator", "opengraph obstruct w=2")
        self.assertRejected(op, text.replace("pi1 trivial: yes", "pi1 trivial: no"))
        self.assertRejected(op, re.sub(r"^reach left: \{", "reach left: {(9,9),", text, flags=re.M))

    def test_refusal_is_counted_not_judged(self):
        op = next(o for o in self.ops["powerset"] if o.kind == "set pi0 u=16 text")  # past every cap
        self.assertEqual(check(op, 1, "", "error CapExceeded: too big\n")[0], "refused")
        self.assertTrue(check(op, 1, "", "error ParseError: bad\n")[0].startswith("wrong"))


class Command(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in WORKLOADS:
            digests = []
            for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                                 "--trace", str(trace), "--limit", "6")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, dict(names))
                    section = declared["per_layer" if trace else "end_to_end"]
                    self.assertEqual({m["name"]: m["unit"] for m in section}, dict(names))
                    for name, unit in names:
                        self.assertTrue(any(re.match(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s", x) for x in lines), name)
                    meta = json.loads(next(x for x in lines if x.startswith("meta "))[5:])
                    digests.append(meta["digest"])
                    if trace:
                        layers = result["metrics"]
                        if workload == "powerset":
                            self.assertEqual(sum(v["value"] for k, v in layers.items() if k.startswith("fincat.")), 0)
            self.assertEqual(digests[0], digests[1], "digest differs between runs and hash seeds")

    def test_fails_without_sources(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
