"""The obstructia benchmark.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the op slots):

  classify  cat analyze on every morphism of the skeleton of finite sets of
            size <= 3, cat pi0/pi1 at each of its objects, cat pi1 of Z/8 to
            Z/20.  Derived-category construction dominates.
  powerset  set pi0/pi1 across text, dot and interchange output, plus a few
            states obstruct ops.  Posets, Hasse diagrams and rendering do the
            work; fincat does none.
  laxator   opengraph obstruct and act on composable open graphs of
            reachability width up to 8, where pi1 validates a thin category
            with 3^8 morphisms.

Each op is one in-process ``obstructia.cli.run``, in a closed loop: one
caller, one thread, the next op starting when the previous one returns.
Workloads run in child processes of their own, from the root of the checkout,
with obstructia imported from ./src, and repeat the same seeded op list in
whole passes.

With --trace 0 two timed children under different PYTHONHASHSEEDs share the
passes (their first-pass output digests must agree), and set-up-only
children run before, between and after them.  With --trace 1 the passes run
untraced and then traced, with wrappers around every public function of
obstructia's modules, and per-layer self times and counts are reported.
Every output is checked against expectations derived without obstructia.

Latencies are at reference speed (see CALIBRATION_REF_S in child.py), and an
op's latency is the median over the passes of its slot.  The last line of
standard output is the JSON result; the lines before it give each metric
with its unit and sample count, and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import PASSES_PER_20S, WORKLOADS  # noqa: E402

DEADLINE_S = 170  # the whole command, all children included
TIMED_CHILDREN = 2
SETUP_ONLY_CHILDREN = 3  # before, between and after the timed children
MIN_OPS = 100  # p90 needs at least ten samples beyond it

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_frac", "ratio"),
]


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, limit: int | None):
        self.workload, self.seed = workload, seed
        self.limit = ["--limit", str(limit)] if limit else []
        self.deadline = time.monotonic() + DEADLINE_S
        self.hash_seed = (2 * seed) % 2**31

    def child(self, *extra: str) -> dict:
        """Run one child process to completion and return its summary."""
        self.hash_seed += 1
        env = dict(os.environ, PYTHONHASHSEED=str(self.hash_seed))
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--t0", repr(t0), *self.limit, *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(self.deadline - t0, 1))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child {' '.join(extra)} ran past the {DEADLINE_S} s deadline")
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["hash_seed"] = self.hash_seed
        return result


def passes_per_child(workload: str, seconds: float) -> int:
    """--seconds as a fixed pass count: every run of a workload then has the
    same ops, and each slot's median is taken over the same number of tries."""
    return max(1, round(PASSES_PER_20S[workload] * seconds / 20))


def slot_latency(*children) -> dict[int, float]:
    """Median reference-speed latency of each op slot over all passes."""
    tries: dict[int, list[float]] = {}
    for child in children:
        for slot, _, _, ref_dt, _ in child["samples"]:
            tries.setdefault(slot, []).append(ref_dt)
    return {slot: statistics.median(ts) for slot, ts in tries.items()}


def end_to_end(runner: Runner, seconds: float):
    passes = str(passes_per_child(runner.workload, seconds))
    min_ops = "0" if runner.limit else str(-(-MIN_OPS // TIMED_CHILDREN))
    setups, timed = [], []
    for _ in range(TIMED_CHILDREN):
        setups += [runner.child("--setup-only") for _ in range(SETUP_ONLY_CHILDREN)]
        timed.append(runner.child("--passes", passes, "--min-ops", min_ops))
    setups += [runner.child("--setup-only") for _ in range(SETUP_ONLY_CHILDREN)] + timed

    samples = [s for c in timed for s in c["samples"]]
    latency = slot_latency(*timed)
    done = sorted(latency[s[0]] for s in samples if s[1] == "ok")
    refused = Counter(s[4] for s in samples if s[1] == "refused")
    failed = sum(refused.values()) + sum(c["wrong"] for c in timed)
    busy = sum(latency[s[0]] for s in samples)
    wall = sum(s[2] for s in samples)
    p90 = statistics.quantiles(done, n=10, method="inclusive")[8]
    n_passes = sum(c["passes"] for c in timed)
    per_slot = f"each op at its slot's median of {n_passes} passes"
    metrics = {
        "ops_per_s": (len(done) / busy, "1/s",
                      f"{len(done)} completed ops / {busy:.3f} s busy at reference speed ({wall:.3f} s wall)"),
        "op_p50_ms": (1000 * statistics.median(done), "ms", f"{len(done)} samples, {per_slot}"),
        "op_p90_ms": (1000 * p90, "ms", f"{len(done)} samples, {sum(x > p90 for x in done)} beyond"),
        "setup_s": (statistics.median(c["setup_ref_s"] for c in setups), "s",
                    f"median of {len(setups)} set-ups at reference speed "
                    f"(wall median {statistics.median(c['setup_s'] for c in setups):.4f} s)"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in timed), "MB", "ru_maxrss, largest over the timed children"),
        "fail_frac": (failed / len(samples), "ratio",
                      f"{failed} failed of {len(samples)} (refused {dict(sorted(refused.items()))})"),
    }
    return metrics, timed


def per_layer(runner: Runner, seconds: float):
    untraced = runner.child("--passes", str(passes_per_child(runner.workload, seconds)))
    spans = ROOT / ".perfbench" / "traces" / f"{runner.workload}-seed{runner.seed}.json.gz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = runner.child("--passes", str(untraced["passes"]), "--spans", str(spans))
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    plain, slow = sum(slot_latency(untraced).values()), sum(slot_latency(traced).values())
    metrics["trace.overhead_frac"] = (
        slow / plain - 1, "ratio", f"traced {slow:.3f} s / untraced {plain:.3f} s per pass at reference speed",
    )
    return metrics, [untraced, traced]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "obstructia").glob("*.py"))


def commit() -> str | None:
    """The checked-out commit, read from .git when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, help="run only this many op slots per pass, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "obstructia" / "__init__.py").is_file():
        print(f"no obstructia sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.limit)
    declared = PER_LAYER if args.trace else END_TO_END
    try:
        metrics, children = (per_layer if args.trace else end_to_end)(runner, args.seconds)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    samples = [s for c in children for s in c["samples"]]
    digests = {c["digest"] for c in children}
    wrong = sum(c["wrong"] for c in children)
    correct = len(digests) == 1 and wrong == 0

    for name, unit in declared:
        value, _, base = metrics[name]
        print(f"{name:32s} {value:14.6g} {unit:6s} {base}")
    if args.trace:
        print("top self time per pass:", ", ".join(f"{n} {t:.3f}s" for n, t in children[1]["top_self"]))
    for example in (w for c in children for w in c["wrong_examples"]):
        print(f"WRONG {example}")
    if len(digests) != 1:
        print(f"DIGEST MISMATCH across PYTHONHASHSEED {[c['hash_seed'] for c in children]}: {sorted(digests)}")
    print("meta " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "digest": children[0]["digest"],
        "hash_seeds": [c["hash_seed"] for c in children],
        "passes": [c["passes"] for c in children],
        "attempted": len(samples),
        "completed": sum(1 for s in samples if s[1] == "ok"),
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": wrong,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
