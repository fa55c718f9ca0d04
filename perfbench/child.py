"""One benchmark process: set up a workload, run whole passes of it through
``obstructia.cli.run`` in a closed loop (one caller, one thread, each op
starting when the previous one returns), check every output, and print a
JSON summary as the last line of standard output.

Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from workloads import Workload  # noqa: E402


def _import_obstructia():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import obstructia

    if Path(obstructia.__file__).resolve().parent != src / "obstructia":
        raise SystemExit(f"imported obstructia from {obstructia.__file__}, not from {src}")
    return obstructia


# Shared hosts change speed by a quarter and more over tens of seconds, which
# buried any code change smaller than that.  So a fixed piece of interpreter
# work (string hashing, dict inserts, a sort) is timed before and after every
# op, and each latency is also reported at reference speed: multiplied by
# CALIBRATION_REF_S over the mean of those two timings.  The calibration
# allocates nothing the garbage collector tracks, so it never pays for the
# program's garbage.
CALIBRATION_REF_S = 0.0012  # the calibration on a quiet host (see PASSES_PER_20S)


def calibrate() -> float:
    t = time.perf_counter()
    d = {}
    for i in range(6000):
        d[str(i * 7919)] = i
    sorted(d)
    return time.perf_counter() - t


def run_passes(cli, workload: Workload, passes: int, min_ops: int, limit=None, tracer=None) -> dict:
    """Run whole passes, at least ``passes`` of them and at least ``min_ops``
    ops.  Every op becomes one sample [slot, status, seconds, reference
    seconds, kind]; a slot is an op's index within its pass."""
    samples: list[list] = []
    wrong: list[str] = []
    first_seen: dict[tuple, str] = {}
    digest = None
    done = reports = 0
    before = calibrate()
    calibrations = [before]
    while done < workload.max_passes and (done < passes or len(samples) < min_ops):
        pass_hash = hashlib.sha256()
        ops = workload.pass_ops(done)
        if limit:  # every k-th slot counting from the end, where the cheap ones are
            ops = ops[::-1][:: max(1, len(ops) // limit)][:limit]
        for slot, op in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = len(samples)
            with redirect_stderr(err):
                t = time.perf_counter()
                code = cli.run(op.argv, out)
                dt = time.perf_counter() - t
            text, errors = out.getvalue(), err.getvalue()
            status, parsed = check(op, code, text, errors)
            reports += len(parsed)
            op_hash = hashlib.sha256(f"{code}\0{text}\0{errors}".encode("utf-8")).hexdigest()
            pass_hash.update(f"{slot}\0{op_hash}\n".encode("utf-8"))
            if first_seen.setdefault(tuple(op.argv), op_hash) != op_hash:
                status = "wrong: output differs from an earlier pass"
            if status not in ("ok", "refused"):
                wrong.append(f"{op.kind}: {status}")
                status = "wrong"
            after = calibrate()
            calibrations.append(after)
            samples.append([slot, status, dt, dt * 2 * CALIBRATION_REF_S / (before + after), op.kind])
            before = after
        done += 1
        if digest is None:
            digest = pass_hash.hexdigest()
    return {
        "passes": done,
        "samples": samples,
        "speed": CALIBRATION_REF_S / statistics.median(calibrations),
        "wrong": len(wrong),
        "wrong_examples": wrong[:5],
        "reports": reports,
        "digest": digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() in the parent at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=1, help="least number of passes")
    ap.add_argument("--min-ops", type=int, default=0, help="least number of ops")
    ap.add_argument("--limit", type=int, help="run only this many op slots per pass")
    ap.add_argument("--spans", help="trace, and write the spans to this file at the end")
    args = ap.parse_args(argv)

    obstructia = _import_obstructia()
    from obstructia import cli

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, workdir)
        setup = time.monotonic() - args.t0
        speed = CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(5))
        result = {"setup_s": setup, "setup_ref_s": setup * speed}
        if not args.setup_only:
            tracer = None
            if args.spans:
                from tracer import Tracer, layer_metrics, top_self

                tracer = Tracer()
                tracer.install(obstructia)
            result |= run_passes(cli, workload, args.passes, args.min_ops, args.limit, tracer)
            if tracer is not None:
                result["layers"] = layer_metrics(tracer, result["passes"], result["reports"], result["speed"])
                result["top_self"] = [(n, t * result["speed"] / result["passes"]) for n, t in top_self(tracer)]
                tracer.dump(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
