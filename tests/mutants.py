"""The mutation probe: each row is one edit of src/ that the test files it
names must catch (DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978).

Run from the repository root, outside tier-1:

    python tests/mutants.py

Each row is (name, file, old text, new text, test files, expected).  The
old text must occur exactly once in its file, or the row reads
``unapplied``.  Each distinct set of test files first runs once on an
unmutated temporary copy of src/, tests/ and fixtures/; a row whose files
do not pass there reads ``baseline fails``.  Otherwise the row is applied
to a fresh copy and its test files run there under pytest, stopping at
the first failure: the mutant is ``killed`` when they fail and
``survived`` when they pass.  One markdown table row is printed per
mutant, and the exit status is 1 when any result differs from its row's
expected one.  Only the standard library and pytest are used.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "fixtures", "pyproject.toml")

WALKS = ("tests/test_homotopy.py", "tests/test_nx_oracle.py", "tests/test_fincat.py", "tests/test_acceptance.py")

# Reflections kept by walk alone, not by walk and lower set.
KEPT_BY_WALK = (
    "            kept = self.walks.get((key, low)) if mine else None\n"
    "            got, keep = reflect(kept)\n"
    "            self.reused, self.fresh = self.reused + (keep is None), self.fresh + (keep is not None)\n"
    "            if mine and kept is None and self.kept + len(keep[1]) <= OBJECTS_CAP:\n"
    "                self.walks[key, low], self.kept = keep, self.kept + len(keep[1])\n",
    "            kept = self.walks.get((key,)) if mine else None\n"
    "            got, keep = reflect(kept)\n"
    "            self.reused, self.fresh = self.reused + (keep is None), self.fresh + (keep is not None)\n"
    "            if mine and kept is None and self.kept + len(keep[1]) <= OBJECTS_CAP:\n"
    "                self.walks[key,], self.kept = keep, self.kept + len(keep[1])\n",
)

ROWS = [
    ("walk-first-source", "src/obstructia/fincat.py",
     "            for j in sources:\n                mask |= 1 << j\n",
     "            for j in sources[:1]:\n                mask |= 1 << j\n",
     WALKS, "killed"),
    ("walk-skips-first-arrow", "src/obstructia/fincat.py",
     "        hs = into[y]\n",
     "        hs = into[y][1:]\n",
     WALKS, "killed"),
    ("reflection-unreduced", "src/obstructia/order.py",
     "    up, covers = tuple(up), tuple(s & ~reduce(or_, _at(strict, s), 0) for s in strict)\n",
     "    up, covers = tuple(up), tuple(strict)\n",
     ("tests/test_homotopy.py", "tests/test_order.py"), "killed"),
    ("reflection-no-basepoint-edge", "src/obstructia/order.py",
     "        if d & low:\n            up[at] |= bit\n",
     "",
     ("tests/test_homotopy.py", "tests/test_order.py"), "killed"),
    ("kept-without-lower-set", "src/obstructia/fincat.py",
     "            kept = self.walks.get((key, low)) if mine else None\n",
     "            kept = self.walks.get((key,)) if mine else None\n",
     ("tests/test_homotopy.py",), "killed"),
    ("kept-read-and-kept-without-lower-set", "src/obstructia/fincat.py", *KEPT_BY_WALK,
     ("tests/test_homotopy.py",), "killed"),
    # the same edit, which only a sequence row on a warm walk memo sees
    ("kept-by-walk-in-a-warm-sequence", "src/obstructia/fincat.py", *KEPT_BY_WALK,
     ("tests/test_pins.py",), "killed"),
    ("kept-for-any-category", "src/obstructia/fincat.py",
     "            mine = self.of is c and ranked\n",
     "            mine = ranked\n",
     ("tests/test_homotopy.py",), "killed"),
    ("powerset-covers-without-next-size", "src/obstructia/homotopy.py",
     "    covers = map(and_, ups, map(next_size.__getitem__, reversed(counts)))\n",
     "    covers = (u ^ 1 << i for i, u in enumerate(ups))\n",
     ("tests/test_order.py", "tests/test_setcat.py"), "killed"),
    ("kernel-pair-keyed-by-element", "src/obstructia/setcat.py",
     "        fibres.setdefault(f.mapping[x], []).append(x)\n",
     "        fibres.setdefault(x, []).append(x)\n",
     ("tests/test_setcat.py",), "killed"),
    ("og-label-whitespace-accepted", "src/obstructia/opengraph.py",
     '                if " " in x:',
     "                if False:",
     ("tests/test_opengraph.py",), "killed"),
]


def _copy(tmp: str) -> None:
    for part in COPIED:
        src, dst = os.path.join(ROOT, part), os.path.join(tmp, part)
        if os.path.isdir(src):
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        else:
            shutil.copy(src, dst)


def _pytest(tmp: str, tests) -> tuple[int, float]:
    """pytest's exit status on ``tests`` in the copy at ``tmp``, and the
    seconds they took."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - start


def run(row, baselines: dict) -> tuple[str, float]:
    """The result of one row, and the seconds its tests took on the mutant.
    ``baselines`` holds pytest's exit status on the unmutated copy, by set
    of test files."""
    _, path, old, new, tests, _ = row
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        return "unapplied", 0.0
    if tests not in baselines:
        with tempfile.TemporaryDirectory(prefix="baseline-") as tmp:
            _copy(tmp)
            baselines[tests] = _pytest(tmp, tests)[0]
    if baselines[tests] != 0:
        return "baseline fails", 0.0
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(tmp)
        with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        status, seconds = _pytest(tmp, tests)
    # 1: a test failed; 2: collection failed on files that collect
    # unmutated, so the mutant broke an import
    return {0: "survived", 1: "killed", 2: "killed"}.get(status, f"error {status}"), seconds


def main() -> int:
    print("| mutant | file | expected | result | seconds |")
    print("|---|---|---|---|---|")
    differs, baselines = 0, {}
    for row in ROWS:
        result, seconds = run(row, baselines)
        differs += result != row[5]
        mark = "" if result == row[5] else " **differs**"
        print(f"| {row[0]} | {row[1]} | {row[5]} | {result}{mark} | {seconds:.1f} |", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
