"""The bounded-exhaustive sweep past tier-1: the checks of
``test_nx_oracle.py::TestEverySmallCategory`` on every category with at
most five morphisms, once up to isomorphism, and one relabelling of each.
These are the 399 categories counted by OEIS A125696.

Run from the repository root, outside tier-1:

    python tests/sweep.py

It prints the categories enumerated by size, then what was checked, with
the seconds each phase took.  A mismatch fails its assertion, so the
counts print only when every check passed.  networkx is needed, as for
``test_nx_oracle.py``.
"""

import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import test_nx_oracle as nx_oracle  # noqa: E402
from obstructia import homotopy  # noqa: E402

MORPHISMS = 5


def check_flags(d) -> int:
    """Both flags of each analysis in d against the searches by name, which
    the tests' ``conftest.py`` checks on every analysis and a run of this
    script alone does not.  Returns the morphisms checked."""
    morphisms = gen.morphism_names(d)
    for f in morphisms:
        oracles.check_analysis(d, f, homotopy.analyze_morphism(d, f))
    return len(morphisms)


def main() -> int:
    start = time.perf_counter()
    categories = list(nx_oracle.small_categories(MORPHISMS))
    enumerated = time.perf_counter() - start
    sizes = Counter(len(c.morphisms) for c in categories[::2])
    start = time.perf_counter()
    unranked = sum(map(nx_oracle.sweep_reports, categories))
    morphisms = sum(map(check_flags, categories))
    duality = sum(map(nx_oracle.sweep_duality, categories))
    checked = time.perf_counter() - start
    print(f"categories with at most {MORPHISMS} morphisms, by size: {[sizes[m] for m in range(1, MORPHISMS + 1)]} ({enumerated:.1f} s)")
    print(f"checked, each as built and relabelled: {len(categories)} categories ({checked:.1f} s)")
    print(f"walks on the names route: {unranked}")
    print(f"objects: {sum(len(d.objects) for d in categories)}, morphisms: {morphisms}")
    print(f"morphisms checked by duality: {duality}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
