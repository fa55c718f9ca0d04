import functools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

import oracles
from obstructia import fincat, homotopy, opengraph, order, setcat


def base_seed() -> int:
    return int(os.environ.get("OBSTRUCTIA_SEED", "0"))


@pytest.fixture
def seed() -> int:
    return base_seed()


@pytest.fixture(autouse=True)
def cold_memos(monkeypatch):
    """Every test starts with no text parsed, no walk taken and no powerset
    report kept, so what it exercises does not depend on which tests ran
    before it."""
    fincat._parse.cache_clear()
    monkeypatch.setattr(fincat, "_WALKS", fincat._WalkMemo())
    monkeypatch.setattr(homotopy, "_KEPT", homotopy._KeptReport())


# The fields of a built poset that differ from its ``oracles.from_masks``
# rebuild, by poset: a poset met again, such as a kept reflection or a
# report shown in a second format, is checked once.  Tier-1 builds about
# 27,000 posets, fewer than 3,000 of them distinct.
_differs = functools.cache(oracles.trusted_differs)


def _checked(p: order.Poset) -> None:
    differs = _differs(p)
    assert not differs, f"{differs} differ from the from_masks rebuild of {p.elements}"


@pytest.fixture(autouse=True)
def checked_posets(monkeypatch):
    """The engine builds every poset as an order by construction, and no
    validator runs in ``src/``: in every test, each reflection, fresh or
    renamed from what was kept (the states star among them), and each
    powerset report is checked against ``oracles.from_masks``.  The
    builders stay reachable unchecked as ``__wrapped__``, for a test that
    hands one an input no caller passes."""
    reflect, powerset = order.reflection, homotopy.powerset_report

    @functools.wraps(reflect)
    def reflection(*args, **kwargs):
        got = reflect(*args, **kwargs)
        _checked(got[0].poset)
        return got

    @functools.wraps(powerset)
    def powerset_report(*args, **kwargs):
        r = powerset(*args, **kwargs)
        _checked(r.invariant.poset)
        return r

    monkeypatch.setattr(order, "reflection", reflection)
    monkeypatch.setattr(homotopy, "powerset_report", powerset_report)


@pytest.fixture(autouse=True)
def checked_results(monkeypatch):
    """``analyze_morphism``, ``kernel_pair`` and ``act`` build what they
    return by construction, and none checks it in ``src/``: in every test,
    each analysis meets the split-epi and mono searches by name, each
    kernel pair is an equivalence relation and the pullback by name, and
    the reachability each act returns holds its source's
    (``oracles.check_analysis``, ``check_equivalence``, ``check_growth``)."""
    analyze, kernel, grow = homotopy.analyze_morphism, setcat.kernel_pair, opengraph.act

    @functools.wraps(analyze)
    def analyze_morphism(c, f):
        an = analyze(c, f)
        oracles.check_analysis(c, f, an)
        return an

    @functools.wraps(kernel)
    def kernel_pair(f):
        kp = kernel(f)
        oracles.check_equivalence(kp.pairs)
        assert kp.pairs == oracles.kernel_pair(f), f"kernel pair of {f.mapping} differs from the pullback by name"
        return kp

    @functools.wraps(grow)
    def act(hom, h):
        reached, pmap = grow(hom, h)
        oracles.check_growth(hom, reached)
        return reached, pmap

    monkeypatch.setattr(homotopy, "analyze_morphism", analyze_morphism)
    monkeypatch.setattr(setcat, "kernel_pair", kernel_pair)
    monkeypatch.setattr(opengraph, "act", act)
