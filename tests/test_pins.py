"""Byte pins: the sha256 of every pinned CLI output, one row per argv.

A row reads like a line of `sha256sum`: the digest, two spaces, then the
argv as a shell would split it.  A `fixtures/` path names a checked-in
fixture; a bare `*.cat` or `*.og` name is an input built below.  A digest
changes only together with the output change it pins, and CHANGES.md names
that change.

One pass runs every row under `sys.setprofile` and counts the calls into
each `def` of `src/`.  It pins each row's work (`WORK`), and it checks that
`src/` holds only what a row enters or `UNREACHED` gives a reason for.
"""

import ast
import glob
import hashlib
import importlib
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import gen
import obstructia
from obstructia import cli, fincat
from obstructia import opengraph as og

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

PINS = """
# powerset reports at the 12-generator cap, and pi1 over a 12-pair kernel
# pair whose diagonal pairs sort between the others
d49293f754689f4ab8e2f9abfb53fd801fb4d5109d1f5ea5834e7ec5c9aa9cdb  set pi0 --fn fixtures/wide12.fn --format text
b51753cdbb6639792922b88ca52a564ef6a377cf9c29946ba213d90de5dcf928  set pi0 --fn fixtures/wide12.fn --format dot
f5389ef51f8d6377f0456a669636801ce44fcdcc47c0f7fb35dd86a9446d0701  set pi0 --fn fixtures/wide12.fn --format interchange
f89ae5f34fb059337217d94952d4ca95eb0327fe576636b3c89ca9263e13196d  set pi1 --fn fixtures/wide12_pi1.fn --format text
5954b1870965f2618a9b8772e0ec3b103bfec93e980feef345f7c0cf4c3a6deb  set pi1 --fn fixtures/wide12_pi1.fn --format dot
316ecc61a6a49bb6799980b67fba16085bda21bfec6cf38aee5ecfebda942f4c  set pi1 --fn fixtures/wide12_pi1.fn --format interchange
# the size-3 finite-set skeleton, canonical and in two other line orders,
# each read once: comp lines first with a comment on every line
# (byname.cat), and one mor line moved to the end (latemor.cat)
852201d4148f0f0b0030b455684fd0f3d57902fec5ada2dc6ae579b5dcce16fa  cat analyze ambient.cat --morphism 3>2:010
852201d4148f0f0b0030b455684fd0f3d57902fec5ada2dc6ae579b5dcce16fa  cat analyze byname.cat --morphism 3>2:010
852201d4148f0f0b0030b455684fd0f3d57902fec5ada2dc6ae579b5dcce16fa  cat analyze latemor.cat --morphism 3>2:010
11ac0629716ccfcf50451acd992865dbb3a9ec649e6abcadcfb8b5fd28585a0d  cat validate ambient.cat
11ac0629716ccfcf50451acd992865dbb3a9ec649e6abcadcfb8b5fd28585a0d  cat validate byname.cat
11ac0629716ccfcf50451acd992865dbb3a9ec649e6abcadcfb8b5fd28585a0d  cat validate latemor.cat
9dc603b04bbdd3e57e7acd016c9a9f3c2b84c7ad2ca015c3511edf38702469f5  cat analyze ambient.cat --morphism 3>2:010 --format dot
d34f275d02dd147d8859f7bfeebc1ae8826d807f1c1a3c889766d2e6ac4f17f2  cat analyze ambient.cat --morphism 3>2:010 --format interchange
289e5dd1f6c8bf873a55a649529a598e92047aebf5a71063bf8ec3a647d2b9ec  cat pi1 ambient.cat --object 3 --format interchange
83ca319540d9a5580e436faa767e0618bd54649e963dc4c5769c4acd773a4e6b  cat pi1 ambient.cat --object 3 --format dot
02822457d685ca764d71efbd71c50a0722def95550b2a14d0b548f4529d9571d  cat pi1 ambient.cat --object 3
# where isos abound: Z/12, and finite sets up to 2 times the walking
# isomorphism (every object has a distinct isomorphic twin)
61613ee724b6af8a45114fd6203d0ecdd6c36467c5024bf6e1bccc044273dd2f  cat pi1 z12.cat --object '*'
b030170243141f41685394f6a948b1e6b92ae99c1bf4749e33ace1bdb0e44aa6  cat analyze twins.cat --morphism 2>1:00*f
# the fixture categories
215587b3844c4453155b90f2cfb5e57415e1716d3b27c0220c74d12b4b0326f3  cat validate fixtures/z2.cat
941f3a4fe14fdd541d8d9d1186af8166b7cca743bc2fc87d0a38fb320ef46874  cat pi0 fixtures/walking_arrow.cat --object 0
ca02f2c39677970084c2d9719ffa68aefc51e1b36d37885b22838b0d09eddaea  cat pi0 fixtures/walking_arrow.cat --object 0 --format dot
e22fbb50127100f974b326b0487b47c9a35e9ffbfa8954fd273841f4b639c8da  cat pi0 fixtures/walking_arrow.cat --object 0 --format interchange
abf581d1378182204835ed8d3af5f073ed64344fa83d5dcb58e650307d27938a  cat check-terminal fixtures/walking_arrow.cat --object 0
# an object named like the basepoint: primed when it survives ([0] at 0),
# left alone when it is collapsed (clash.cat: [1] -> 1 at 1, and 2 apart)
ed5876affd8861042b54896a4eb6aea2191ebb06a8d478883d445d729637a9ee  cat pi0 fixtures/primed_basepoint.cat --object 0
f68463596ba600a227ba7796ce7ecfde7adddbfc7e669720645f18bbf74d40a8  cat pi0 fixtures/primed_basepoint.cat --object 0 --format interchange
77de760aa9fe410db29a7da275439062ea520e24af6684302f4e61677db1cd91  cat pi0 clash.cat --object 1
b7928938f1d1f40054bcc7f3904d545ca53e02d9ac20adeef0e120ae590dc3e6  cat pi0 clash.cat --object 1 --format interchange
# state laxators: the README flow, a 42-obstruction flow from the 2x3
# tensor, a cartesian flow; past the powerset cap (the 2x2 star and the
# trivial 4x4 cartesian one) and a materialised pi1 of 1009 elements
a09ed5aaa77d800844147063200175ac4ae68026110e3901ebe9231decdae6c4  states local-act --context gf2 --dims 2,2 --fmat 10,00 --gmat 10,01
f525e98c3f6787ffa320b7050afb1e739bc278851bb9155d157be713c2dd5076  states local-act --context gf2 --dims 2,3 --fmat 11,01 --gmat 101,011
072a8565e2dcfe406613135d1ffd36798a5e2a840d0bd3c8a693162a5b7293bc  states local-act --context cartesian --sets 'a,b|c,d' --target-sets 'a|c,d' --fmap a=>a,b=>a --gmap c=>c,d=>d
459d10f02daee43fa420b12b825e58eb016a7f599a96888fb1bea4f121653b94  states obstruct --context gf2 --dims 2,2 --format text
414c88d0323504b0621c458e291a30f40ce0f80c210c9c2cdd3679a2cd9ac4bb  states obstruct --context gf2 --dims 2,2 --format dot
eb45f6f70bfb0294362f08d74425087273361fc7b002e556a0112d120cf38742  states obstruct --context gf2 --dims 2,2 --format interchange
f40b8f2434d35767c333584ef5b3d74385f7a477d21330544f8977f387d34d38  states obstruct --context gf2 --dims 1,1 --format text
b10a1b1d2e24890d1db0381b911cfa2638708189f26eaae1e61bcec08cc73c0f  states obstruct --context gf2 --dims 1,1 --format dot
9289e80b6849da05cf26336fd3e29f68c3934b481c2276ce179f374bfa2e856e  states obstruct --context gf2 --dims 1,1 --format interchange
c4600df0d68bdad03303052d46ecd0ead1105dc3332605619cec7c8ece058416  states obstruct --context cartesian --sets 'a,b,c,d|e,f,g,h' --format text
fb27f3922e810d64022f67ceb48a83a0c044f4cc1fa32e09a105dad2211392a4  states obstruct --context cartesian --sets 'a,b,c,d|e,f,g,h' --format dot
9f2ad9de0c2a107613dd5a1871e61adbaa88d41b95eb1853e0bda9e86a91a0e7  states obstruct --context cartesian --sets 'a,b,c,d|e,f,g,h' --format interchange
# open graphs: the fixture pair, the flow of folding w3 onto w1, and a
# width-8 pair whose composite relates all 8 boundary pairs while the
# parts' relations compose to 5 of them
93f1778053da8f80f9bda26fd90e6cfb0a460395fb7d7349da28d7365da3dd72  opengraph compose fixtures/G.og fixtures/H.og
f7619dd8aef99437bb0ee3648613f3a6e505419958db5492e992fd11510d5656  opengraph compose fixtures/G.og fixtures/H.og --format dot
06f66f500ce4177d0b571f6b9b0433381cff449fa177cd4d1d709ab8fc2884c8  opengraph reach fixtures/G.og
30c90d9fc8af053dff1f8f79cb89d7e57640c494c121d24c8554ad15299e1ea8  opengraph reach fixtures/G.og --format dot
6c81b0961cfa8a69a2d9e6daa47dfc74c8b9a9b0fd309f3f21377b6143ee5291  opengraph obstruct fixtures/G.og fixtures/H.og --format text
b1867d4b135b3d96b7fe614f938d6eaa3c8c2748f0e1c023d3d91da75abb567c  opengraph obstruct fixtures/G.og fixtures/H.og --format dot
8a4105d9dd17222638ce324a2d8950f309e96d22ea546700ee771a282f0e32e8  opengraph obstruct fixtures/G.og fixtures/H.og --format interchange
58820eeb1c9b1e53853b1c6066510a711ca0fcb700994cded0c098eb256d57b1  opengraph act fixtures/G.og fixtures/G_identified.og fixtures/identify_outputs.gh fixtures/H.og
d9623dc9814f3c0f0c9a70259f02abee09acf7c1d5ea14ae7db73b8bcbc0f839  opengraph obstruct left8.og right8.og --format text
d02bc004fdd02bc03d13f06fe22d752a6e137cae6e6d2c0deaa0419aa74a9151  opengraph obstruct left8.og right8.og --format dot
c3160ed0ad71a2adca0caad2e393d9f0d45ae4903bd332cf4dcfc55f5c5403fa  opengraph obstruct left8.og right8.og --format interchange
"""
ROWS = [tuple(reversed(line.split("  ", 1))) for line in PINS.splitlines() if line and not line.startswith("#")]

# run again through `python -m obstructia.cli`, one per command group
ENTRY_POINTS = (
    "cat validate fixtures/z2.cat",
    "set pi0 --fn fixtures/wide12.fn --format text",
    "opengraph act fixtures/G.og fixtures/G_identified.og fixtures/identify_outputs.gh fixtures/H.og",
    "states local-act --context gf2 --dims 2,2 --fmat 10,00 --gmat 10,01",
)


@pytest.fixture(scope="module")
def argv_of(tmp_path_factory):
    """The argv of a row: the inputs it names are written to a temp dir as
    built here, and fixtures are resolved against the repo."""
    tmp = tmp_path_factory.mktemp("pins")
    ambient = gen.serialize_category(gen.finset_ambient(3))
    lines = ambient.splitlines()
    comp_first = sorted(lines, key=lambda line: not line.startswith("comp "))
    mor = next(line for line in lines if line.startswith("mor "))
    rng, ys = random.Random(76), ("y0", "y1", "y2")
    texts = {
        "ambient.cat": ambient,
        "byname.cat": "".join(f"{line}  # note\n" for line in comp_first),
        "latemor.cat": "".join(f"{line}\n" for line in lines if line != mor) + f"{mor}\n",
        "z12.cat": gen.serialize_category(gen.cyclic_group_category(12)),
        "clash.cat": gen.serialize_category(fincat.validate_category(
            ["[1]", "1", "2"], [("id[1]", "[1]", "[1]"), ("id1", "1", "1"), ("id2", "2", "2"), ("a", "[1]", "1")],
            {"[1]": "id[1]", "1": "id1", "2": "id2"},
            {("id[1]", "id[1]"): "id[1]", ("id1", "id1"): "id1", ("id2", "id2"): "id2", ("id[1]", "a"): "a", ("a", "id1"): "a"})),
        "twins.cat": gen.serialize_category(gen.product_category(gen.finset_ambient(2), gen.walking_isomorphism())),
        "left8.og": og.serialize_open_graph(gen.random_open_graph(rng, ("x0", "x1"), ys, edge_prob=0.25)),
        "right8.og": og.serialize_open_graph(gen.random_open_graph(rng, ys, ("z0", "z1", "z2", "z3"), edge_prob=0.25)),
    }
    for name, text in texts.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return lambda row: [str(tmp / t) if t in texts else os.path.join(ROOT, t) if t.startswith("fixtures/") else t for t in shlex.split(row)]


def run_digest(argv) -> str:
    """The sha256 of what `cli.run(argv)` writes, which must exit 0. Each
    piece is hashed as it is written: no document is held in memory."""
    sha = hashlib.sha256()
    assert cli.run(argv, SimpleNamespace(write=lambda piece: sha.update(piece.encode("utf-8")))) == 0
    return sha.hexdigest()


@pytest.mark.parametrize("row, digest", ROWS, ids=[row for row, _ in ROWS])
def test_output_bytes(row, digest, argv_of, capsys):
    got = run_digest(argv_of(row))
    assert capsys.readouterr().err == ""
    assert got == digest, f"{row}: output sha256 {got}, pinned {digest}"


def test_cat_rows_with_a_warm_memo(argv_of, capsys):
    """Every test starts with no text parsed, so each row above runs cold.
    Here every `cat` row runs twice in one process, the second time on the
    category the first kept, and both outputs match the pin."""
    rows = [(row, digest) for row, digest in ROWS if row.startswith("cat ")]
    for row, digest in rows:
        for _ in range(2):
            got = run_digest(argv_of(row))
            assert got == digest, f"{row} (warm): output sha256 {got}, pinned {digest}"
    assert capsys.readouterr().err == ""
    assert fincat._parse.cache_info().hits >= len(rows)


@pytest.mark.parametrize("row", ENTRY_POINTS)
def test_module_entry_point(row, argv_of):
    argv = [sys.executable, "-W", "error", "-m", "obstructia.cli", *argv_of(row)]
    proc = subprocess.run(argv, capture_output=True, env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert (proc.returncode, proc.stderr) == (0, b"")
    got, digest = hashlib.sha256(proc.stdout).hexdigest(), dict(ROWS)[row]
    assert got == digest, f"{row}: output sha256 {got}, pinned {digest}"


# -- work and reach: one profiled pass over the rows ---------------------------

SRC = os.path.join(ROOT, "src", "obstructia")

# Each def of src/ that no row enters, with the reason it stays.
UNREACHED = {
    # error paths, each entered by the test named
    "errors.MissingIdentity.__init__": "error path: test_fincat.py::TestValidation::test_missing_identity_declaration",
    "errors.NonAssociative.__init__": "error path: test_fincat.py::TestValidation::test_non_associative_witness",
    "errors.NotAFunctor.__init__": "error path: test_fincat.py::TestFunctors::test_not_a_functor_witness",
    "errors.NotNatural.__init__": "error path: test_fincat.py::TestFunctors::test_broken_naturality_square_names_witness",
    "errors.SizeCapExceeded.__init__": "error path: test_cli.py::TestCat::test_cap_objects_zero_is_a_cap",
    "errors.UnknownMorphism.__init__": "error path: test_homotopy.py::TestObjectAction::test_unknown_morphism",
    "errors.UnknownObject.__init__": "error path: test_cli.py::TestCat::test_unknown_object_error_code",
    "fincat._refuse": "error path: test_fincat.py::TestValidation::test_non_composable_entry_rejected",
    "fincat._first_non_associative": "error path: test_fincat.py::TestValidation::test_non_associative_witness",
    # import time
    "__init__.__getattr__": "import time: a submodule's first load, in the child processes of test_cli.py::TestLoadSet",
    "cli.build_parser": "import time: builds cli._PARSER",
    "cli._add_format": "import time: called by cli.build_parser",
    # a child process
    "cli.main": "the child process of test_module_entry_point",
    # the library API that acceptance criteria 5-7 name, with no command
    "fincat.is_groupoid": "library API: test_acceptance.py::test_criterion_05_groupoid_degeneration",
    "fincat.validate_functor": "library API: test_acceptance.py::test_criterion_06_functoriality_laws",
    "fincat.identity_functor": "library API: test_acceptance.py::test_criterion_06_functoriality_laws",
    "fincat.compose_functors": "library API: test_acceptance.py::test_criterion_06_functoriality_laws",
    "homotopy.pi_object_action": "library API: test_acceptance.py::test_criterion_06_functoriality_laws",
    "homotopy.pi_functor_map": "library API: test_acceptance.py::test_criterion_06_functoriality_laws",
    "homotopy._flow": "library API: the flows of test_acceptance.py::test_criterion_06_functoriality_laws and 07",
    "fincat.validate_nat_trans": "library API: test_acceptance.py::test_criterion_07_covariance",
    "homotopy.covariance_map": "library API: test_acceptance.py::test_criterion_07_covariance",
}


# Each row's work: the calls into src/ while it runs, as `profile_row`
# counts them, then a digest of those calls by function, then the argv.
# Work changes only together with the change to src/ that moves it, and
# CHANGES.md names that change.
WORK = """
  8195  877b48421909  set pi0 --fn fixtures/wide12.fn --format text
 12284  1ba362f5c1e6  set pi0 --fn fixtures/wide12.fn --format dot
 16374  09baee4359d3  set pi0 --fn fixtures/wide12.fn --format interchange
  8101  40c092479801  set pi1 --fn fixtures/wide12_pi1.fn --format text
 12134  63a7a87718ae  set pi1 --fn fixtures/wide12_pi1.fn --format dot
 16168  618ab11f7875  set pi1 --fn fixtures/wide12_pi1.fn --format interchange
   750  a1bebe767bbf  cat analyze ambient.cat --morphism 3>2:010
   750  a1bebe767bbf  cat analyze byname.cat --morphism 3>2:010
   750  a1bebe767bbf  cat analyze latemor.cat --morphism 3>2:010
   451  7e84492e0510  cat validate ambient.cat
   451  7e84492e0510  cat validate byname.cat
   451  7e84492e0510  cat validate latemor.cat
   770  171990498e91  cat analyze ambient.cat --morphism 3>2:010 --format dot
   792  ec1deb28fb94  cat analyze ambient.cat --morphism 3>2:010 --format interchange
  2310  3ce21f1f8977  cat pi1 ambient.cat --object 3 --format interchange
  2186  c67d139addb2  cat pi1 ambient.cat --object 3 --format dot
  2063  dc7fca923ff9  cat pi1 ambient.cat --object 3
   210  c5c4cb645a12  cat pi1 z12.cat --object '*'
   263  2877cd076098  cat analyze twins.cat --morphism 2>1:00*f
    13  ad8b3177cd2c  cat validate fixtures/z2.cat
    33  f0ed8f7f5fd2  cat pi0 fixtures/walking_arrow.cat --object 0
    35  374d8b4ea206  cat pi0 fixtures/walking_arrow.cat --object 0 --format dot
    38  b7e79dcb85f4  cat pi0 fixtures/walking_arrow.cat --object 0 --format interchange
    24  928f7280be76  cat check-terminal fixtures/walking_arrow.cat --object 0
    35  9e53ed4f45a0  cat pi0 fixtures/primed_basepoint.cat --object 0
    42  d7469fede032  cat pi0 fixtures/primed_basepoint.cat --object 0 --format interchange
    31  696b647c9839  cat pi0 clash.cat --object 1
    36  f82b5063e230  cat pi0 clash.cat --object 1 --format interchange
   350  4780750cdd6a  states local-act --context gf2 --dims 2,2 --fmat 10,00 --gmat 10,01
   878  1d3c9588635a  states local-act --context gf2 --dims 2,3 --fmat 11,01 --gmat 101,011
    51  0a78c55b9298  states local-act --context cartesian --sets 'a,b|c,d' --target-sets 'a|c,d' --fmap a=>a,b=>a --gmap c=>c,d=>d
   316  1b1a22cca13f  states obstruct --context gf2 --dims 2,2 --format text
   366  a6ec8c762cd3  states obstruct --context gf2 --dims 2,2 --format dot
   418  315efe8e516c  states obstruct --context gf2 --dims 2,2 --format interchange
  2100  cb7f337c7596  states obstruct --context gf2 --dims 1,1 --format text
  3110  8abe1ea7d421  states obstruct --context gf2 --dims 1,1 --format dot
  4122  a07565050f43  states obstruct --context gf2 --dims 1,1 --format interchange
    84  b5339f5c0fb8  states obstruct --context cartesian --sets 'a,b,c,d|e,f,g,h' --format text
    86  da272fd15245  states obstruct --context cartesian --sets 'a,b,c,d|e,f,g,h' --format dot
    90  5ef2874c99ef  states obstruct --context cartesian --sets 'a,b,c,d|e,f,g,h' --format interchange
    33  230c108fdf61  opengraph compose fixtures/G.og fixtures/H.og
    45  65bf9e903b5a  opengraph compose fixtures/G.og fixtures/H.og --format dot
    12  0f16c77ddb7a  opengraph reach fixtures/G.og
    26  cafbeefd7596  opengraph reach fixtures/G.og --format dot
    75  29f27bcdf482  opengraph obstruct fixtures/G.og fixtures/H.og --format text
    77  9f9c1c564d7c  opengraph obstruct fixtures/G.og fixtures/H.og --format dot
    80  4f52fb8d4651  opengraph obstruct fixtures/G.og fixtures/H.og --format interchange
   100  631bb12604aa  opengraph act fixtures/G.og fixtures/G_identified.og fixtures/identify_outputs.gh fixtures/H.og
   563  1495d8244d55  opengraph obstruct left8.og right8.og --format text
   788  07dffd3fc68b  opengraph obstruct left8.og right8.og --format dot
  1014  c168087d5748  opengraph obstruct left8.og right8.og --format interchange
"""
WORK_ROWS = {row: (int(total), digest) for total, digest, row in (line.split(None, 2) for line in WORK.splitlines() if line and not line.startswith("#"))}

# The calls into each def of src/, summed over the rows: what names the
# functions whose counts moved when a row's work does.
CALLS = """
     6  cli._cmd_cat_analyze
     1  cli._cmd_cat_check_terminal
    11  cli._cmd_cat_pi
     4  cli._cmd_cat_validate
     1  cli._cmd_og_act
     2  cli._cmd_og_compose
     6  cli._cmd_og_obstruct
     2  cli._cmd_og_reach
     6  cli._cmd_set_pi
     3  cli._cmd_states_local_act
     9  cli._cmd_states_obstruct
     4  cli._emit_flow
     8  cli._parse_dims
     4  cli._parse_matrix
     5  cli._parse_sets
    50  cli._read
    12  cli._states_objects
    51  cli.run
    22  fincat.FinCat.__new__
    12  fincat.FinCat.cod
     6  fincat.FinCat.dom
     6  fincat.FinCat.has_morphism
    26  fincat.FinCat.has_object
     6  fincat.FinCat.hom
    16  fincat.FinCat.id_of
    10  fincat.FinCat.split_epis
    22  fincat._declarations
    16  fincat._elements_preorder
    16  fincat._enumerate
    22  fincat._generators
    22  fincat._laws
    22  fincat._parse
  5022  fincat._squares
     7  fincat.check_label
  4312  fincat.pair_name
    22  fincat.parse_category
    22  fincat.validate_category
    23  homotopy._end
    23  homotopy._pi
    23  homotopy._pi_at
    23  homotopy._pi_data
 37873  homotopy._rows
     6  homotopy.analyze_morphism
     6  homotopy.brute_mono
     6  homotopy.brute_split_epi
     4  homotopy.induced_map
     1  homotopy.is_subterminal
     1  homotopy.is_terminal
     1  homotopy.is_weak_terminal
     7  homotopy.pi0
     4  homotopy.pi1
    28  homotopy.powerset_report
    67  homotopy.report_from_pointed
   295  homotopy.subset_name
    53  homotopy.write_report
     1  opengraph.GraphHom.__init__
    23  opengraph.OpenGraph.__new__
    32  opengraph.Relation.__new__
    14  opengraph._check_laxator
    10  opengraph._glue
   157  opengraph._glue.find
    24  opengraph._paths
    48  opengraph._rel_pair_labels
     1  opengraph.act
     2  opengraph.compose
     8  opengraph.compose_rel
     8  opengraph.glued_reach
     8  opengraph.laxator_obstructions
     2  opengraph.open_graph_dot
     1  opengraph.parse_graph_hom
    21  opengraph.parse_open_graph
     6  opengraph.pi1_laxator
    16  opengraph.reach
    26  opengraph.relation_text
     1  opengraph.serialize_open_graph
    67  order.PointedPoset.__init__
    67  order.Poset.index
 29022  order._bits
  2035  order._low
  9584  order._pick
     4  order._preserves
    39  order.from_masks
    67  order.is_trivial
     4  order.make_monotone
     4  order.make_pointed
    67  order.minimal_obstructions
    23  order.pointed_reflection
  9595  order.quote
    23  setcat.FiniteFunction.__new__
    27  setcat.FiniteFunction.image
    12  setcat.KernelPair.__init__
    12  setcat._parse_set
    12  setcat.kernel_pair
     8  setcat.parse_assignments
     6  setcat.parse_function
     3  setcat.pi0_function
     3  setcat.pi1_function
    12  states.StateContext.__init__
    34  states._check_dim
    22  states._gf2_payload
    15  states._pi0
    24  states._report
    52  states.all_vectors
   192  states.apply_matrix
     4  states.check_matrix
    15  states.lax_context
    15  states.laxator
     9  states.laxator_obstructions
     3  states.local_action
    48  states.local_action.image
    30  states.states_of
   140  states.tensor_bits
   578  states.vec_name
"""


def src_defs() -> dict:
    """Every named def in src/, keyed as its code object is: by real path
    and first line, which for a decorated def is its first decorator's.
    The value is module.qualname.  Lambdas and comprehensions are no defs,
    so Pythons that inline comprehensions count alike."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                out[path, min(d.lineno for d in [child, *child.decorator_list])] = name
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
            visit(child, path, name)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), os.path.realpath(path), os.path.basename(path)[:-3])
    return out


def profile_row(argv, defs) -> Counter:
    """The calls into each def of src/ while `cli.run(argv)` runs, with a
    cold parse memo; every call counts, a generator's resumptions too."""
    calls: dict = {}

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] = calls.get(frame.f_code, 0) + 1

    fincat._parse.cache_clear()
    sys.setprofile(hook)
    try:
        code = cli.run(argv, SimpleNamespace(write=len))
    finally:
        sys.setprofile(None)
    assert code == 0
    counts = Counter()
    for co, n in calls.items():
        name = defs.get((os.path.realpath(co.co_filename), co.co_firstlineno))
        if name is not None:
            counts[name] += n
    return counts


def work_digest(counts: Counter) -> str:
    """A short digest of a row's calls by function name, not by line, so an
    edit that moves code and not work keeps it."""
    return hashlib.sha256("".join(f"{name} {n}\n" for name, n in sorted(counts.items())).encode()).hexdigest()[:12]


@pytest.fixture(scope="module")
def profiled(argv_of):
    """The names of the defs of src/, and each row's calls by function, in
    one pass.  Every module is loaded first, so no row pays a first load."""
    for name in obstructia.__all__:
        importlib.import_module(f"obstructia.{name}")
    defs = src_defs()
    return set(defs.values()), {row: profile_row(argv_of(row), defs) for row, _ in ROWS}


def test_every_def_is_reached(profiled):
    """A def of src/ that no row enters is deleted, or listed in UNREACHED
    with its reason; a listed def that a row enters, or that is gone, is a
    stale row of UNREACHED."""
    names, runs = profiled
    entered = set().union(*runs.values())
    unlisted = sorted(names - entered - UNREACHED.keys())
    stale = sorted(name for name in UNREACHED if name in entered or name not in names)
    assert not unlisted, f"no PINS row enters {unlisted}: delete them, or list them in UNREACHED with the reason"
    assert not stale, f"stale UNREACHED rows: {stale} (entered by a PINS row, or no def of src/)"


def test_work(profiled):
    """Each row does the work WORK pins; on a change, the rows and the
    functions whose counts moved are named."""
    _, runs = profiled
    got = {row: (sum(counts.values()), work_digest(counts)) for row, counts in runs.items()}
    rows = [row for row in got.keys() | WORK_ROWS.keys() if got.get(row) != WORK_ROWS.get(row)]
    summed = sum(runs.values(), Counter())
    pinned = Counter({name: int(n) for n, name in (line.split() for line in CALLS.strip().splitlines())})
    functions = sorted(f"{name}: {pinned[name]} -> {summed[name]}" for name in summed.keys() | pinned.keys() if pinned[name] != summed[name])
    assert not rows and not functions, f"work moved in rows {sorted(rows)}; calls by function, pinned -> now: {functions}"
