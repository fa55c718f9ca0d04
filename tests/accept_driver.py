"""Run the full canned CLI command list over every fixture and print the
combined output; used by the determinism criterion, which compares the bytes
of two separate interpreter runs (different hash seeds included).  Each
command is printed with its fixture paths relative to the checkout root, so
two checkouts print the same bytes."""

import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from obstructia import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FIXTURES = os.path.join(ROOT, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


COMMANDS = [
    ["cat", "validate", fx("walking_arrow.cat")],
    ["cat", "validate", fx("terminal.cat")],
    ["cat", "validate", fx("discrete2.cat")],
    ["cat", "validate", fx("z2.cat")],
    ["cat", "pi0", fx("walking_arrow.cat"), "--object", "0"],
    ["cat", "pi0", fx("walking_arrow.cat"), "--object", "1"],
    ["cat", "pi0", fx("walking_arrow.cat"), "--object", "0", "--format", "interchange"],
    ["cat", "pi0", fx("walking_arrow.cat"), "--object", "0", "--format", "dot"],
    ["cat", "pi1", fx("z2.cat"), "--object", "*"],
    ["cat", "pi1", fx("z2.cat"), "--object", "*", "--format", "interchange"],
    ["cat", "pi1", fx("discrete2.cat"), "--object", "x"],
    ["cat", "analyze", fx("walking_arrow.cat"), "--morphism", "a"],
    ["cat", "check-terminal", fx("walking_arrow.cat"), "--object", "1"],
    ["cat", "check-terminal", fx("discrete2.cat"), "--object", "y"],
    ["set", "pi0", "--fn", fx("missing_two.fn")],
    ["set", "pi0", "--fn", fx("missing_two.fn"), "--format", "dot"],
    ["set", "pi0", "--fn", fx("missing_two.fn"), "--format", "interchange"],
    ["set", "pi1", "--fn", fx("fold_pair.fn")],
    ["set", "pi1", "--fn", fx("fold_pair.fn"), "--format", "interchange"],
    ["opengraph", "reach", fx("G.og")],
    ["opengraph", "reach", fx("H.og")],
    ["opengraph", "reach", fx("G_identified.og")],
    ["opengraph", "compose", fx("G.og"), fx("H.og")],
    ["opengraph", "compose", fx("G.og"), fx("H.og"), "--format", "dot"],
    ["opengraph", "obstruct", fx("G.og"), fx("H.og")],
    ["opengraph", "obstruct", fx("G.og"), fx("H.og"), "--format", "interchange"],
    ["opengraph", "act", fx("G.og"), fx("G_identified.og"), fx("identify_outputs.gh"), fx("H.og")],
    ["states", "obstruct", "--context", "cartesian", "--sets", "a,b|c,d"],
    ["states", "obstruct", "--context", "gf2", "--dims", "2,2"],
    ["states", "local-act", "--context", "gf2", "--dims", "2,2", "--fmat", "10,00", "--gmat", "10,01"],
]


def main() -> int:
    out = io.StringIO()
    for argv in COMMANDS:
        out.write("$ " + " ".join(os.path.relpath(a, ROOT) if a.startswith(FIXTURES) else a for a in argv) + "\n")
        code = cli.run(argv, out)
        out.write(f"exit {code}\n")
        if code != 0:
            sys.stdout.write(out.getvalue())
            return 1
    sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
