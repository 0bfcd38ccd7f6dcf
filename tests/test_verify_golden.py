"""``kauffpoly verify --pd`` stays byte-identical on inputs outside the
catalog.

``tests/test_outputs.py`` pins ``verify --catalog``, whose diagrams have
at most eight crossings and mostly take every base.  This file pins the
report lines of ``verify --pd`` on T(2,7), a connected sum of two
figure-eights cut at other edges than the catalog's, two seeded walks
from three free loops, and a nine-crossing ``random_diagram`` knot,
which takes the sampled-base path (more than ``FULL_BASE_LIMIT_C``
crossings and ``BASE_SAMPLE`` bases).  A change that means to alter
them rewrites the file with

    PYTHONPATH=src python tests/test_verify_golden.py --write

and says in its change notes which reports changed and why.
"""

import contextlib
import io
import sys
from pathlib import Path

from test_coeffs import braid_closure

from kauffpoly.catalog import CATALOG
from kauffpoly.cli import EXIT_OK, main
from kauffpoly.diagram import connected_sum, parse_pd
from kauffpoly.moves import random_diagram, random_move_walk
from kauffpoly.verification import BASE_SAMPLE, FULL_BASE_LIMIT_C
from kauffpoly.warping import enumerate_bases

GOLDEN = Path(__file__).parent / "data" / "verify_outputs.txt"


def inputs() -> list[tuple[str, str]]:
    """(label, PD text) of every pinned input, in file order."""
    f8 = CATALOG["figure8"].diagram()
    three_loops = parse_pd("O O O")
    knot = random_diagram(17, 9, walk_steps=30)
    assert knot.c > FULL_BASE_LIMIT_C and len(list(enumerate_bases(knot))) > BASE_SAMPLE
    return [
        ("T(2,7)", braid_closure(2, [1] * 7).to_pd()),
        ("f8#f8 at edges 3,6", connected_sum(f8, f8, 3, 6).to_pd()),
        *(
            (f"O O O walk {s}", random_move_walk(three_loops, 30, s, 8)[0].to_pd())
            for s in (5, 20)
        ),
        ("random_diagram 17", knot.to_pd()),
    ]


def _cli_lines(*argv: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != EXIT_OK:
        raise AssertionError(f"kauffpoly {' '.join(argv)} exited with {code}")
    return out.getvalue().splitlines()


def render() -> list[str]:
    """Every golden line, in file order, labelled by its input."""
    return [
        f"verify {label}: {line}"
        for label, pd in inputs()
        for line in _cli_lines("verify", "--pd", pd)
    ]


def test_verify_outputs_match_golden_file():
    assert render() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_verify_golden.py --write")
    GOLDEN.write_text("\n".join(render()) + "\n", encoding="utf-8")
