"""``kauffpoly coeffs --pd`` stays byte-identical on inputs where the
engine's connected-sum law acts.

The golden file holds the ``coeffs --pd`` JSON of connected sums
(figure8 three times, hopf twice with figure8, and trefoil with hopf at
every pair of edges), of four prime diagrams whose splices are
composite (T(4,5), br4x16s2, br5x20s1 and ``random_diagram(131, 12,
walk_steps=30)``), and of the ends of 20 seeded 20-step move walks from
figure8#trefoil.  The oracle applies none of the engine's laws, so the
inputs of at most ``ORACLE_MAX_C`` crossings are also checked against it.
A change that means to alter the lines rewrites the file with

    PYTHONPATH=src python tests/test_composite_golden.py --write

and says in its change notes which outputs changed and why.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest
from test_coeffs import BR4X16S2, braid_closure

from kauffpoly.catalog import CATALOG
from kauffpoly.cli import EXIT_OK, main
from kauffpoly.diagram import connected_sum, parse_pd
from kauffpoly.moves import random_diagram, random_move_walk
from kauffpoly.oracle import oracle_L
from kauffpoly.series import kauffman_L

GOLDEN = Path(__file__).parent / "data" / "composite_outputs.txt"

#: Inputs up to this many crossings are also compared with the oracle.
ORACLE_MAX_C = 9


def br5x20s1():
    rng = random.Random(101)
    return braid_closure(5, [rng.choice([1, -1]) * rng.choice([1, 2, 3, 4]) for _ in range(20)])


def inputs() -> list[tuple[str, str]]:
    """(label, PD text) of every pinned input, in file order."""
    f8, hopf, tre = (CATALOG[name].diagram() for name in ("figure8", "hopf", "trefoil"))
    out = [
        ("f8#f8#f8", connected_sum(connected_sum(f8, f8), f8)),
        ("hopf#hopf#f8", connected_sum(connected_sum(hopf, hopf), f8)),
        *(
            (f"trefoil#hopf at edges {e},{e2}", connected_sum(tre, hopf, e, e2))
            for e in tre.edge_labels()
            for e2 in hopf.edge_labels()
        ),
        ("T(4,5)", braid_closure(4, [1, 2, 3] * 5)),
        ("br4x16s2", parse_pd(BR4X16S2)),
        ("br5x20s1", br5x20s1()),
        ("random_diagram 131", random_diagram(131, 12, walk_steps=30)),
    ]
    start = connected_sum(f8, tre)
    out += [(f"f8#trefoil walk {s}", random_move_walk(start, 20, s, 12)[0]) for s in range(20)]
    return [(label, d.to_pd()) for label, d in out]


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
        f"coeffs {label}: {line}"
        for label, pd in inputs()
        for line in _cli_lines("coeffs", "--pd", pd)
    ]


def test_composite_outputs_match_golden_file():
    assert render() == GOLDEN.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "pd",
    [
        pytest.param(pd, id=label)
        for label, pd in inputs()
        if parse_pd(pd).c <= ORACLE_MAX_C
    ],
)
def test_small_inputs_match_the_oracle(pd):
    d = parse_pd(pd)
    assert kauffman_L(d) == oracle_L(d)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_composite_golden.py --write")
    GOLDEN.write_text("\n".join(render()) + "\n", encoding="utf-8")
