"""The CLI JSON on the benchmark ladder stays byte-identical to a golden
file.

The golden file holds the ``coeffs --pd`` and ``kauffman --pd`` JSON of
each input of ``perfbench.workloads.ladder_pds()`` (T(2,5)…T(2,11), the
figure-8 sums and the kink chains), in ladder order.  A change that
means to alter the lines rewrites the file with

    PYTHONPATH=src python tests/test_ladder_golden.py --write

and says in its change notes which outputs changed and why.
"""

import contextlib
import io
import sys
from pathlib import Path

from test_bench_references import LADDER

from kauffpoly.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "ladder_outputs.txt"


def _cli_lines(*argv: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != EXIT_OK:
        raise AssertionError(f"kauffpoly {' '.join(argv)} exited with {code}")
    return out.getvalue().splitlines()


def render() -> list[str]:
    """Every golden line, in file order, labelled by what produced it."""
    lines = []
    for name, pd in LADDER:
        lines += [f"coeffs {name}: {line}" for line in _cli_lines("coeffs", "--pd", pd)]
        lines += [f"kauffman {name}: {line}" for line in _cli_lines("kauffman", "--pd", pd)]
    return lines


def test_ladder_outputs_match_golden_file():
    assert render() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_ladder_golden.py --write")
    GOLDEN.write_text("\n".join(render()) + "\n", encoding="utf-8")
