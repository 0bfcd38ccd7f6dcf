"""Outputs on the catalog stay byte-identical to a golden file.

The golden file holds, for every catalog entry, the ``coeffs`` and
``kauffman`` CLI JSON lines and ``str(coeff_table(d))``, then the lines
of ``verify --catalog``.  A change that means to alter any of them
rewrites the file with

    PYTHONPATH=src python tests/test_outputs.py --write

and says in its change notes which outputs changed and why.
"""

import contextlib
import io
import sys
from pathlib import Path

from kauffpoly.catalog import CATALOG
from kauffpoly.cli import EXIT_OK, main
from kauffpoly.coeffs import coeff_table

GOLDEN = Path(__file__).parent / "data" / "catalog_outputs.txt"


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
    for name, entry in CATALOG.items():
        lines += [f"coeffs {name}: {line}" for line in _cli_lines("coeffs", "--name", name)]
        lines += [f"kauffman {name}: {line}" for line in _cli_lines("kauffman", "--name", name)]
        lines.append(f"table {name}: {coeff_table(entry.diagram())}")
    lines += [f"verify --catalog: {line}" for line in _cli_lines("verify", "--catalog")]
    return lines


def test_catalog_outputs_match_golden_file():
    assert render() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_outputs.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(render()) + "\n", encoding="utf-8")
