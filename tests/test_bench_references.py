"""The benchmark's reference tables still match the engine.

A ``ladder`` pass compares each table with
``perfbench/data/ladder_tables.json`` and counts a mismatch as a failed
operation, so without this file a changed table would show only as the
benchmark's ``ok_frac``.  The file is read, never written: the inputs
are rebuilt with ``perfbench/workloads.py``, their digest is checked, and
every table is compared with its ``alpha`` as the workload compares it.
The file's ``nodes`` fields describe an older engine and are not read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kauffpoly.coeffs import coeff_table
from kauffpoly.diagram import parse_pd

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("kauffpoly_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFS = workloads.load_json("ladder_tables.json")
LADDER = workloads.ladder_pds()


def test_ladder_inputs_are_the_referenced_ones():
    assert workloads.sha256_lines(pd for _, pd in LADDER) == REFS["digest"]
    assert [name for name, _ in LADDER] == list(REFS["tables"])


@pytest.mark.parametrize("name, pd", LADDER, ids=[name for name, _ in LADDER])
def test_ladder_tables_match_the_references(name, pd):
    table = coeff_table(parse_pd(pd))
    assert json.dumps(table.to_json_obj()) == json.dumps(REFS["tables"][name]["alpha"])
