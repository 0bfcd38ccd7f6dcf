"""Command-line front end.

Subcommands::

    coeffs    coefficient table of a diagram (JSON)
    kauffman  L, F, and oracle cross-check (JSON)
    verify    per-diagram or whole-catalog verification suite (JSON report)
    fuzz      seeded random Reidemeister walks with invariance checks
    catalog   list or show the built-in diagrams

Diagrams come from ``--pd "X(1,2,2,1)"``, from a catalog name via
``--name``, or from a PD file (one link per line, ``#`` comments).  All
polynomial output is exact text, never floating point, and output is
byte-deterministic for fixed inputs, flags, and seeds.

Exit codes: 0 ok, 1 verification failure, 2 usage or parse error
(an unknown catalog name, an unreadable PD file, an empty or non-planar
diagram, a negative budget and a negative ``--steps``, ``--walks`` or
``--max-crossings`` included, and a fuzz start to which no move applies
under ``--max-crossings`` while ``--steps`` is positive), 3 a resource
limit: the recursion budget ran out, or the recursion went deeper than
Python's stack allows (``RecursionError``); either way one ``error:``
line names the crossing and component counts of the diagram being
worked on.  The budget defaults to ``KAUFFPOLY_BUDGET`` when that
environment variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import catalog as _catalog
from .coeffs import DEFAULT_BUDGET, BudgetExceededError, coeff_table
from .diagram import Diagram, DiagramError, parse_pd
from .moves import _applicable_kinds, random_move_walk, replay
from .oracle import oracle_L
from .series import kauffman_F, kauffman_L
from .verification import verify_catalog, verify_diagram
from .warping import canonical_base, induced_writhe, warping_degree

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


def _env_budget() -> int:
    raw = os.environ.get("KAUFFPOLY_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"KAUFFPOLY_BUDGET must be an integer, got {raw!r}") from None


def _gather_inputs(args) -> list[tuple[str, Diagram]]:
    """(name, diagram) pairs from --pd / --name / file arguments."""
    out: list[tuple[str, Diagram]] = []
    if getattr(args, "pd", None) is not None:
        out.append((args.pd, parse_pd(args.pd)))
    if getattr(args, "name", None) is not None:
        entry = _catalog.get(args.name)
        out.append((entry.name, entry.diagram()))
    for path in getattr(args, "files", ()) or ():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise _UsageError(f"cannot read PD file {path!r}: {reason}") from None
        for lineno, line in enumerate(lines, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                out.append((f"{path}:{lineno}", parse_pd(text)))
            except DiagramError as exc:
                raise DiagramError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise _UsageError("no input diagram; use --pd, --name, or a PD file")
    return out


def _parse_orientation(text: str | None, r: int) -> tuple[int, ...]:
    if text is None:
        return (1,) * r
    if set(text) - {"+", "-"} or len(text) != r:
        raise _UsageError(
            f"orientation must be {r} characters of '+'/'-', got {text!r}"
        )
    return tuple(1 if ch == "+" else -1 for ch in text)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


@contextmanager
def _on(d: Diagram):
    """Name ``d`` in a ``RecursionError`` raised while working on it."""
    try:
        yield
    except RecursionError:
        raise RecursionError(
            f"the recursion went deeper than Python's stack allows "
            f"(recursion limit {sys.getrecursionlimit()}) on a diagram with "
            f"{d.c} crossings and {d.r} components"
        ) from None


def _cmd_coeffs(args) -> int:
    budget = args.budget
    cache = {}
    for _, d in _gather_inputs(args):
        with _on(d):
            table = coeff_table(d, budget=budget, cache=cache)
        base = canonical_base(d)
        _emit(
            {
                "alpha": table.to_json_obj(),
                "c": d.c,
                "r": d.r,
                "writhe": induced_writhe(d, base),
                "warping_degree": warping_degree(d, base),
            }
        )
    return EXIT_OK


def _cmd_kauffman(args) -> int:
    budget = args.budget
    cache = {}
    oracle_cache = {}
    for _, d in _gather_inputs(args):
        orientation = _parse_orientation(args.orient, d.r)
        with _on(d):
            L = kauffman_L(d, budget=budget, cache=cache)
            F = kauffman_F(d, orientation, budget=budget, cache=cache)
            L_ind = oracle_L(d, budget=budget, cache=oracle_cache)
        _emit(
            {
                "L": str(L),
                "F": str(F),
                "orientation": ["+" if s == 1 else "-" for s in orientation],
                "L_oracle": str(L_ind),
                "agrees_with_coeff_pipeline": L == L_ind,
            }
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    budget = args.budget
    cache = {}
    oracle_cache = {}
    ok = True
    if args.catalog:
        all_ok, reports = verify_catalog(
            budget=budget, cache=cache, oracle_cache=oracle_cache
        )
        for rep in reports:
            _emit(rep)
        ok = all_ok
    else:
        for name, d in _gather_inputs(args):
            tags = ()
            if name in _catalog.CATALOG:
                tags = _catalog.CATALOG[name].known_properties
            with _on(d):
                rep = verify_diagram(
                    d,
                    name=name,
                    tags=tags,
                    budget=budget,
                    cache=cache,
                    oracle_cache=oracle_cache,
                )
            _emit(rep)
            ok = ok and rep["ok"]
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_fuzz(args) -> int:
    for flag, value in (
        ("--steps", args.steps),
        ("--walks", args.walks),
        ("--max-crossings", args.max_crossings),
    ):
        if value < 0:
            raise _UsageError(f"{flag} must be nonnegative, got {value}")
    budget = args.budget
    cache = {}
    start_name = args.start
    entry = _catalog.get(start_name)
    start = entry.diagram()
    if args.steps and not _applicable_kinds(start, args.max_crossings):
        raise _UsageError(
            f"no move applies to {entry.name} under --max-crossings {args.max_crossings}"
        )
    ok = True
    reports = []
    for i in range(args.walks):
        seed = args.seed + i
        end, trace = random_move_walk(start, args.steps, seed, args.max_crossings)
        replay_ok = replay(start, trace.steps) == end
        with _on(start):
            L_start = kauffman_L(start, budget=budget, cache=cache)
        with _on(end):
            L_end = kauffman_L(end, budget=budget, cache=cache)
        scaling_ok = L_end == L_start.shift_y(trace.net_r1)
        planar_ok = end.is_planar()
        walk_ok = replay_ok and scaling_ok and planar_ok
        ok = ok and walk_ok
        reports.append(
            {
                "start": entry.name,
                "seed": seed,
                "steps": len(trace.steps),
                "net_r1": trace.net_r1,
                "end_c": end.c,
                "replay_ok": replay_ok,
                "L_scaling_ok": scaling_ok,
                "planar_ok": planar_ok,
                "trace": trace.to_json_obj(),
            }
        )
    for rep in reports:
        _emit(rep)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in _catalog.names():
            entry = _catalog.CATALOG[name]
            sys.stdout.write(f"{name}: {', '.join(entry.known_properties)}\n")
        return EXIT_OK
    entry = _catalog.get(args.entry)
    sys.stdout.write(entry.pd + "\n")
    return EXIT_OK


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pd", help="PD text, e.g. 'X(1,2,2,1)' or 'O'")
    sub.add_argument("--name", help="catalog entry name")
    sub.add_argument("files", nargs="*", help="PD files, one link per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kauffpoly",
        description="Kauffman polynomial of link diagrams via exact skein coefficient tables",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="recursion node budget (default: KAUFFPOLY_BUDGET or %d)" % DEFAULT_BUDGET,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table of a diagram")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("kauffman", help="L and F polynomials plus oracle cross-check")
    _add_input_flags(p)
    p.add_argument("--orient", help="per-component '+'/'-' string (default all +)")
    p.set_defaults(func=_cmd_kauffman)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_input_flags(p)
    p.add_argument("--catalog", action="store_true", help="verify every built-in diagram")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", help="random Reidemeister walks with invariance checks")
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-crossings", type=int, default=10)
    p.add_argument("--walks", type=int, default=20)
    p.add_argument("--start", default="unknot", help="catalog entry to start from")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("catalog", help="list or show built-in diagrams")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("entry", nargs="?", help="entry name (for 'show')")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.entry:
        parser.error("catalog show requires an entry name")
    try:
        if args.budget is None:
            args.budget = _env_budget()
        if args.budget < 0:
            raise _UsageError(f"the budget must be nonnegative, got {args.budget}")
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _catalog.CatalogError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
