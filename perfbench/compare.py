"""Compare two saved runs of the same workload, metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are the records ``run.py`` saves under ``perfbench/out/``.
Runs whose input digests differ measured different inputs, so they are
refused (exit code 2) instead of compared.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.load(open(path, encoding="utf-8")) for path in argv)
    for key in ("workload", "trace", "digest"):
        if before[key] != after[key]:
            print(f"refused: {key} differs ({before[key]!r} vs {after[key]!r})", file=sys.stderr)
            return 2
    for name, m in before["metrics"].items():
        if name not in after["metrics"]:
            print(f"{name:32} {m['value']:>14.6g} {'(missing)':>14}")
            continue
        a, b = m["value"], after["metrics"][name]["value"]
        ratio = f"{b / a:.3f}" if a else "-"
        print(f"{name:32} {a:>14.6g} {b:>14.6g}  x{ratio} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
