"""Base points, warping degree, and the coefficient recursion.

Traverse each component once from its base point; a crossing met first
on its under-strand is a warping crossing.  Warping degree zero means
the diagram is descending and its coefficient table is a closed form;
otherwise one crossing change plus two splices reduce the diagram, and
the recursion assembles the table from the three smaller ones.
"""

from kauffpoly import (
    canonical_base,
    coeff_table,
    coeff_table_with_base,
    enumerate_bases,
    parse_pd,
    warping_degree,
)

kink = parse_pd("X(1,2,2,1)")
trefoil = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
figure8 = parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)")

print("Warping degree depends on where you start and which way you head:")
for base in enumerate_bases(kink):
    entry = base[0]
    print(f"  kink from edge {entry.edge} toward {entry.toward}: degree "
          f"{warping_degree(kink, base)}")

degrees = sorted({warping_degree(trefoil, b) for b in enumerate_bases(trefoil)})
print(f"  trefoil over all bases: degrees {degrees} (never 0: no descending"
      " 3-crossing diagram of the trefoil shadow exists)")

print()
print("Coefficient tables (index n, value in Z[y, y^-1]):")
for name, d in [("unknot", parse_pd("O")), ("unlink2", parse_pd("O O")),
                ("kink", kink), ("trefoil", trefoil), ("figure8", figure8)]:
    print(f"  {name}: {coeff_table(d)}")

print()
print("The table does not depend on the base sequence:")
reference = coeff_table(trefoil)
agree = all(
    coeff_table_with_base(trefoil, b) == reference
    for b in enumerate_bases(trefoil)
)
print(f"  all {len(list(enumerate_bases(trefoil)))} trefoil bases agree:"
      f" {agree}")
