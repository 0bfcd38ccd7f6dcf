"""Built-in diagrams with machine-checkable property tags.

Tags are executable claims (see :func:`kauffpoly.verification.check_tag`):
``r=N`` and ``c=N`` pin counts, ``writhe=N`` pins the writhe of a knot
under its canonical traversal, ``monotone`` asserts warping degree zero
under the canonical base, and ``amphichiral`` asserts the normalized
polynomial is fixed by ``y -> y^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, connected_sum, disjoint_union, parse_pd


class CatalogError(KeyError):
    """No catalog entry has the requested name."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    pd: str
    known_properties: tuple[str, ...]

    def diagram(self) -> Diagram:
        return parse_pd(self.pd)


_UNKNOT = "O"
_UNLINK2 = "O O"
_KINK_POS = "X(1,2,2,1)"
_KINK_NEG = "X(2,2,1,1)"
_HOPF = "X(1,4,2,3) X(3,2,4,1)"
_TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
_FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def _sum_pd(pd1: str, pd2: str) -> str:
    return connected_sum(parse_pd(pd1), parse_pd(pd2)).to_pd()


def _union_pd(pd1: str, pd2: str) -> str:
    return disjoint_union(parse_pd(pd1), parse_pd(pd2)).to_pd()


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry("unknot", _UNKNOT, ("r=1", "c=0", "monotone", "amphichiral")),
        CatalogEntry("unlink2", _UNLINK2, ("r=2", "c=0", "monotone", "amphichiral")),
        CatalogEntry("kink_pos", _KINK_POS, ("r=1", "c=1", "writhe=1")),
        CatalogEntry("kink_neg", _KINK_NEG, ("r=1", "c=1", "writhe=-1")),
        CatalogEntry("hopf", _HOPF, ("r=2", "c=2")),
        CatalogEntry("trefoil", _TREFOIL, ("r=1", "c=3", "writhe=3")),
        CatalogEntry("figure8", _FIGURE8, ("r=1", "c=4", "writhe=0", "amphichiral")),
        CatalogEntry("granny", _sum_pd(_TREFOIL, _TREFOIL), ("r=1", "c=6", "writhe=6")),
        CatalogEntry("trefoil_figure8", _sum_pd(_TREFOIL, _FIGURE8), ("r=1", "c=7", "writhe=3")),
        CatalogEntry("figure8_figure8", _sum_pd(_FIGURE8, _FIGURE8), ("r=1", "c=8", "writhe=0", "amphichiral")),
        CatalogEntry("hopf_unknot", _union_pd(_HOPF, _UNKNOT), ("r=3", "c=2")),
        CatalogEntry("kink_trefoil", _sum_pd(_KINK_POS, _TREFOIL), ("r=1", "c=4", "writhe=4")),
    )
}


def get(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"no catalog entry {name!r}; available: {', '.join(sorted(CATALOG))}"
        ) from None


def names() -> tuple[str, ...]:
    return tuple(CATALOG)
