"""Exact Laurent polynomial arithmetic in one and two variables.

Every invariant value computed by this package lives in
``Z[y^±1, z^±1]``: the Kauffman polynomials, and the coefficient tables,
which are the polynomials ``sum_n T[n] z^n`` (a subclass of
``BivariatePoly``); one entry ``T[n]`` lies in ``Z[y, y^-1]``.
Coefficients are Python ints, so all arithmetic is exact at any size
and there is no overflow to guard against.

Polynomials are stored sparsely, exponent -> nonzero coefficient, and
zero coefficients are dropped on construction.  Equal polynomials
therefore always compare (and hash) equal.

Text form: terms sorted by ascending exponent, ``y`` / ``y^k`` with an
explicit ``*`` between a coefficient and its monomial, e.g.
``y^-1 + y`` or ``-1 + 2*y^2``.  Bivariate terms sort by
(z-exponent, y-exponent), e.g. ``y^-1*z^-1 + y*z^-1 - 1``.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Mapping


def _as_term_items(terms) -> Iterable[tuple]:
    if terms is None:
        return ()
    if isinstance(terms, Mapping):
        return terms.items()
    return terms


def _format_terms(items: list[tuple[str, int]]) -> str:
    """Render (monomial, coefficient) pairs; empty monomial means a constant."""
    if not items:
        return "0"
    parts: list[str] = []
    for mono, coeff in items:
        mag = abs(coeff)
        if mono == "":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


def _var_power(var: str, exp: int) -> str:
    return var if exp == 1 else f"{var}^{exp}"


class LaurentPoly:
    """Integer Laurent polynomial in the single variable ``y``."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        acc: dict[int, int] = {}
        for exp, coeff in _as_term_items(terms):
            if not isinstance(exp, int) or not isinstance(coeff, int):
                raise TypeError("exponents and coefficients must be ints")
            c = acc.get(exp, 0) + coeff
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        self._terms = acc
        self._hash: int | None = None

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly()
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        out = LaurentPoly()
        out._terms = acc
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else -other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        out = LaurentPoly()
        out._terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are only defined for monomials; shift instead")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial ``y^k``."""
        out = LaurentPoly()
        out._terms = {e + k: c for e, c in self._terms.items()}
        return out

    def subst_y_inverse(self) -> "LaurentPoly":
        """Apply ``y -> y^-1``."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def __str__(self) -> str:
        items = [
            ("" if e == 0 else _var_power("y", e), c)
            for e, c in sorted(self._terms.items())
        ]
        return _format_terms(items)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


class BivariatePoly:
    """Integer Laurent polynomial in ``y`` and ``z``.

    Operators return ``type(self)``, so a subclass keeps its type (and
    its text form) under arithmetic.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | Iterable | None = None):
        acc: dict[tuple[int, int], int] = {}
        for key, coeff in _as_term_items(terms):
            ye, ze = key
            if not isinstance(ye, int) or not isinstance(ze, int) or not isinstance(coeff, int):
                raise TypeError("exponents and coefficients must be ints")
            c = acc.get((ye, ze), 0) + coeff
            if c:
                acc[(ye, ze)] = c
            else:
                acc.pop((ye, ze), None)
        self._terms = acc
        self._hash: int | None = None

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, y_exp: int, z_exp: int, coeff: int = 1) -> "BivariatePoly":
        return cls({(y_exp, z_exp): coeff})

    @classmethod
    def from_laurent(cls, p: LaurentPoly, z_exp: int = 0) -> "BivariatePoly":
        return cls({(e, z_exp): c for e, c in p.items()})

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = BivariatePoly({(0, 0): other})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __neg__(self) -> "BivariatePoly":
        out = type(self)()
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __add__(self, other) -> "BivariatePoly":
        if isinstance(other, int):
            other = BivariatePoly({(0, 0): other})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        out = type(self)()
        out._terms = acc
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "BivariatePoly":
        return self + (-other if isinstance(other, BivariatePoly) else -other)

    def __rsub__(self, other) -> "BivariatePoly":
        return (-self) + other

    def __mul__(self, other) -> "BivariatePoly":
        if isinstance(other, int):
            if other == 0:
                return type(self)()
            return type(self)({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                s = acc.get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        out = type(self)()
        out._terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePoly":
        if n < 0:
            raise ValueError("negative powers are only defined for monomials")
        result = type(self).one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_z(self, k: int) -> "BivariatePoly":
        """Multiply by ``z^k``."""
        out = type(self)()
        out._terms = {(a, b + k): c for (a, b), c in self._terms.items()}
        return out

    def shift_y(self, k: int) -> "BivariatePoly":
        """Multiply by ``y^k``."""
        out = type(self)()
        out._terms = {(a + k, b): c for (a, b), c in self._terms.items()}
        return out

    def subst_y_inverse(self) -> "BivariatePoly":
        """Apply ``y -> y^-1`` leaving ``z`` fixed."""
        return type(self)({(-a, b): c for (a, b), c in self._terms.items()})

    def subst_y_one(self) -> "BivariatePoly":
        """Collapse ``y -> 1``; the result only involves ``z``."""
        return type(self)([((0, b), c) for (a, b), c in self._terms.items()])

    def z_coefficient(self, z_exp: int) -> LaurentPoly:
        """Extract the coefficient of ``z^z_exp`` as a polynomial in ``y``."""
        return LaurentPoly({a: c for (a, b), c in self._terms.items() if b == z_exp})

    def z_support(self) -> tuple[int, ...]:
        return tuple(sorted({b for (_, b) in self._terms}))

    def __str__(self) -> str:
        items = []
        for (a, b), c in sorted(self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            mono_parts = []
            if a != 0:
                mono_parts.append(_var_power("y", a))
            if b != 0:
                mono_parts.append(_var_power("z", b))
            items.append(("*".join(mono_parts), c))
        return _format_terms(items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


#: The polynomial y + y^-1, the loop value driving the closed formulas.
Y_PLUS_Y_INV = LaurentPoly({1: 1, -1: 1})


def monotone_coeff(writhe: int, n: int, r: int) -> LaurentPoly:
    """Closed-form coefficient of a descending (warping-degree-zero) diagram.

    Returns ``y^writhe * (-1)^n * C(r-1, n) * (y + y^-1)^(r-n-1)`` for
    ``0 <= n <= r-1`` and the zero polynomial outside that range.

    Parameters
    ----------
    writhe : int
        Writhe of the diagram under its traversal orientation.
    n : int
        Coefficient index.
    r : int
        Number of link components; must be >= 1.
    """
    if r < 1:
        raise ValueError("a diagram has at least one component")
    if n < 0 or n > r - 1:
        return LaurentPoly.zero()
    sign = -1 if n % 2 else 1
    scale = sign * comb(r - 1, n)
    k = r - n - 1
    return LaurentPoly({writhe + k - 2 * i: scale * comb(k, i) for i in range(k + 1)})
