"""Exact Laurent polynomial arithmetic in one and two variables.

Every invariant value computed by this package lives in
``Z[y^±1, z^±1]``: the Kauffman polynomials, and the coefficient tables,
which are the polynomials ``sum_n T[n] z^n`` (a subclass of
``BivariatePoly``); one entry ``T[n]`` lies in ``Z[y, y^-1]``.
Coefficients are Python ints, so all arithmetic is exact at any size
and there is no overflow to guard against.

Polynomials are stored sparsely, exponent key -> nonzero coefficient,
and zero coefficients are dropped on construction.  Equal polynomials
therefore always compare (and hash) equal, and a constant polynomial
equals, and hashes as, the int it holds.

Both types share one implementation, the private base ``_Sparse``: the
checking constructor, ``zero``, ``one``, ``items``, equality, hashing,
negation, addition, subtraction, powers and the text form never look
inside an exponent key.  ``LaurentPoly`` (int keys) and
``BivariatePoly`` (``(y, z)`` keys) add only their key check, their
constant key, ``monomial``, the product loop and their own shifts and
substitutions.  Each class binds the shared operators in its own body
rather than inheriting them, because the bench tracer
(``perfbench/tracing.py``) wraps the methods it finds in each class's
own ``__dict__``.  Results are ``type(self)``, so a subclass keeps its
type under arithmetic, and the two rings do not mix: ``+``, ``-`` and
``*`` across them raise ``TypeError``, and ``==`` is false.

Text form: terms sorted by ascending exponent, ``y`` / ``y^k`` with an
explicit ``*`` between a coefficient and its monomial, e.g.
``y^-1 + y`` or ``-1 + 2*y^2``.  Bivariate terms sort by
(z-exponent, y-exponent), e.g. ``y^-1*z^-1 + y*z^-1 - 1``.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Mapping


def _var_power(var: str, exp: int) -> str:
    return var if exp == 1 else f"{var}^{exp}"


class _Sparse:
    """Sparse Laurent arithmetic over exponent keys it never looks inside.

    A subclass sets ``_UNIT``, the key of the constant monomial, and
    ``_ring``, the class whose instances it adds to and compares with;
    it gives ``_key`` (a checked key, or None) and ``_monomial`` (a
    key's sort position and text).
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        if isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict = {}
        for key, coeff in terms or ():
            key = self._key(key)
            if key is None or not isinstance(coeff, int):
                raise TypeError("exponents and coefficients must be ints")
            c = acc.get(key, 0) + coeff
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        self._terms = acc
        self._hash: int | None = None

    @classmethod
    def _new(cls, terms: dict):
        """A polynomial on checked keys and nonzero coefficients."""
        out = object.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls):
        return cls._new({})

    @classmethod
    def one(cls):
        return cls._new({cls._UNIT: 1})

    def items(self) -> Iterator[tuple]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, self._ring):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({self._UNIT: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            terms = self._terms
            if terms.keys() <= {self._UNIT}:  # a constant hashes as its int
                self._hash = hash(terms.get(self._UNIT, 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def _neg(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def _add(self, other):
        if isinstance(other, int):
            other_terms = {self._UNIT: other} if other else {}
        elif isinstance(other, self._ring):
            other_terms = other._terms
        else:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other_terms.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return self._new(acc)

    def _sub(self, other):
        return self + (-other)

    def _rsub(self, other):
        return (-self) + other

    def _scale(self, k: int):
        """Multiply by the int ``k``."""
        return self._new({e: c * k for e, c in self._terms.items()} if k else {})

    def _pow(self, n: int):
        if n < 0:
            raise ValueError("negative powers are only defined for monomials; shift instead")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        parts: list[str] = []
        for _, mono, coeff in sorted(self._monomial(k) + (c,) for k, c in self._terms.items()):
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
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class LaurentPoly(_Sparse):
    """Integer Laurent polynomial in the single variable ``y``."""

    __slots__ = ()
    _UNIT = 0

    # bound here, not inherited, for the bench tracer (module docstring)
    __add__ = __radd__ = _Sparse._add
    __sub__ = _Sparse._sub
    __rsub__ = _Sparse._rsub
    __neg__ = _Sparse._neg
    __pow__ = _Sparse._pow

    @staticmethod
    def _key(exp):
        return exp if isinstance(exp, int) else None

    @staticmethod
    def _monomial(exp: int) -> tuple[int, str]:
        return exp, "" if exp == 0 else _var_power("y", exp)

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return self._scale(other)
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
        return self._new(acc)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial ``y^k``."""
        return self._new({e + k: c for e, c in self._terms.items()})

    def subst_y_inverse(self) -> "LaurentPoly":
        """Apply ``y -> y^-1``."""
        return self._new({-e: c for e, c in self._terms.items()})


class BivariatePoly(_Sparse):
    """Integer Laurent polynomial in ``y`` and ``z``, keyed by
    ``(y exponent, z exponent)``."""

    __slots__ = ()
    _UNIT = (0, 0)

    # bound here, not inherited, for the bench tracer (module docstring)
    __add__ = __radd__ = _Sparse._add
    __sub__ = _Sparse._sub
    __rsub__ = _Sparse._rsub
    __neg__ = _Sparse._neg
    __pow__ = _Sparse._pow

    @staticmethod
    def _key(key):
        ye, ze = key
        return (ye, ze) if isinstance(ye, int) and isinstance(ze, int) else None

    @staticmethod
    def _monomial(key: tuple[int, int]) -> tuple[tuple[int, int], str]:
        a, b = key
        return (b, a), "*".join(_var_power(v, e) for v, e in (("y", a), ("z", b)) if e)

    @classmethod
    def monomial(cls, y_exp: int, z_exp: int, coeff: int = 1) -> "BivariatePoly":
        return cls({(y_exp, z_exp): coeff})

    @classmethod
    def from_laurent(cls, p: LaurentPoly, z_exp: int = 0) -> "BivariatePoly":
        return cls({(e, z_exp): c for e, c in p.items()})

    def __mul__(self, other) -> "BivariatePoly":
        if isinstance(other, int):
            return self._scale(other)
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
        return self._new(acc)

    __rmul__ = __mul__

    def shift_z(self, k: int) -> "BivariatePoly":
        """Multiply by ``z^k``."""
        return self._new({(a, b + k): c for (a, b), c in self._terms.items()})

    def shift_y(self, k: int) -> "BivariatePoly":
        """Multiply by ``y^k``."""
        return self._new({(a + k, b): c for (a, b), c in self._terms.items()})

    def subst_y_inverse(self) -> "BivariatePoly":
        """Apply ``y -> y^-1`` leaving ``z`` fixed."""
        return self._new({(-a, b): c for (a, b), c in self._terms.items()})

    def subst_y_one(self) -> "BivariatePoly":
        """Collapse ``y -> 1``; the result only involves ``z``."""
        return type(self)([((0, b), c) for (a, b), c in self._terms.items()])

    def z_coefficient(self, z_exp: int) -> LaurentPoly:
        """Extract the coefficient of ``z^z_exp`` as a polynomial in ``y``."""
        return LaurentPoly._new({a: c for (a, b), c in self._terms.items() if b == z_exp})

    def z_support(self) -> tuple[int, ...]:
        return tuple(sorted({b for (_, b) in self._terms}))


LaurentPoly._ring = LaurentPoly
BivariatePoly._ring = BivariatePoly


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
