"""Exact sparse polynomials: the ring and formatting code of `SitePoly` and
`PowerSumPoly`.

A polynomial is a dict from monomials to nonzero rational coefficients,
each a Python int or a `Fraction`.  The ring operations start from int 0
and 1 and keep an int scale factor an int, so int coefficients stay ints:
a polynomial built from integers (every flow stencil) forms no `Fraction`.
As 3 == Fraction(3), hash(3) == hash(Fraction(3)) and str(3) ==
str(Fraction(3)), equality and text do not see which type a coefficient is.
No zero coefficient is ever stored, so dict equality is equality of
polynomials on one monomial basis.  Instances are treated as immutable
after construction.

Each subclass supplies its monomial monoid and its text form:
`_UNIT` (the constant monomial), `_mono_mul` (the monomial product),
`_mono_str` (the text of a non-constant monomial) and `_display_key` /
`_DESCENDING` (the term order of `str()`).  Every monoid used here is
commutative and cancellative, so multiplying by a single monomial never
makes two terms collide.

Results are wrapped by `_new`, so a subclass whose monomials are read
against an attribute of the polynomial keeps it: a `SitePoly` monomial is
a sorted tuple of int offsets i, each standing for the rational offset
i / grid on the polynomial's own grid.  `SitePoly` brings the operands of
`sum` and `*` to one grid before it calls the ring operations here, which
then see only int tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class SparsePoly:
    """Finite sum of monomials with exact rational coefficients."""

    __slots__ = ("coeffs",)

    _UNIT = ()
    _DESCENDING = False

    @staticmethod
    def _display_key(mono):
        return mono

    def __init__(self, terms: dict | Iterable[tuple] = ()):
        """Sum of (monomial, coefficient) pairs, or of a dict's items."""
        if isinstance(terms, dict):
            terms = terms.items()
        self.coeffs = _accumulate({}, terms)

    @classmethod
    def _raw(cls, coeffs: dict):
        """Wrap a dict that holds no zero coefficient, without copying it."""
        new = object.__new__(cls)
        new.coeffs = coeffs
        return new

    def _new(self, coeffs: dict):
        """Wrap zero-free terms on self's monomial basis, without copying."""
        return self._raw(coeffs)

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({cls._UNIT: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- ring operations ----------------------------------------------------

    @classmethod
    def sum(cls, polys):
        """The sum in one pass, the others added into one copy of the longest
        operand; a lone nonzero operand is returned itself."""
        polys = [p for p in polys if p.coeffs]
        if len(polys) < 2:
            return polys[0] if polys else cls.zero()
        polys.sort(key=len, reverse=True)
        acc = dict(polys[0].coeffs)
        for p in polys[1:]:
            _accumulate(acc, p.coeffs.items())
        return polys[0]._new(acc)

    def __add__(self, other):
        return self.sum((self, other))

    def __neg__(self):
        return self._new({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._new({})
        if len(b) == 1:
            ((m, c),) = b.items()
            return self.mul_monomial(m, c)
        if len(a) == 1:
            ((m, c),) = a.items()
            return other.mul_monomial(m, c)
        mono_mul = self._mono_mul
        return self._new(_accumulate(
            {}, ((mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())
        ))

    def mul_monomial(self, mono, coef):
        """Product with coef * mono (no two terms can collide); 1 and -1 multiply nothing."""
        if mono == self._UNIT:
            return self if coef == 1 else self.scale(coef)
        mono_mul, items = self._mono_mul, self.coeffs.items()
        if coef == 1:
            return self._new({mono_mul(m, mono): c for m, c in items})
        if coef == -1:
            return self._new({mono_mul(m, mono): -c for m, c in items})
        return self._new({mono_mul(m, mono): c * coef for m, c in items})

    def scale(self, r):
        """The product with the rational r; an int r keeps int coefficients ints."""
        r = r if isinstance(r, (int, Fraction)) else Fraction(r)
        if not r:
            return self._new({})
        return self._new({m: c * r for m, c in self.coeffs.items()})

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        """The terms in display order, as "c*mono", "mono", "-mono" or, for
        the unit, "c", joined by " + " and " - "; "0" if there are none."""
        unit, mono_str, key = self._UNIT, self._mono_str, self._display_key
        chunks = []
        for m, c in sorted(self.coeffs.items(), key=lambda t: key(t[0]), reverse=self._DESCENDING):
            coef = str(c)
            text = coef if m == unit else {"1": "", "-1": "-"}.get(coef, coef + "*") + mono_str(m)
            chunks.append(text if not chunks else " - " + text[1:] if text[0] == "-" else " + " + text)
        return "".join(chunks) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _accumulate(acc: dict, terms) -> dict:
    """acc with each (monomial, coefficient) pair of terms added in, a
    coefficient that cancels to zero dropped."""
    for m, c in terms:
        v = acc.get(m, 0) + c
        if v:
            acc[m] = v
        elif m in acc:
            del acc[m]
    return acc
