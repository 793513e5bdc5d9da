"""Exact coefficient arithmetic for q-power expressions.

An element of the field is a quotient n/d where n and d are finite
Q-linear combinations of formal powers q^E(s), the exponent E being a
polynomial in s with rational coefficients of degree at most 2.  Exponents
add under multiplication, so the monomials form a totally ordered group,
the linear combinations an integral domain, and the quotients a field.
Everything is exact: coefficients are `fractions.Fraction`, exponents are
triples of Fractions.

Equality of quotients is decided by cross multiplication; no gcd-style
normalization is attempted.  The reductions applied are cheap ones that
keep iterated arithmetic bounded: the smallest denominator term is divided
out of both parts, and sums try to reuse a common denominator through an
exact-division probe before falling back to cross multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import DenominatorVanishes
from .sparse import SparsePoly

Rat = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

PRECISION_BITS = 128  # default working precision of QFieldElem.eval and eval_interval


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


from math import gcd as _gcd


def _rat(x) -> tuple[int, int]:
    """Normalized int pair (num, den > 0)."""
    if isinstance(x, int):
        return (x, 1)
    f = _frac(x)
    return (f.numerator, f.denominator)


def _radd(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    n, d = an * bd + bn * ad, ad * bd
    g = _gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


def _rmul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    n, d = an * bn, ad * bd
    if n == 0:
        return (0, 1)
    g = _gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


class ExponentPoly:
    """Exponent E(s) = c2*s^2 + c1*s + c0 with exact rational coefficients.

    Immutable; the canonical term order is lexicographic on (c2, c1, c0).
    Internally the coefficients are normalized integer pairs, which keeps
    dictionary operations on exponents cheap in hot loops.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, c0: Rat = 0, c1: Rat = 0, c2: Rat = 0):
        n0, d0 = _rat(c0)
        n1, d1 = _rat(c1)
        n2, d2 = _rat(c2)
        object.__setattr__(self, "key", (n2, d2, n1, d1, n0, d0))
        object.__setattr__(self, "_hash", hash((n2, d2, n1, d1, n0, d0)))

    @staticmethod
    def _raw(key: tuple) -> "ExponentPoly":
        self = object.__new__(ExponentPoly)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ExponentPoly is immutable")

    @property
    def c0(self) -> Fraction:
        return Fraction(self.key[4], self.key[5])

    @property
    def c1(self) -> Fraction:
        return Fraction(self.key[2], self.key[3])

    @property
    def c2(self) -> Fraction:
        return Fraction(self.key[0], self.key[1])

    @staticmethod
    def of(c0: Rat = 0, c1: Rat = 0, c2: Rat = 0) -> "ExponentPoly":
        return ExponentPoly(c0, c1, c2)

    @staticmethod
    def const(c: Rat) -> "ExponentPoly":
        return ExponentPoly(c)

    def __eq__(self, other) -> bool:
        return self.key == other.key if isinstance(other, ExponentPoly) else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "ExponentPoly") -> bool:
        a, b = self.key, other.key
        for i in (0, 2, 4):
            left = a[i] * b[i + 1]
            right = b[i] * a[i + 1]
            if left != right:
                return left < right
        return False

    def __add__(self, other: "ExponentPoly") -> "ExponentPoly":
        a, b = self.key, other.key
        return ExponentPoly._raw(
            _radd(a[0], a[1], b[0], b[1])
            + _radd(a[2], a[3], b[2], b[3])
            + _radd(a[4], a[5], b[4], b[5])
        )

    def __sub__(self, other: "ExponentPoly") -> "ExponentPoly":
        a, b = self.key, other.key
        return ExponentPoly._raw(
            _radd(a[0], a[1], -b[0], b[1])
            + _radd(a[2], a[3], -b[2], b[3])
            + _radd(a[4], a[5], -b[4], b[5])
        )

    def __neg__(self) -> "ExponentPoly":
        k = self.key
        return ExponentPoly._raw((-k[0], k[1], -k[2], k[3], -k[4], k[5]))

    def shift(self, beta: Rat) -> "ExponentPoly":
        """Exact substitution s -> s + beta."""
        bn, bd = _rat(beta)
        if bn == 0:
            return self
        n2, d2, n1, d1, n0, d0 = self.key
        new1 = _radd(n1, d1, 2 * bn * n2, bd * d2)
        lin = _rmul(bn, bd, n1, d1)
        quad = _rmul(bn * bn, bd * bd, n2, d2)
        new0 = _radd(*_radd(n0, d0, *lin), *quad)
        return ExponentPoly._raw((n2, d2) + new1 + new0)

    def is_zero(self) -> bool:
        k = self.key
        return k[0] == 0 and k[2] == 0 and k[4] == 0

    def value_at(self, s_val: Rat) -> Fraction:
        s = _frac(s_val)
        return self.c0 + self.c1 * s + self.c2 * s * s

    def __str__(self) -> str:
        parts = []
        for coef, sym in ((self.c2, "s^2"), (self.c1, "s"), (self.c0, "")):
            if coef == 0:
                continue
            if sym and coef == 1:
                text = sym
            elif sym and coef == -1:
                text = "-" + sym
            elif sym:
                text = f"{coef}*{sym}"
            else:
                text = str(coef)
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"ExponentPoly({self})"


E_ZERO = ExponentPoly()


class QPowerSum(SparsePoly):
    """Finite Q-linear combination of monomials q^E(s), keyed by the
    exponent E and displayed by descending E."""

    __slots__ = ("_hash",)

    _UNIT = E_ZERO
    _DESCENDING = True
    _mono_mul = staticmethod(ExponentPoly.__add__)

    @staticmethod
    def _mono_str(expo: ExponentPoly) -> str:
        return f"q^({expo})"

    # -- constructors ----------------------------------------------------

    @staticmethod
    def monomial(expo: ExponentPoly, coef: Rat = 1) -> "QPowerSum":
        coef = _frac(coef)
        return QPowerSum._raw({expo: coef} if coef else {})

    @staticmethod
    def rational(c: Rat) -> "QPowerSum":
        return QPowerSum.monomial(E_ZERO, c)

    # -- structure ---------------------------------------------------------

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs.get(E_ZERO) == _ONE

    def min_term(self) -> tuple[ExponentPoly, Fraction]:
        e = min(self.coeffs)  # ExponentPoly.__lt__ is the exact term order
        return e, self.coeffs[e]

    def max_term(self) -> tuple[ExponentPoly, Fraction]:
        e = max(self.coeffs)
        return e, self.coeffs[e]

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.coeffs.items()))
            return h

    # -- exponent maps -------------------------------------------------------

    def shift(self, beta: Rat) -> "QPowerSum":
        """Substitute s -> s + beta in every exponent (ring homomorphism)."""
        beta = _frac(beta)
        if not beta:
            return self
        return QPowerSum._raw({e.shift(beta): c for e, c in self.coeffs.items()})

    def negate_exponents(self) -> "QPowerSum":
        """The involution q -> 1/q (negates every exponent)."""
        return QPowerSum._raw({-e: c for e, c in self.coeffs.items()})

    # -- numerics ---------------------------------------------------------------

    def eval_in(self, ctx, log_q, s_val: Rat):
        """Value at q = exp(log_q) and rational s in the mpmath context ctx
        (mp for a point value, iv for an interval), at its precision."""
        total = ctx.mpf(0)
        for expo, coef in self.coeffs.items():
            r = expo.value_at(s_val)
            c = ctx.mpf(coef.numerator) / coef.denominator
            if r == 0:
                total += c
            else:
                total += c * ctx.exp((ctx.mpf(r.numerator) / r.denominator) * log_q)
        return total


_QPS_ZERO = QPowerSum.zero()
_QPS_ONE = QPowerSum.one()

_DIV_CACHE: dict[tuple[QPowerSum, QPowerSum], QPowerSum | None] = {}


def _divide_exact(num: QPowerSum, den: QPowerSum) -> QPowerSum | None:
    """num/den when the division is exact in the monomial algebra, else None.

    Leading-term elimination in the canonical exponent order, working on a
    mutable dict; bails out once the step count exceeds what an exact
    quotient could need.  Results are memoized (denominators recur heavily
    in iterated operator arithmetic).
    """
    if den.is_zero():
        return None
    if den.is_one():
        return num
    if len(den.coeffs) == 1:
        ((e, c),) = den.coeffs.items()
        return num.mul_monomial(-e, 1 / c)
    if num.is_zero():
        return _QPS_ZERO
    key = (num, den)
    if key in _DIV_CACHE:
        return _DIV_CACHE[key]
    lead_e, lead_c = den.max_term()
    den_rest = [(e, c) for e, c in den.coeffs.items() if e != lead_e]
    rem = dict(num.coeffs)
    quot: dict[ExponentPoly, Fraction] = {}
    max_steps = len(num.coeffs) + len(den.coeffs) + 8
    result = None
    for _ in range(max_steps):
        if not rem:
            result = QPowerSum._raw(quot)
            break
        re = max(rem)
        qe, qc = re - lead_e, rem[re] / lead_c
        quot[qe] = quot.get(qe, _ZERO) + qc
        if not quot[qe]:
            del quot[qe]
        del rem[re]
        for e, c in den_rest:
            ke = e + qe
            v = rem.get(ke, _ZERO) - c * qc
            if v:
                rem[ke] = v
            elif ke in rem:
                del rem[ke]
    if len(_DIV_CACHE) < 200_000:
        _DIV_CACHE[key] = result
    return result


class QFieldElem:
    """Quotient of two QPowerSum values; den is nonzero.

    Stored with the smallest denominator term divided out of both num and
    den, so a monomial denominator always reduces to 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QPowerSum, den: QPowerSum = _QPS_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in QFieldElem")
        if num.is_zero():
            den = _QPS_ONE
        elif not den.is_one():
            e, c = den.min_term()
            if not (e.is_zero() and c == 1):
                num = num.mul_monomial(-e, 1 / c)
                den = den.mul_monomial(-e, 1 / c)
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "QFieldElem":
        return _QFE_ZERO

    @staticmethod
    def one() -> "QFieldElem":
        return _QFE_ONE

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_s_free(self) -> bool:
        """True when no exponent depends on s (pure q^(rational) expression)."""
        return all(
            e.c1 == 0 and e.c2 == 0 for e in (*self.num.coeffs, *self.den.coeffs)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, QFieldElem):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        # cross multiplication; exact
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equality is semantic, not structural

    # -- field operations ------------------------------------------------------

    def __add__(self, other: "QFieldElem") -> "QFieldElem":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return QFieldElem(self.num + other.num, self.den)
        t = _divide_exact(other.den, self.den)
        if t is not None:
            return QFieldElem(self.num * t + other.num, other.den)
        t = _divide_exact(self.den, other.den)
        if t is not None:
            return QFieldElem(self.num + other.num * t, self.den)
        return QFieldElem(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "QFieldElem":
        return QFieldElem(-self.num, self.den)

    def __sub__(self, other: "QFieldElem") -> "QFieldElem":
        return self + (-other)

    def __mul__(self, other: "QFieldElem") -> "QFieldElem":
        if self.is_zero() or other.is_zero():
            return _QFE_ZERO
        return QFieldElem(self.num * other.num, self.den * other.den)

    def inv(self) -> "QFieldElem":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero QFieldElem")
        return QFieldElem(self.den, self.num)

    def __truediv__(self, other: "QFieldElem") -> "QFieldElem":
        return self * other.inv()

    def scale(self, r: Rat) -> "QFieldElem":
        return QFieldElem(self.num.scale(r), self.den)

    def shift(self, beta: Rat) -> "QFieldElem":
        """Substitute s -> s + beta throughout."""
        beta = _frac(beta)
        if not beta:
            return self
        return QFieldElem(self.num.shift(beta), self.den.shift(beta))

    def invert_q(self) -> "QFieldElem":
        """Apply the involution q -> 1/q."""
        return QFieldElem(self.num.negate_exponents(), self.den.negate_exponents())

    @staticmethod
    def sum(elems) -> "QFieldElem":
        """Sum a collection, grouping equal denominators first."""
        groups: dict[QPowerSum, QPowerSum] = {}
        for x in elems:
            if x.is_zero():
                continue
            got = groups.get(x.den)
            groups[x.den] = x.num if got is None else got + x.num
        total = _QFE_ZERO
        for den, num in groups.items():
            total = total + QFieldElem(num, den)
        return total

    # -- numerics -------------------------------------------------------------------

    def _eval_parts(self, ctx, q_val, s_val: Rat):
        q = _frac(q_val)
        log_q = ctx.log(ctx.mpf(q.numerator) / q.denominator)
        return self.num.eval_in(ctx, log_q, s_val), self.den.eval_in(ctx, log_q, s_val)

    def eval_interval(self, q_val, s_val: Rat = 0, prec: int = PRECISION_BITS):
        """Certified interval value at numeric q in (0, 1) and rational s."""
        from mpmath import iv

        old = iv.prec
        try:
            iv.prec = prec
            num_iv, den_iv = self._eval_parts(iv, q_val, s_val)
            if 0 in den_iv:
                raise DenominatorVanishes(
                    f"denominator interval {den_iv} not certified away from 0"
                )
            return num_iv / den_iv
        finally:
            iv.prec = old

    def eval(self, q_val, s_val: Rat = 0, prec: int = PRECISION_BITS):
        """Numeric value (an mpmath mpf) at working precision.

        The denominator is certified nonzero by interval arithmetic first;
        the returned value is a plain extended-precision evaluation with
        guard bits (interval midpoints would silently round through float).
        """
        from mpmath import mp

        self.eval_interval(q_val, s_val, prec)  # certification only
        with mp.workprec(prec + 20):
            num, den = self._eval_parts(mp, q_val, s_val)
            value = num / den
            mp.prec = prec
            return +value

    # -- formatting --------------------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if len(self.num) > 1:
            num = f"({num})"
        return f"{num} / ({self.den})"

    def __repr__(self) -> str:
        return f"QFieldElem({self})"


_QFE_ZERO = QFieldElem(_QPS_ZERO)
_QFE_ONE = QFieldElem(_QPS_ONE)


def qpow(expo: ExponentPoly | Rat, coef: Rat = 1) -> QFieldElem:
    """The monomial coef * q^E(s); a plain rational when E is the zero poly."""
    if not isinstance(expo, ExponentPoly):
        expo = ExponentPoly.const(expo)
    return QFieldElem(QPowerSum.monomial(expo, coef))
