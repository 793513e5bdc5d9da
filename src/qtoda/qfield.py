"""Exact coefficient arithmetic for q-power expressions.

An element of the field is a quotient n/d where n and d are finite
Q-linear combinations of formal powers q^E(s), the exponent E being a
polynomial in s with rational coefficients of degree at most 2.  Exponents
add under multiplication, so the monomials form a totally ordered group,
the linear combinations an integral domain, and the quotients a field.
Everything is exact.

Every term of a `QPowerSum` shares one s-part c2*s^2 + c1*s, as every
sum the construction builds does: a q-monomial in s times an s-free
function of q^(1/2).  It is stored as q^(c2*s^2 + c1*s) * c * P(q^(1/L)):
L the smallest grid of the constant exponents c0, c the rational content,
P a primitive integer Laurent polynomial with a positive leading
coefficient.  The form is canonical, so equality and hashing are
structural.  Products multiply the P's in ints with no gcd pass (Gauss's
lemma), and a one-term factor c*q^(k/L) is a shift of the other's
exponents with its content scaled by c.  A sum of any number of terms,
`QPowerSum.combine` (a + b and a - b are sums of two), takes one lcm of
the grids and of the content denominators, one pass over the terms and
one gcd pass.  Adding two nonzero sums of different s-parts raises
`MixedSParts`.

Every operation works on this part.  The text form writes the s-part
once per sum and reads each c0 = k/L and coefficient from the ints.  An
exponent enters only as the coefficients (c0, c1, c2) of a monomial,
`qpow(c0, c1, c2, coef)` or `QPowerSum.monomial`, and `terms()` reads the
same tuples back out.

Equality of quotients is decided by cross multiplication; no gcd-style
normalization is attempted.  The reductions applied are cheap ones that
keep iterated arithmetic bounded: the smallest denominator term is divided
out of both parts, and sums try to reuse a common denominator through an
exact-division probe, a pure function ended by an exact exponent bound and
kept in no memo.  So every denominator is s-free with smallest term 1.

A step whose result equals an operand returns that operand, not a copy:
the shift of an s-free sum or quotient, a product with the unit, a scaling
by 1.  Callers may rely on that identity; nothing may mutate a sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul, sub
from typing import Union

from .errors import MixedSParts, NotSFree

Rat = Union[int, Fraction]


def _rat(x) -> tuple[int, int]:
    """Normalized int pair (num, den > 0)."""
    return (x, 1) if isinstance(x, int) else x.as_integer_ratio()


def _pair(n: int, d: int) -> tuple[int, int]:
    """n/d, d > 0, as a normalized int pair."""
    g = gcd(n, d)
    return (n // g, d // g)


def _radd(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    return _pair(an * bd + bn * ad, ad * bd)


def _rmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    n, d = a[0] * b[0], a[1] * b[1]
    return (n, 1) if d == 1 else _pair(n, d)


def _rdiv(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a / b for normalized int pairs, b nonzero."""
    n, d = a[0] * b[1], a[1] * b[0]
    return _pair(n, d) if d > 0 else _pair(-n, -d)


def _shift_key(key: tuple, b: tuple[int, int]) -> tuple:
    """The int key (n2, d2, n1, d1, n0, d0) of E(s + b) from that of E(s),
    b an int pair: c2 stays, c1 gains 2*c2*b and c0 gains (c1 + c2*b)*b."""
    c2, c1, c0 = key[:2], key[2:4], key[4:]
    c2b = _rmul(c2, b)
    return c2 + _radd(*c1, *_rmul((2, 1), c2b)) + _radd(*c0, *_rmul(_radd(*c1, *c2b), b))


def _ratio_text(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms as "n" or "n/d"."""
    if d == 1:
        return str(n)
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _expo_text(key: tuple) -> str:
    """The text of c2*s^2 + c1*s + c0 from its int key, e.g. "s^2-1/2*s+3"."""
    text = ""
    for n, d, sym in zip(key[::2], key[1::2], ("s^2", "s", "")):
        if n:
            coef = str(n) if d == 1 else f"{n}/{d}"
            if sym:
                coef = {"1": "", "-1": "-"}.get(coef, coef + "*")
            text += ("+" if text and n > 0 else "") + coef + sym
    return text or "0"


# -- the part of a QPowerSum --------------------------------------------------
# A part (L, c, P) holds the terms c * P[k] * q^(k/L) of one s-part: c is a
# nonzero rational as a normalized int pair, P a nonempty primitive
# {int: int} whose coefficient at the largest exponent is positive, and
# L >= 1 the smallest grid of its exponents.  An s-part is the key
# (n2, d2, n1, d1) of c2*s^2 + c1*s: its coefficients as normalized int pairs.

_S0 = (0, 1, 0, 1)


def _s_neg(s: tuple) -> tuple:
    return (-s[0], s[1], -s[2], s[3])


def _sigma_add(a: tuple, b: tuple) -> tuple:
    if a == _S0 or b == _S0:
        return b if a == _S0 else a
    return _radd(*a[:2], *b[:2]) + _radd(*a[2:], *b[2:])


def _regrid(L: int, P: dict, M: int) -> dict:
    """P's exponents moved from the grid L to M, a multiple of L."""
    return P if M == L else {k * (M // L): v for k, v in P.items()}


def _on_grid(L: int, c: tuple, P: dict) -> tuple:
    """The part (L, c, P) on its smallest grid."""
    g = gcd(L, *P) if L > 1 else 1
    return (L, c, P) if g == 1 else (L // g, c, {k // g: v for k, v in P.items()})


def _part_mul(a: tuple, b: tuple) -> tuple:
    """Product of two parts.  By Gauss's lemma it is primitive, and its
    leading coefficient is the product of the two positive ones: no gcd pass.
    A one-term factor is c * q^(k/L) (its P is {k: 1}), so it is a shift."""
    a, b = (a, b) if len(a[2]) >= len(b[2]) else (b, a)  # the shorter one outside
    if len(b[2]) == 1:
        (k,) = b[2]
        return _part_times_q((a[0], _rmul(a[1], b[1]), a[2]), k, b[0])
    L = lcm(a[0], b[0])
    Pa, Pb, P = _regrid(a[0], a[2], L), _regrid(b[0], b[2], L), {}
    for kb, vb in Pb.items():
        for ka, va in Pa.items():
            k = ka + kb
            P[k] = P.get(k, 0) + va * vb
    if 0 in P.values():  # a scan in C; most products cancel no term
        P = {k: v for k, v in P.items() if v}
    return _on_grid(L, _rmul(a[1], b[1]), P)


def _part_from_ints(L: int, D: int, P: dict) -> tuple | None:
    """The part of the sum of P[k]/D * q^(k/L), P's values ints and D > 0:
    one gcd pass, then the smallest grid; None if every value is zero."""
    if 0 in P.values():  # a scan in C; most sums cancel no term
        P = {k: v for k, v in P.items() if v}
    if not P:
        return None
    g = gcd(*P.values()) * (1 if P[max(P)] > 0 else -1)
    return _on_grid(L, _pair(g, D), {k: v // g for k, v in P.items()} if g != 1 else P)


def _part_times_q(part: tuple, n: int, d: int) -> tuple:
    """part * q^(n/d)."""
    L, c, P = part
    M = lcm(L, d)
    m, off = M // L, n * (M // d)
    return _on_grid(M, c, {k * m + off: v for k, v in P.items()}) if n else part


class QPowerSum:
    """Finite Q-linear combination of monomials q^E(s) of one s-part,
    displayed by descending E and stored as the s-part key `s` and the part
    (L, c, P) (see the module docstring); zero has neither.  Instances are
    immutable."""

    __slots__ = ("s", "part", "_hash")

    def __init__(self, terms=()):
        """Sum of (c0, c1, c2, coefficient) terms, the form `terms()` reads out."""
        total = QPowerSum.combine((QPowerSum.monomial(*t), (1, 1)) for t in terms)
        self.s, self.part = total.s, total.part

    @staticmethod
    def _raw(s: tuple | None, part: tuple | None) -> "QPowerSum":
        new = object.__new__(QPowerSum)
        new.s, new.part = s, part
        return new

    @staticmethod
    def zero() -> "QPowerSum":
        return QPowerSum._raw(None, None)

    @staticmethod
    def one() -> "QPowerSum":
        return QPowerSum._raw(_S0, (1, (1, 1), {0: 1}))

    @staticmethod
    def monomial(c0: Rat = 0, c1: Rat = 0, c2: Rat = 0, coef: Rat = 1) -> "QPowerSum":
        """coef * q^(c2*s^2 + c1*s + c0)."""
        coef, (n, d) = _rat(coef), _rat(c0)
        return QPowerSum._raw(_rat(c2) + _rat(c1), (d, coef, {n: 1})) if coef[0] else _QPS_ZERO

    @staticmethod
    def laurent(P: dict, L: int = 1) -> "QPowerSum":
        """The s-free sum of P[k] * q^(k/L), P's values ints."""
        part = _part_from_ints(L, 1, P)
        return _QPS_ZERO if part is None else QPowerSum._raw(_S0, part)

    @staticmethod
    def combine(pairs) -> "QPowerSum":
        """The sum of c * x over the (x, c) pairs, c a nonzero int pair
        (num, den > 0), in one pass; nonzero x of two s-parts raise
        `MixedSParts`."""
        items = [(x, c) for x, c in pairs if x.part is not None]
        if len(items) == 1 and items[0][1] == (1, 1):
            return items[0][0]
        return _sum(items) if items else _QPS_ZERO

    def terms(self):
        """Every term as (c0, c1, c2, coefficient), all Fractions."""
        if self.part is not None:
            (n2, d2, n1, d1), (L, (n, d), P) = self.s, self.part
            for k, v in P.items():
                yield Fraction(k, L), Fraction(n1, d1), Fraction(n2, d2), Fraction(n * v, d)

    def is_zero(self) -> bool:
        return self.part is None

    def is_one(self) -> bool:
        return self.s == _S0 and self.part == _QPS_ONE.part

    def __len__(self) -> int:
        return len(self.part[2]) if self.part else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, QPowerSum) and self.s == other.s and self.part == other.part

    def __hash__(self):
        if not hasattr(self, "_hash"):  # computed once, as the part never changes
            L, c, P = self.part or (0, 0, {})
            self._hash = hash((self.s, L, c, frozenset(P.items())))
        return self._hash

    def __add__(self, other: "QPowerSum") -> "QPowerSum":
        if self.part is None or other.part is None:
            return other if self.part is None else self
        return _sum([(self, (1, 1)), (other, (1, 1))])

    def __neg__(self) -> "QPowerSum":
        return self.scale(-1)

    def __sub__(self, other: "QPowerSum") -> "QPowerSum":
        if self.part is None or other.part is None:
            return -other if self.part is None else self
        return _sum([(self, (1, 1)), (other, (-1, 1))])

    def __mul__(self, other: "QPowerSum") -> "QPowerSum":
        if self.part is None or other.part is None:
            return _QPS_ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        return QPowerSum._raw(_sigma_add(self.s, other.s), _part_mul(self.part, other.part))

    def _times(self, key: tuple, coef: tuple[int, int]) -> "QPowerSum":
        """Product of a nonzero sum with coef * q^E, E given by its int key
        and coef as an int pair."""
        (L, c, P), (n, d) = self.part, key[4:]
        part = _part_times_q((L, _rmul(c, coef), P), n, d)
        return QPowerSum._raw(_sigma_add(self.s, key[:4]), part)

    def scale(self, r: Rat) -> "QPowerSum":
        return self._times(_S0 + (0, 1), _rat(r)) if r and self.part else _QPS_ZERO

    def shift(self, beta: Rat) -> "QPowerSum":
        """Substitute s -> s + beta in every exponent (ring homomorphism); an
        s-free sum is returned as it is."""
        if self.part is None or self.s == _S0:
            return self
        k = _shift_key(self.s + (0, 1), _rat(beta))
        return QPowerSum._raw(k[:4], _part_times_q(self.part, *k[4:]))

    def negate_exponents(self) -> "QPowerSum":
        """The involution q -> 1/q (negates every exponent)."""
        if self.part is None:
            return self
        L, c, P = self.part
        sg = 1 if P[min(P)] > 0 else -1  # the sign of the new leading coefficient
        part = (L, (c[0] * sg, c[1]), {-k: v * sg for k, v in P.items()})
        return QPowerSum._raw(_s_neg(self.s), part)

    def __str__(self) -> str:
        """Terms by descending c0, the order of P's int keys, as "c*q^(E)",
        "q^(E)", "-q^(E)" or, for E = 0, "c", joined by " + " and " - ".
        The s-part's text is written once; each c0 = k/L and coefficient
        is read from the ints."""
        if self.part is None:
            return "0"
        s, (L, (n, d), P) = self.s, self.part
        head = "" if s == _S0 else _expo_text(s + (0, 1))
        out = []
        for k in sorted(P, reverse=True):
            a = n * P[k]
            body = coef = str(abs(a)) if d == 1 else _ratio_text(abs(a), d)
            if k or head:
                c0 = "" if not k else str(k) if L == 1 else _ratio_text(k, L)
                mono = f"q^({head}{'+' if head and k > 0 else ''}{c0})"
                body = mono if coef == "1" else f"{coef}*{mono}"
            sign = "-" if a < 0 else "+"
            out.append(f" {sign} {body}" if out else body if a > 0 else "-" + body)
        return "".join(out)

    def __repr__(self) -> str:
        return f"QPowerSum({self})"


_QPS_ZERO = QPowerSum.zero()
_QPS_ONE = QPowerSum.one()


def _sum(items: list) -> QPowerSum:
    """The sum of c * x over the (x, c) items, x nonzero and of one s-part,
    c a nonzero int pair: one lcm of the grids and of the denominators, one
    pass over the terms and one gcd pass."""
    s, L, D = items[0][0].s, 1, 1
    for x, (_, cd) in items:
        if x.s != s:
            raise MixedSParts(
                f"cannot add q-power sums of different s-parts "
                f"{_expo_text(s + (0, 1))} and {_expo_text(x.s + (0, 1))}"
            )
        Li, (_, d), _ = x.part
        if L % Li:
            L = lcm(L, Li)
        if D % (d * cd):
            D = lcm(D, d * cd)
    P = {}
    for x, (cn, cd) in items:
        Li, (n, d), Pi = x.part
        m, r = n * cn * (D // (d * cd)), L // Li
        for k, v in Pi.items():
            k *= r
            P[k] = P.get(k, 0) + m * v
    part = _part_from_ints(L, D, P)
    return _QPS_ZERO if part is None else QPowerSum._raw(s, part)


def _divide_exact(num: QPowerSum, den: QPowerSum) -> QPowerSum | None:
    """num/den when the division is exact, else None.

    Leading-term elimination on the int P's, ended by an exact bound: an
    exact quotient's lowest term times den's lowest term is num's lowest
    term, so no quotient exponent lies below low = min(num) - min(den).  The
    quotient exponent falls at every step, so the probe fails once it drops
    below low, after at most span(num) - span(den) + 1 steps.  By Gauss's
    lemma an exact quotient of primitive P's is primitive with int
    coefficients, so the first leading coefficient that does not divide
    also ends it.  A num of smaller span than den fails before any step.
    """
    if den.is_zero():
        return None
    if den.is_one():
        return num
    if num.is_zero():
        return _QPS_ZERO
    (Ln, cn, Pn), (Ld, cd, Pd) = num.part, den.part
    top_n, bottom_n, top_d, bottom_d = max(Pn), min(Pn), max(Pd), min(Pd)
    if (top_n - bottom_n) * Ld < (top_d - bottom_d) * Ln:
        return None  # an exact quotient times den spans at least den's span
    L = lcm(Ln, Ld)
    rem, Pd = dict(_regrid(Ln, Pn, L)), _regrid(Ld, Pd, L)
    lead_e, low = top_d * (L // Ld), bottom_n * (L // Ln) - bottom_d * (L // Ld)
    lead_c, rest = Pd[lead_e], [(e, c) for e, c in Pd.items() if e != lead_e]
    quot = {}
    while rem:
        re = max(rem)
        qe = re - lead_e
        qc, r = divmod(rem.pop(re), lead_c)
        if qe < low or r:
            return None
        quot[qe] = qc
        for e, c in rest:
            k = e + qe
            rem[k] = rem.get(k, 0) - c * qc
            if not rem[k]:
                del rem[k]
    return QPowerSum._raw(_sigma_add(num.s, _s_neg(den.s)), _on_grid(L, _rdiv(cn, cd), quot))


class QFieldElem:
    """Quotient of two QPowerSum values; den is nonzero.

    Stored with the smallest denominator term divided out of both num and
    den, so a monomial denominator always reduces to 1.  After `__init__`
    every denominator is s-free and its smallest term is 1 (zero is 0/1).
    Negation, scaling and shifts keep that denominator, and sums and
    products form theirs from such denominators (a product of two is one
    too), so they build through `_raw` with no new normalization.  A step
    whose result equals an operand returns that operand: the shift of an
    s-free element, a product with the unit, a scaling by 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QPowerSum, den: QPowerSum = _QPS_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in QFieldElem")
        if num.is_zero():
            den = _QPS_ONE
        elif not den.is_one():
            # the smallest term c * q^(sigma + k/L)
            s, (L, (n, d), P) = den.s, den.part
            k = min(P)
            if not (s == _S0 and k == 0 and n * P[k] == d):
                key, inv = _s_neg(s) + _pair(-k, L), _rdiv((1, 1), (n * P[k], d))
                num, den = num._times(key, inv), den._times(key, inv)
        self.num = num
        self.den = den

    @staticmethod
    def _raw(num: QPowerSum, den: QPowerSum) -> "QFieldElem":
        """num/den as given: den must already be s-free with smallest term 1."""
        new = object.__new__(QFieldElem)
        new.num, new.den = num, den
        return new

    @staticmethod
    def _over(num: QPowerSum, den: QPowerSum) -> "QFieldElem":
        """num/den for a den already s-free with smallest term 1."""
        return QFieldElem._raw(num, den) if num.part is not None else _ELEM_ZERO

    @staticmethod
    def zero() -> "QFieldElem":
        return _ELEM_ZERO

    @staticmethod
    def one() -> "QFieldElem":
        return _ELEM_ONE

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

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
            return QFieldElem._over(self.num + other.num, self.den)
        t = _divide_exact(other.den, self.den)
        if t is not None:
            return QFieldElem._over(self.num * t + other.num, other.den)
        t = _divide_exact(self.den, other.den)
        if t is not None:
            return QFieldElem._over(self.num + other.num * t, self.den)
        return QFieldElem._over(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QFieldElem":
        return QFieldElem._raw(-self.num, self.den)

    def __sub__(self, other: "QFieldElem") -> "QFieldElem":
        return self + (-other)

    def __mul__(self, other: "QFieldElem") -> "QFieldElem":
        if other.num.is_one() and other.den.is_one():
            return self
        if self.num.is_one() and self.den.is_one():
            return other
        if self.is_zero() or other.is_zero():
            return _ELEM_ZERO
        # a product of two unit-led s-free dens is one, and of nonzero nums nonzero
        return QFieldElem._raw(self.num * other.num, self.den * other.den)

    def inv(self) -> "QFieldElem":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero QFieldElem")
        return QFieldElem(self.den, self.num)

    def __truediv__(self, other: "QFieldElem") -> "QFieldElem":
        return self * other.inv()

    def scale(self, r: Rat) -> "QFieldElem":
        if r == 1:
            return self
        return QFieldElem._raw(self.num.scale(r), self.den) if r else _ELEM_ZERO

    def shift(self, beta: Rat) -> "QFieldElem":
        """Substitute s -> s + beta throughout; the s-free den stays."""
        num = self.num.shift(beta) if beta else self.num
        return self if num is self.num else QFieldElem._raw(num, self.den)

    def invert_q(self) -> "QFieldElem":
        """Apply the involution q -> 1/q."""
        return QFieldElem(self.num.negate_exponents(), self.den.negate_exponents())

    @staticmethod
    def sum(elems) -> "QFieldElem":
        """Sum a collection: the numerators over each denominator in one
        `QPowerSum.combine`, then the groups pairwise."""
        groups: dict[QPowerSum, list] = {}
        for x in elems:
            if not x.is_zero():
                groups.setdefault(x.den, []).append((x.num, (1, 1)))
        total = _ELEM_ZERO
        for den, nums in groups.items():
            total = total + QFieldElem._over(QPowerSum.combine(nums), den)
        return total

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


_ELEM_ZERO = QFieldElem(_QPS_ZERO)
_ELEM_ONE = QFieldElem(_QPS_ONE)


def _digit_width(bound: int) -> int:
    """The least B whose digits in [-2^(B-1), 2^(B-1)) hold every |int| <= bound."""
    return bound.bit_length() + 1


def _balanced_digits(n: int, B: int, at: int, step: int) -> dict:
    """The nonzero digits of n in base 2^B, each in [-2^(B-1), 2^(B-1)),
    keyed by at, at + step, at + 2*step, ... from the lowest."""
    out, half, mask = {}, 1 << (B - 1), (1 << B) - 1
    while n:
        v = n & mask
        v -= (v & half) << 1  # a digit at or above half borrows from the next
        if v:
            out[at] = v
        n, at = (n - v) >> B, at + step
    return out


def _packing_form(x: QFieldElem) -> tuple:
    """The s-free x = n/d as (L, lo_n, lo_d, g, Qn, Qd, |Qn|_1, |Qd|_1): n and
    d on their common grid L, each scaled by the other's content denominator
    (x = Qn/Qd), lo their lowest exponents, Q the int {exponent - lo:
    coefficient}, g the gcd of those exponents; an s-part raises `NotSFree`."""
    if x.num.s not in (_S0, None):
        raise NotSFree(f"cannot pack {x}: its exponents depend on s")
    (Ln, (nn, dn), Pn), (Ld, (nd, dd), Pd) = x.num.part or (1, (0, 1), {0: 0}), x.den.part
    L = lcm(Ln, Ld)
    ln, ld = min(Pn) * (L // Ln), min(Pd) * (L // Ld)
    Qn = {k * (L // Ln) - ln: nn * dd * c for k, c in Pn.items()}
    Qd = {k * (L // Ld) - ld: nd * dn * c for k, c in Pd.items()}
    return L, ln, ld, gcd(*Qn, *Qd), Qn, Qd, sum(map(abs, Qn.values())), sum(map(abs, Qd.values()))


def _packed_sum(forms: list, rows: list) -> QFieldElem:
    """The sum over the (c, e) rows of c * prod_k x_k^e[k] (c a nonzero int
    pair, forms[k] the `_packing_form` of x_k = n_k/d_k) over the one
    denominator prod_k d_k^cap_k, cap_k the largest e[k]: its numerator
    rows c * prod_k n_k^e[k] d_k^(cap_k - e[k]), and the denominator, are
    each one big-int sum (Kronecker substitution).  On the common grid G,
    every n_k and d_k is packed at 2^B from its lowest exponent in steps of
    s, the gcd of their exponent steps and of the numerator rows' lowest
    exponents less the least, low; a row is an int C (c over a common
    denominator) times packed powers, shifted by its lowest exponent less
    low.  No coefficient exceeds the larger of the two bounds
    sum |C| prod |Q|_1^f, so with B from it (`_digit_width`) one pass of
    balanced digits reads each sum back exactly."""
    G = lcm(*[f[0] for f in forms])
    lon, lod = [f[1] * (G // f[0]) for f in forms], [f[2] * (G // f[0]) for f in forms]
    s = gcd(*[f[3] * (G // f[0]) for f in forms])
    caps, deltas = list(map(max, zip(*[e for _, e in rows]))), list(map(sub, lon, lod))
    offs = [sum(map(mul, e, deltas)) for _, e in rows]  # less the denominator's, base
    low, base, D = min(offs), sum(map(mul, caps, lod)), lcm(*[d for (_, d), _ in rows])
    s = gcd(s, *[o - low for o in offs]) or 1
    ints = [n * (D // d) for (n, d), _ in rows]
    an, ad = [f[6] for f in forms], [f[7] for f in forms]
    bound = sum([abs(C) * prod(map(pow, an, e)) * prod(map(pow, ad, map(sub, caps, e)))
                 for C, (_, e) in zip(ints, rows)])
    B, pn, pd, num, parts = _digit_width(max(bound, prod(map(pow, ad, caps)))), [], [], 0, []
    for L, _, _, _, Qn, Qd, _, _ in forms:
        pn.append(sum([c << (B * (k * (G // L) // s)) for k, c in Qn.items()]))
        pd.append(sum([c << (B * (k * (G // L) // s)) for k, c in Qd.items()]))
    for C, (_, e), o in zip(ints, rows, offs):
        num += C * prod(map(pow, pn, e)) * prod(map(pow, pd, map(sub, caps, e))) << (B * ((o - low) // s))
    for t, at, d in ((num, base + low, D), (prod(map(pow, pd, caps)), base, 1)):
        g = gcd(G, at, s)  # each sum read on the coarsest grid dividing G, at and s
        parts.append(_part_from_ints(G // g, d, _balanced_digits(t, B, at // g, s // g)))
    num, den = parts
    return QFieldElem(_QPS_ZERO if num is None else QPowerSum._raw(_S0, num), QPowerSum._raw(_S0, den))


def qpow(c0: Rat = 0, c1: Rat = 0, c2: Rat = 0, coef: Rat = 1) -> QFieldElem:
    """The monomial coef * q^(c2*s^2 + c1*s + c0); a plain rational when the
    exponent is 0."""
    return QFieldElem(QPowerSum.monomial(c0, c1, c2, coef))
