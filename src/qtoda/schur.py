"""Schur and skew Schur polynomials in the power-sum generators.

S_mu is defined through the Jacobi-Trudi determinant det(S_{mu_i - i + j})
of complete homogeneous pieces, where the S_m are generated by
exp(sum_k p_k z^k / k).  Polynomials are exact (Fraction coefficients).
The determinant runs in ints: S_m = sum over mu of m of p_mu / z_mu
(Macdonald, Symmetric Functions and Hall Polynomials, I.2 and I.7), held
as {multiplicities of mu: 1} in the basis p_mu / z_mu, in which the
product of two basis elements is an int times a third.  The cofactor
expansion down the rows computes each minor once, and each coefficient is
divided by its z_mu once, at the end.

The module also provides the closed-form principal specializations of the
power sums used by the vertex: p_k at q^rho and at q^(nu+rho), each an int
Laurent polynomial in q^(1/2) over one in q.  The rational continuation to
q^(-rho) is p_k -> -p_k, so a value there is `negate_p()` evaluated at
q^rho.  A `Specialization` evaluates a polynomial at such a point as one
packed big-int sum over a common denominator (`qfield._packed_sum`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable

from .errors import DegreeBoundExceeded
from .partitions import EMPTY, Partition, partitions_of
from .qfield import QFieldElem, QPowerSum, _packed_sum, _packing_form
from .sparse import SparsePoly

# A monomial in p_1, p_2, ... is the tuple of exponents (e1, e2, ..., ek)
# with trailing zeros dropped; () is the constant monomial.
Monomial = tuple[int, ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    n = max(len(m1), len(m2))
    out = [0] * n
    for i, e in enumerate(m1):
        out[i] += e
    for i, e in enumerate(m2):
        out[i] += e
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _multiplicities(mu: Partition) -> Monomial:
    """(m_1, m_2, ...): how often mu has each part, the monomial of p_mu."""
    m = [0] * mu.part(1)
    for p in mu:
        m[p - 1] += 1
    return tuple(m)


def _mono_weight(m: Monomial) -> int:
    # weighted degree with deg p_k = k
    return sum((k + 1) * e for k, e in enumerate(m))


class PowerSumPoly(SparsePoly):
    """Polynomial in p_1..p_D with exact rational coefficients.

    Displayed by descending weighted degree, then descending monomial.
    """

    __slots__ = ()

    _DESCENDING = True
    _mono_mul = staticmethod(_mono_mul)

    @staticmethod
    def _display_key(m: Monomial):
        return (_mono_weight(m), m)

    @staticmethod
    def _mono_str(m: Monomial) -> str:
        return "*".join(
            f"p{k}" if e == 1 else f"p{k}^{e}" for k, e in enumerate(m, start=1) if e
        )

    def negate_p(self) -> "PowerSumPoly":
        """Substitute p_k -> -p_k for every k."""
        return PowerSumPoly._raw(
            {m: (-c if sum(m) % 2 else c) for m, c in self.coeffs.items()}
        )

    def max_index(self) -> int:
        return max((len(m) for m in self.coeffs), default=0)

    def weighted_degrees(self) -> set[int]:
        return {_mono_weight(m) for m in self.coeffs}

    def is_homogeneous(self, degree: int) -> bool:
        return self.weighted_degrees() <= {degree}


def _z(m: Monomial) -> int:
    """z_mu = prod_i i^(m_i) * m_i!, mu of the multiplicities m."""
    z = 1
    for i, e in enumerate(m, start=1):
        z *= i**e * factorial(e)
    return z


def _basis_mul(a: dict, b: dict, table: dict) -> dict:
    """The product of two int combinations of the basis p_mu / z_mu, each
    keyed by mu's multiplicity tuple: p_mu/z_mu * p_nu/z_nu is
    prod_i C(m_i + n_i, m_i) * p_(mu+nu)/z_(mu+nu), an int multiple.
    `table` keeps, per mu and nu, the pair (mu+nu, that int), so each is
    formed once for as long as the table lives."""
    if len(b) == 1 and b.get(()) == 1:
        return a
    out: dict = {}
    for m1, c1 in a.items():
        row = table.get(m1)
        if row is None:
            row = table[m1] = {}
        for m2, c2 in b.items():
            got = row.get(m2)
            if got is None:
                f = 1
                for x, y in zip(m1, m2):
                    if x and y:
                        f *= comb(x + y, x)
                got = row[m2] = (_mono_mul(m1, m2), f)
            m, f = got
            out[m] = out.get(m, 0) + c1 * c2 * f
    return {m: c for m, c in out.items() if c}


def _minor(matrix: list[list[dict]], cols: tuple[int, ...], minors: dict, table: dict) -> dict:
    """The minor of `matrix` on its last len(cols) rows and the columns
    cols, by cofactor expansion down its first row, skipping zero entries;
    each minor is kept in `minors` under its column set, so it is computed
    once.  A module-level function, not a closure over itself: a closure
    that calls itself is a reference cycle, and would leave the whole
    `minors` table to the cyclic collector."""
    if not cols:
        return {(): 1}
    got = minors.get(cols)
    if got is None:
        row = matrix[len(matrix) - len(cols)]
        got = {}
        for pos, j in enumerate(cols):
            if not row[j]:
                continue
            sign = -1 if pos % 2 else 1
            rest = _minor(matrix, cols[:pos] + cols[pos + 1 :], minors, table)
            for m, c in _basis_mul(row[j], rest, table).items():
                got[m] = got.get(m, 0) + sign * c
        got = {m: c for m, c in got.items() if c}
        minors[cols] = got
    return got


def _det(matrix: list[list[dict]], table: dict) -> dict:
    """The determinant of a matrix of int combinations of the basis
    p_mu / z_mu (see `_basis_mul`, whose `table` it passes on): the minor on
    the rows below row r depends only on its column set, so each is
    computed once."""
    return _minor(matrix, tuple(range(len(matrix))), {}, table)


def skew_diagram(mu: Partition, nu: Partition) -> tuple[tuple[int, int], ...] | None:
    """The cells of mu/nu with its empty rows and columns deleted, as one
    half-open column interval per remaining row; None when nu is not
    contained in mu.

    An empty row or column splits the diagram into two pieces that share
    no row and no column, and S_{mu/nu} is the product of the pieces'
    skew Schur polynomials wherever they sit, so deleting it keeps
    S_{mu/nu}: two pairs with one diagram have one polynomial.
    """
    if not mu.contains(nu):
        return None
    rows = [(nu.part(i), p) for i, p in enumerate(mu, start=1) if nu.part(i) < p]
    filled = sorted({c for lo, hi in rows for c in range(lo, hi)})
    rank = {c: i for i, c in enumerate(filled)}  # a filled column's place among them
    return tuple((rank[lo], rank[lo] + hi - lo) for lo, hi in rows)


class PowerSumRing:
    """Session-scoped ring of polynomials in p_1..p_D.

    The degree bound D caps the weight of any Schur index; it is fixed by
    the largest partition the enclosing computation needs.  For as long as
    the ring lives it keeps each S_m, each product of two basis elements
    (`_basis_mul`) and each Schur polynomial per skew diagram.
    """

    def __init__(self, degree_bound: int):
        if degree_bound < 0:
            raise ValueError("degree bound must be >= 0")
        self.degree_bound = degree_bound
        self._h_cache: dict[int, dict] = {}
        self._mul_table: dict[Monomial, dict] = {}  # see `_basis_mul`
        self._schur_cache: dict[tuple | None, PowerSumPoly] = {}

    def _h(self, m: int) -> dict:
        """S_m = sum over mu of m of p_mu / z_mu, as {multiplicities of mu: 1}.

        Unbounded: oversized determinants contain entries above the session
        bound that cancel in the final value."""
        if m < 0:
            return {}
        got = self._h_cache.get(m)
        if got is None:
            got = {_multiplicities(mu): 1 for mu in partitions_of(m)}
            self._h_cache[m] = got
        return got

    def _jacobi_trudi(self, mu: Partition, nu: Partition, size: int) -> PowerSumPoly:
        matrix = [
            [
                self._h(mu.part(i) - nu.part(j) - i + j)
                for j in range(1, size + 1)
            ]
            for i in range(1, size + 1)
        ]
        det = _det(matrix, self._mul_table)
        return PowerSumPoly._raw({m: Fraction(c, _z(m)) for m, c in det.items()})

    def schur(self, mu: Partition, size: int | None = None) -> PowerSumPoly:
        """S_mu as a determinant of size >= l(mu); independent of the size."""
        return self.skew_schur(mu, EMPTY, size)

    def skew_schur(
        self, mu: Partition, nu: Partition, size: int | None = None
    ) -> PowerSumPoly:
        """S_{mu/nu}; the zero polynomial when nu is not contained in mu."""
        if mu.weight > self.degree_bound:
            raise DegreeBoundExceeded(
                f"|mu| = {mu.weight} exceeds degree bound {self.degree_bound}"
            )
        if size is None:
            key = skew_diagram(mu, nu)  # one diagram, one polynomial
            got = self._schur_cache.get(key)
            if got is None:
                got = self._jacobi_trudi(mu, nu, max(mu.length, nu.length))
                self._schur_cache[key] = got
            return got
        if size < max(mu.length, nu.length):
            raise ValueError("determinant size smaller than the partition length")
        return self._jacobi_trudi(mu, nu, size)


# ---------------------------------------------------------------------------
# principal specializations
# ---------------------------------------------------------------------------


def specialize_rho(k: int) -> QFieldElem:
    """p_k at q^rho: the closed geometric form 1 / (q^(k/2) - q^(-k/2))."""
    if k < 1:
        raise ValueError("power-sum index must be >= 1")
    return QFieldElem(QPowerSum.one(), QPowerSum.laurent({k: 1, -k: -1}, 2))


def specialize_nu_rho(nu: Partition, k: int) -> QFieldElem:
    """p_k at q^(nu+rho): finite head plus closed geometric tail.

    p_k = sum_{i<=l} q^(k(nu_i - i + 1/2)) + q^(k(1/2 - (l+1))) / (1 - q^(-k))
    with l = l(nu), over the denominator 1 - q^(-k); the numerator's
    exponents are the ints k(2(nu_i - i) + 1) on the half-integer grid.
    """
    if k < 1:
        raise ValueError("power-sum index must be >= 1")
    num = {-k * (2 * nu.length + 1): 1}
    for i, part in enumerate(nu, start=1):
        e = k * (2 * (part - i) + 1)
        num[e] = num.get(e, 0) + 1
        num[e - 2 * k] = num.get(e - 2 * k, 0) - 1
    return QFieldElem(QPowerSum.laurent(num, 2), QPowerSum.laurent({0: 1, -k: -1}))


class Specialization:
    """Point values p_k -> QFieldElem for k = 1..bound, with a ring-hom
    evaluator.

    `point(k)` gives the s-free value n_k / d_k of p_k, made when an
    evaluation first reads it, so a p_k that no evaluated polynomial holds
    is never made; a p_k past the bound raises `DegreeBoundExceeded`.  A
    polynomial is evaluated over the one denominator prod_k d_k^cap_k,
    cap_k its largest power of p_k, as one packed big-int sum, so no power
    or product of the values is formed.  For as long as the specialization
    lives it keeps each value, in the form that sum packs.
    """

    def __init__(self, point: Callable[[int], QFieldElem], bound: int):
        self.point = point
        self.bound = bound
        self._values: dict[int, tuple] = {}

    @staticmethod
    def rho(degree_bound: int) -> "Specialization":
        return Specialization(specialize_rho, degree_bound)

    @staticmethod
    def nu_rho(nu: Partition, degree_bound: int) -> "Specialization":
        return Specialization(partial(specialize_nu_rho, nu), degree_bound)

    def _value(self, k: int) -> tuple:
        got = self._values.get(k)
        if got is None:
            got = self._values[k] = _packing_form(self.point(k))
        return got

    def evaluate(self, poly: PowerSumPoly) -> QFieldElem:
        """poly at the point, over prod_k d_k^cap_k (`qfield._packed_sum`)."""
        if poly.is_zero():
            return QFieldElem.zero()
        top = poly.max_index()
        if top > self.bound:
            raise DegreeBoundExceeded(f"specialization lacks p_{self.bound + 1}")
        if top == 0:  # a constant is its own value
            return QFieldElem(QPowerSum.monomial(coef=poly.coeffs[()]))
        ks = sorted({k for m in poly.coeffs for k, e in enumerate(m, start=1) if e})
        rows = [(c.as_integer_ratio(), [m[k - 1] if k <= len(m) else 0 for k in ks])
                for m, c in poly.coeffs.items()]
        return _packed_sum([self._value(k) for k in ks], rows)
