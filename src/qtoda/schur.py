"""Schur and skew Schur polynomials in the power-sum generators.

S_mu is defined through the Jacobi-Trudi determinant det(S_{mu_i - i + j})
of complete homogeneous pieces, where the S_m are generated by
exp(sum_k p_k z^k / k).  Polynomials are exact (Fraction coefficients);
a determinant over the polynomial ring is a cofactor expansion down the
rows, with each minor computed once, so no step divides.

The module also provides the closed-form principal specializations of the
power sums used by the vertex: p_k at q^rho and at q^(nu+rho).  The
rational continuation to q^(-rho) is p_k -> -p_k, so a value there is
`negate_p()` evaluated at q^rho.
"""

from __future__ import annotations

from fractions import Fraction
from .errors import DegreeBoundExceeded
from .partitions import EMPTY, Partition
from .qfield import QFieldElem, QPowerSum
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

    @staticmethod
    def p(k: int) -> "PowerSumPoly":
        """The generator p_k."""
        if k < 1:
            raise ValueError("power-sum index must be >= 1")
        mono = (0,) * (k - 1) + (1,)
        return PowerSumPoly({mono: Fraction(1)})

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


def _det(matrix: list[list[PowerSumPoly]]) -> PowerSumPoly:
    """Cofactor expansion down the rows; the minor on the rows below row r
    depends only on its column set, so each is computed once, and zero
    entries are skipped."""
    n = len(matrix)
    minors: dict[tuple[int, ...], PowerSumPoly] = {}

    def minor(cols: tuple[int, ...]) -> PowerSumPoly:
        if not cols:
            return PowerSumPoly.one()
        got = minors.get(cols)
        if got is None:
            row = matrix[n - len(cols)]
            got = PowerSumPoly.zero()
            for pos, j in enumerate(cols):
                if row[j].is_zero():
                    continue
                term = row[j] * minor(cols[:pos] + cols[pos + 1 :])
                got = got - term if pos % 2 else got + term
            minors[cols] = got
        return got

    return minor(tuple(range(n)))


class PowerSumRing:
    """Session-scoped ring of polynomials in p_1..p_D.

    The degree bound D caps the weight of any Schur index; it is fixed by
    the largest partition the enclosing computation needs.
    """

    def __init__(self, degree_bound: int):
        if degree_bound < 0:
            raise ValueError("degree bound must be >= 0")
        self.degree_bound = degree_bound
        self._h_cache: dict[int, PowerSumPoly] = {}
        self._schur_cache: dict[tuple, PowerSumPoly] = {}

    def _h(self, m: int) -> PowerSumPoly:
        # unbounded internal form: oversized determinants contain entries
        # above the session bound that cancel in the final value
        if m < 0:
            return PowerSumPoly.zero()
        got = self._h_cache.get(m)
        if got is not None:
            return got
        if m == 0:
            poly = PowerSumPoly.one()
        else:
            # m*S_m = sum_{k=1}^{m} p_k S_{m-k}
            acc = PowerSumPoly.zero()
            for k in range(1, m + 1):
                acc = acc + PowerSumPoly.p(k) * self._h(m - k)
            poly = acc.scale(Fraction(1, m))
        self._h_cache[m] = poly
        return poly

    def _jacobi_trudi(self, mu: Partition, nu: Partition, size: int) -> PowerSumPoly:
        matrix = [
            [
                self._h(mu.part(i) - nu.part(j) - i + j)
                for j in range(1, size + 1)
            ]
            for i in range(1, size + 1)
        ]
        return _det(matrix)

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
            key = (mu.parts, nu.parts)
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
    half = Fraction(k, 2)
    den = QPowerSum.monomial(half) + QPowerSum.monomial(-half, coef=-1)
    return QFieldElem(QPowerSum.one(), den)


def specialize_nu_rho(nu: Partition, k: int) -> QFieldElem:
    """p_k at q^(nu+rho): finite head plus closed geometric tail.

    p_k = sum_{i<=l} q^(k(nu_i - i + 1/2)) + q^(k(1/2 - (l+1))) / (1 - q^(-k))
    with l = l(nu).
    """
    if k < 1:
        raise ValueError("power-sum index must be >= 1")
    ell = nu.length
    den = QPowerSum.one() + QPowerSum.monomial(-k, coef=-1)
    num = QPowerSum.monomial(Fraction(k) * (Fraction(1, 2) - (ell + 1)))
    for i in range(1, ell + 1):
        head = QPowerSum.monomial(Fraction(k) * (nu.part(i) - i + Fraction(1, 2)))
        num = num + head * den
    return QFieldElem(num, den)


class Specialization:
    """Point values p_k -> QFieldElem for k = 1..D, with a ring-hom evaluator.

    Values are held as (num, den) pairs and polynomials are evaluated over
    a common denominator, which keeps the q-expression sizes bounded.  For
    as long as the specialization lives it keeps each power of a num or den
    it has formed, and each monomial's product over the common denominator
    per exponent caps, so no product is formed twice.
    """

    def __init__(self, values: dict[int, QFieldElem]):
        self.values = values
        self._pow_cache: dict[tuple[str, int, int], QPowerSum] = {}
        self._product_cache: dict[tuple[Monomial, tuple[int, ...]], QPowerSum] = {}

    @staticmethod
    def rho(degree_bound: int) -> "Specialization":
        return Specialization({k: specialize_rho(k) for k in range(1, degree_bound + 1)})

    @staticmethod
    def nu_rho(nu: Partition, degree_bound: int) -> "Specialization":
        return Specialization(
            {k: specialize_nu_rho(nu, k) for k in range(1, degree_bound + 1)}
        )

    def _power(self, tag: str, k: int, e: int) -> QPowerSum:
        if e == 0:
            return QPowerSum.one()
        key = (tag, k, e)
        got = self._pow_cache.get(key)
        if got is None:
            base = self.values[k].num if tag == "n" else self.values[k].den
            got = self._power(tag, k, e - 1) * base
            self._pow_cache[key] = got
        return got

    def _product(self, m: Monomial, caps: tuple[int, ...]) -> QPowerSum:
        """prod_k n_k^(e_k) * d_k^(cap_k - e_k), the e_k read from m."""
        key = (m, caps)
        got = self._product_cache.get(key)
        if got is None:
            got = QPowerSum.one()
            for k, cap in enumerate(caps, start=1):
                e = m[k - 1] if k - 1 < len(m) else 0
                if e:
                    got = got * self._power("n", k, e)
                if cap - e:
                    got = got * self._power("d", k, cap - e)
            self._product_cache[key] = got
        return got

    def evaluate(self, poly: PowerSumPoly) -> QFieldElem:
        """Evaluate with every monomial expressed over one shared denominator."""
        if poly.is_zero():
            return QFieldElem.zero()
        top = poly.max_index()
        for k in range(1, top + 1):
            if k not in self.values:
                raise DegreeBoundExceeded(f"specialization lacks p_{k}")
        caps = [0] * top
        for m in poly.coeffs:
            for i, e in enumerate(m):
                if e > caps[i]:
                    caps[i] = e
        caps = tuple(caps)
        num_total = QPowerSum.zero()
        for m, c in poly.coeffs.items():
            num_total = num_total + self._product(m, caps).scale(c)
        return QFieldElem(num_total, self._product((), caps))
