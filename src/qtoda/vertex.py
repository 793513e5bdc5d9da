"""Two-leg topological vertex and the tau-function coefficient table.

The vertex W_{nu,nubar}(q) is an exact rational expression in q^(1/2),
computed here in two independent finite forms: the defining product of
Schur values at the principal specializations, and the hook-type finite
sum over common subdiagrams of the conjugates.  Their equality, and the
transposition / q -> 1/q symmetries, are the machine-checked identities.

The tau table collects the exact coefficients of the double Schur
expansion of the lattice tau function.  Its matrix elements are Schur
values at the q^(-rho) continuation, evaluated as p_k -> -p_k at the one
q^rho specialization.  The cubic part of the exponent is independent of
the partition pair; it is factored out and recorded as a polynomial so
that every stored prefactor q^E(s) has E quadratic in s.

SessionParams, the lattice type shared by every layer above this one, is
defined here, the lowest module that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import DegreeBoundExceeded, InvalidTau, NonCoprime
from .partitions import EMPTY, Partition, enumerate_partitions
from .qfield import QFieldElem, qpow
from .schur import PowerSumRing, Specialization, skew_diagram


def subpartitions(limit: Partition) -> Iterator[Partition]:
    """All partitions eta with eta_i <= limit_i componentwise."""
    return _subpartitions(limit.parts, 0, limit.part(1), ())


def _subpartitions(parts: tuple[int, ...], i: int, prev: int,
                   acc: tuple[int, ...]) -> Iterator[Partition]:
    """The partitions acc + (v_i, v_(i+1), ...) with v_i <= prev and each
    v_j <= parts[j], largest first.  A module-level generator, not a closure
    over itself, which would be a reference cycle left to the cyclic
    collector."""
    if i < len(parts):
        for v in range(min(prev, parts[i]), 0, -1):
            yield from _subpartitions(parts, i + 1, v, acc + (v,))
    yield Partition._raw(acc)


@dataclass(frozen=True)
class SessionParams:
    """Lattice type (a, b), sign of the deformation parameter, truncation.

    The one place that decides which types are valid and derives tau, the
    refined step and the grid indices of the two Lax operator powers.
    """

    a: int
    b: int
    sign: int = 1
    T: int = 6

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise NonCoprime("a and b must be positive integers")
        if math.gcd(self.a, self.b) != 1:
            raise NonCoprime(f"a={self.a}, b={self.b} are not coprime")
        if self.sign not in (1, -1):
            raise InvalidTau("sign must be +1 or -1")
        if self.sign == -1 and self.a == self.b:
            raise InvalidTau("tau = -1 is excluded")
        if self.sign == -1 and self.a < self.b:
            raise InvalidTau("negative sign requires a > b (swap the roles otherwise)")

    @property
    def tau(self) -> Fraction:
        return Fraction(self.sign * self.b, self.a)

    @property
    def refinement(self) -> int:
        """Lattice refinement m; the step quantum is 1/m."""
        return self.a + self.sign * self.b

    @property
    def step(self) -> Fraction:
        return Fraction(1, self.refinement)

    @property
    def up_index(self) -> int:
        """Grid index of Lam^(1/(tau+1)) on the step grid (equals a)."""
        return self.a

    @property
    def down_index(self) -> int:
        """Grid index of the other surviving power, Lam^(-tau/(tau+1))."""
        return -self.sign * self.b


class VertexContext:
    """Caches for vertex evaluations up to a fixed total weight.

    For as long as the context lives it keeps every value it has computed:
    the q^(nu+rho) specialization per nu; s_{mu/eta} per skew diagram
    (`skew_diagram`) and point, filed also under the pair (mu, eta) so the
    diagram is formed once per pair; the vertex value W(nu, nubar) of
    `vertex_def` per pair; and the eta-sum behind the hook form and the
    matrix element gamma per unordered pair and point, since
    sum_eta s_{mu/eta} s_{nu/eta} is symmetric in mu and nu.  So one
    session computes each once.  A value does not depend on the degree
    bound, so one context with a bound covering every caller serves them
    all, the Schur suites included through `ring`.
    """

    def __init__(self, degree_bound: int):
        self.degree_bound = degree_bound
        self.ring = PowerSumRing(degree_bound)
        self.rho = Specialization.rho(degree_bound)
        self._nu_rho: dict[tuple, Specialization] = {}
        self._skew_at: dict[tuple, QFieldElem] = {}
        self._vertex: dict[tuple, QFieldElem] = {}
        self._eta: dict[tuple, QFieldElem] = {}

    def _check(self, nu: Partition, nubar: Partition):
        if nu.weight + nubar.weight > self.degree_bound:
            raise DegreeBoundExceeded(
                f"|nu| + |nubar| = {nu.weight + nubar.weight} exceeds bound"
                f" {self.degree_bound}"
            )

    def nu_rho_specialization(self, nu: Partition) -> Specialization:
        got = self._nu_rho.get(nu.parts)
        if got is None:
            got = Specialization.nu_rho(nu, self.degree_bound)
            self._nu_rho[nu.parts] = got
        return got

    def skew_at(self, mu: Partition, eta: Partition, point: str) -> QFieldElem:
        """s_{mu/eta} at q^rho ("rho") or at its continuation q^(-rho) ("neg")."""
        pair = (mu.parts, eta.parts, point)
        got = self._skew_at.get(pair)
        if got is None:
            key = (skew_diagram(mu, eta), point)  # one diagram, one polynomial
            got = self._skew_at.get(key)
            if got is None:
                poly = self.ring.skew_schur(mu, eta)
                got = self.rho.evaluate(poly if point == "rho" else poly.negate_p())
                self._skew_at[key] = got
            self._skew_at[pair] = got
        return got

    # -- the three vertex-side evaluations --------------------------------

    def vertex_def(self, nu: Partition, nubar: Partition) -> QFieldElem:
        """Defining form s_nu(q^rho) * s_nubar(q^(nu+rho))."""
        self._check(nu, nubar)
        key = (nu.parts, nubar.parts)
        got = self._vertex.get(key)
        if got is None:
            left = self.skew_at(nu, EMPTY, "rho")
            right = self.nu_rho_specialization(nu).evaluate(self.ring.schur(nubar))
            got = left * right
            self._vertex[key] = got
        return got

    def vertex_hook(self, nu: Partition, nubar: Partition) -> QFieldElem:
        """Finite-sum form over subdiagrams of the conjugates.

        q^((kappa(nu)+kappa(nubar))/2) * sum_eta s_{nu'/eta}(q^rho) s_{nubar'/eta}(q^rho)
        """
        self._check(nu, nubar)
        total = self._eta_sum(nu.conjugate(), nubar.conjugate(), "rho")
        prefactor = qpow(Fraction(nu.kappa() + nubar.kappa(), 2))
        return prefactor * total

    def gamma_matrix_element(self, nu: Partition, nubar: Partition) -> QFieldElem:
        """sum_eta s_{nu/eta} s_{nubar/eta} at the q^(-rho) continuation."""
        self._check(nu, nubar)
        return self._eta_sum(nu, nubar, "neg")

    def _eta_sum(self, mu: Partition, nu: Partition, point: str) -> QFieldElem:
        """sum over eta inside mu and nu of s_{mu/eta} * s_{nu/eta} at `point`,
        kept per unordered pair: the sum is symmetric in mu and nu."""
        a, b = mu.parts, nu.parts
        key = (a, b, point) if a <= b else (b, a, point)
        got = self._eta.get(key)
        if got is None:
            got = QFieldElem.zero()
            for eta in subpartitions(mu.intersect(nu)):
                got = got + self.skew_at(mu, eta, point) * self.skew_at(nu, eta, point)
            self._eta[key] = got
        return got


@dataclass
class TauTable:
    """Exact coefficient table of the double Schur expansion.

    entry(nu, nubar) = prefactors[key] * gammas[key], key = (nu.parts,
    nubar.parts): the monomial q^(E(s)), E the quadratic-in-s exponent
    (kappa and weight terms, at the shifted coordinate s + c), times gamma,
    the vertex-operator matrix element.  `pairs` maps each key to the
    partitions (nu, nubar) the table was built from, so no caller rebuilds
    them.  The partition-independent cubic exponent is recorded separately
    in `cubic`, as the coefficients (c0, c1, c2, c3) of a polynomial in s.
    """

    tau: Fraction
    shift: Fraction
    max_deg: int
    pairs: dict[tuple[tuple, tuple], tuple[Partition, Partition]] = field(default_factory=dict)
    prefactors: dict[tuple[tuple, tuple], QFieldElem] = field(default_factory=dict)
    gammas: dict[tuple[tuple, tuple], QFieldElem] = field(default_factory=dict)
    cubic: tuple[Fraction, Fraction, Fraction, Fraction] = (
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )

    def entry(self, nu: Partition, nubar: Partition) -> QFieldElem:
        key = (nu.parts, nubar.parts)
        return self.prefactors[key] * self.gammas[key]

    def cubic_shifted(self, e) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coefficients (c0, c1, c2, c3) of P(s+e) for the recorded cubic P."""
        c0, c1, c2, c3 = self.cubic
        return (
            c0 + c1 * e + c2 * e * e + c3 * e * e * e,
            c1 + 2 * c2 * e + 3 * c3 * e * e,
            c2 + 3 * c3 * e,
            c3,
        )

    def cubic_delta(self, alpha, beta) -> QFieldElem:
        """The monomial q^(P(s+alpha) - P(s+beta)) for the recorded cubic
        prefactor P.

        The cubic terms cancel, so the exponent is an honest quadratic in s,
        and the monomial lies in the coefficient field.
        """
        pa = self.cubic_shifted(Fraction(alpha))
        pb = self.cubic_shifted(Fraction(beta))
        d3 = pa[3] - pb[3]
        if d3 != 0:
            raise ValueError("cubic prefactor difference is not quadratic")
        return qpow(c0=pa[0] - pb[0], c1=pa[1] - pb[1], c2=pa[2] - pb[2])


def tau_table(a: int, b: int, sign: int, shift, max_deg: int, ctx: VertexContext) -> TauTable:
    """Build the coefficient table for tau = sign * b/a, shifted by c.

    The type (a, b, sign) is validated by SessionParams.

    Each entry's exponent is
        (tau+1) (kappa(nu)/2 + (s+c)|nu|) + (1/tau+1) (kappa(nubar)/2 + (s+c)|nubar|),
    multiplied by the vertex-operator matrix element at q^(-rho); the
    (nu, nubar)-independent cubic (tau + 1/tau + 2)(4(s+c)^3 - (s+c))/24 is
    recorded on the side and is what normalizes the (empty, empty) entry to 1.
    Each side's (c0, c1) terms are formed once per partition, so an entry's
    exponent is two sums; gamma comes from `ctx`, which the caller builds
    and owns (its bound must cover max_deg) and which keeps it per
    unordered pair.
    """
    tau = SessionParams(a, b, sign).tau
    shift = Fraction(shift)
    table = TauTable(tau=tau, shift=shift, max_deg=max_deg)

    tau_inv = 1 / tau
    # cubic prefactor (tau + 1/tau + 2)(4(s+c)^3 - (s+c))/24 expanded in s
    scale = (tau + tau_inv + 2) / 24
    c = shift
    c0 = scale * (4 * c**3 - c)
    c1 = scale * (12 * c**2 - 1)
    c2 = scale * (12 * c)
    c3 = scale * 4
    table.cubic = (c0, c1, c2, c3)

    parts = enumerate_partitions(max_deg)

    def side(factor: Fraction) -> list[tuple[Partition, Fraction, Fraction]]:
        """(p, c0, c1), c0 = factor * (kappa(p)/2 + c|p|) and c1 = factor * |p|,
        for each partition p."""
        return [(p, factor * (Fraction(p.kappa(), 2) + shift * p.weight), factor * p.weight)
                for p in parts]

    right = side(tau_inv + 1)
    for nu, a0, a1 in side(tau + 1):
        for nubar, b0, b1 in right:
            if nu.weight + nubar.weight > max_deg:
                break  # parts run by weight
            key = (nu.parts, nubar.parts)
            table.pairs[key] = (nu, nubar)
            table.prefactors[key] = qpow(c0=a0 + b0, c1=a1 + b1)
            table.gammas[key] = ctx.gamma_matrix_element(nu, nubar)
    return table
