"""Schur polynomials, determinant routes, and principal specializations."""

import random
from fractions import Fraction
from functools import partial

import pytest

from qtoda import qfield, schur
from qtoda.errors import DegreeBoundExceeded, NotSFree
from qtoda.partitions import EMPTY, Partition, enumerate_partitions
from qtoda.qfield import QFieldElem, QPowerSum, qpow
from qtoda.suites import schur_structure_suite
from qtoda.vertex import VertexContext, subpartitions
from qtoda.schur import (
    PowerSumPoly,
    PowerSumRing,
    Specialization,
    specialize_nu_rho,
    specialize_rho,
)


def power_sum(k: int) -> PowerSumPoly:
    """The generator p_k."""
    return PowerSumPoly({(0,) * (k - 1) + (1,): Fraction(1)})


P1 = power_sum(1)
P2 = power_sum(2)
P3 = power_sum(3)


@pytest.fixture(scope="module")
def ring():
    return PowerSumRing(8)


def test_complete_homogeneous_examples(ring):
    # S_m is the one-row Schur polynomial s_(m); S_m for m < 0 is zero,
    # and the one-row skew shape (1)/(2) is the single entry S_(-1)
    assert ring.schur(Partition((1,))) == P1
    assert ring.schur(Partition((2,))) == (P1 * P1).scale(Fraction(1, 2)) + P2.scale(
        Fraction(1, 2)
    )
    assert ring.skew_schur(Partition((1,)), Partition((2,))).is_zero()
    assert ring.schur(EMPTY) == PowerSumPoly.one()


def test_schur_examples(ring):
    assert ring.schur(Partition((1,))) == P1
    assert ring.schur(Partition((1, 1))) == (P1 * P1).scale(Fraction(1, 2)) - P2.scale(
        Fraction(1, 2)
    )
    # frozen value derived from the 2x2 minor expansion S2*S1 - S3*S0
    assert ring.schur(Partition((2, 1))) == (P1 * P1 * P1).scale(Fraction(1, 3)) - P3.scale(
        Fraction(1, 3)
    )


def test_skew_schur_examples(ring):
    assert ring.skew_schur(Partition((2,)), Partition((1,))) == P1
    assert ring.skew_schur(Partition((1,)), Partition((1,))) == PowerSumPoly.one()
    assert ring.skew_schur(Partition((1,)), Partition((2,))).is_zero()
    assert ring.skew_schur(Partition((2, 1)), EMPTY) == ring.schur(Partition((2, 1)))


def test_skew_diagram_examples():
    d, P = schur.skew_diagram, Partition
    assert d(P((2, 1)), P((1,))) == ((1, 2), (0, 1))
    # an empty row, then an empty column, is deleted
    assert d(P((2,)), P((1,))) == d(P((1, 1)), P((1,))) == d(P((3, 1)), P((3,))) == ((0, 1),)
    assert d(P((4, 1)), P((2,))) == ((1, 3), (0, 1))
    assert d(P((2, 2)), P((2, 2))) == d(EMPTY, EMPTY) == ()
    assert d(P((1,)), P((2,))) is None and d(P((1,)), P((1, 1))) is None


SOUNDNESS_WEIGHT = 9


@pytest.fixture(scope="module")
def skew_polys():
    """S_{mu/nu} by its own determinant, for every pair of weight <= 9."""
    ring = PowerSumRing(SOUNDNESS_WEIGHT)
    parts = enumerate_partitions(SOUNDNESS_WEIGHT)
    return {(mu, nu): ring.skew_schur(mu, nu, size=max(mu.length, nu.length))
            for mu in parts for nu in parts}


def _collisions(polys: dict, key) -> list:
    """The pairs that share a key with an earlier pair of another polynomial."""
    first: dict = {}
    bad = []
    for pair, poly in polys.items():
        seen_pair, seen_poly = first.setdefault(key(*pair), (pair, poly))
        if seen_poly != poly:
            bad.append((seen_pair, pair))
    return bad


def test_skew_diagram_key_is_sound(skew_polys):
    # the cache key of skew_schur and skew_at: one diagram, one polynomial
    assert len(skew_polys) == 9409
    assert len({schur.skew_diagram(*pair) for pair in skew_polys}) == 321
    assert _collisions(skew_polys, schur.skew_diagram) == []


def test_soundness_test_sees_a_key_that_drops_nu(skew_polys):
    assert _collisions(skew_polys, lambda mu, nu: schur.skew_diagram(mu, EMPTY))


def test_skew_schur_forms_one_determinant_per_diagram(monkeypatch):
    ring = PowerSumRing(5)
    calls, original = [], ring._jacobi_trudi

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ring, "_jacobi_trudi", counting)
    parts = enumerate_partitions(5)
    for mu in parts:
        for nu in parts:
            ring.skew_schur(mu, nu)
    assert len(calls) == len({schur.skew_diagram(mu, nu) for mu in parts for nu in parts})
    assert ring.skew_schur(Partition((2,)), Partition((1,))) is ring.skew_schur(
        Partition((1, 1)), Partition((1,)))


def test_determinant_size_independence(ring):
    for mu in enumerate_partitions(6):
        assert ring.schur(mu) == ring.schur(mu, size=mu.length + 2)


def test_negation_identity(ring):
    for mu in enumerate_partitions(6):
        assert ring.schur(mu).negate_p() == ring.schur(mu.conjugate()).scale(
            (-1) ** mu.weight
        )


def test_skew_negation_identity(ring):
    # includes the frozen example S_{(2)/(1)} -> -p1 = (-1)^3 S_{(1,1)/(1)}
    assert ring.skew_schur(Partition((2,)), Partition((1,))).negate_p() == (
        ring.skew_schur(Partition((1, 1)), Partition((1,))).scale(-1)
    )
    for mu in enumerate_partitions(5):
        for nu in enumerate_partitions(mu.weight):
            if not mu.contains(nu):
                continue
            lhs = ring.skew_schur(mu, nu).negate_p()
            rhs = ring.skew_schur(mu.conjugate(), nu.conjugate()).scale(
                (-1) ** (mu.weight + nu.weight)
            )
            assert lhs == rhs, (mu, nu)


# -- routes that share no code with the determinant ---------------------


def _fraction_det(rows: list[list[int]]) -> Fraction:
    """Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def _at_power_sums(poly: PowerSumPoly, xs: list[int]) -> Fraction:
    """poly at p_k = sum_i x_i^k."""
    p = {k: sum(x**k for x in xs) for k in range(1, poly.max_index() + 1)}
    total = Fraction(0)
    for mono, c in poly.coeffs.items():
        for k, e in enumerate(mono, start=1):
            c *= p[k] ** e
        total += c
    return total


def _bialternant(lam: Partition, xs: list[int]) -> Fraction:
    """s_lam(x_1..x_n) = det(x_i^(lam_j + n - j)) / det(x_i^(n - j))."""
    n = len(xs)
    num = [[x ** (lam.part(j) + n - j) for j in range(1, n + 1)] for x in xs]
    den = [[x ** (n - j) for j in range(1, n + 1)] for x in xs]
    return _fraction_det(num) / _fraction_det(den)


def _integer_points(n: int, count: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [rng.sample(range(-6, 7), n) for _ in range(count)]


def test_schur_matches_the_bialternant_at_integer_points():
    ring = PowerSumRing(10)
    shapes = enumerate_partitions(7) + [Partition((4, 3, 2, 1))]
    for lam in shapes:
        # one variable more than the length, so a padding row is exercised too
        for xs in _integer_points(lam.length + 1, 4, seed=lam.weight):
            assert _at_power_sums(ring.schur(lam), xs) == _bialternant(lam, xs), (lam, xs)


def test_skew_schur_matches_the_coproduct_at_integer_points():
    # s_lam(x, y) = sum over mu inside lam of s_{lam/mu}(x) s_mu(y)
    ring = PowerSumRing(6)
    for lam in enumerate_partitions(6):
        inner = [mu for mu in enumerate_partitions(lam.weight) if lam.contains(mu)]
        for point in _integer_points(6, 4, seed=lam.weight):
            xs, ys = point[:3], point[3:]
            lhs = _at_power_sums(ring.schur(lam), xs + ys)
            rhs = sum(
                _at_power_sums(ring.skew_schur(lam, mu), xs)
                * _at_power_sums(ring.schur(mu), ys)
                for mu in inner
            )
            assert lhs == rhs, (lam, point)


def test_continuation_matches_explicit_negated_specialization():
    """q^(-rho) as p -> -p at q^rho against the explicit point p_k = -p_k(q^rho)."""
    ctx = VertexContext(6)
    neg = Specialization(lambda k: -specialize_rho(k), 6)
    for mu in enumerate_partitions(6):
        for eta in subpartitions(mu):
            expected = neg.evaluate(ctx.ring.skew_schur(mu, eta))
            assert str(ctx.skew_at(mu, eta, "neg")) == str(expected), (mu, eta)
    parts = enumerate_partitions(6)
    for nu in parts:
        for nubar in parts:
            if nu.weight + nubar.weight > 6:
                continue
            expected = QFieldElem.zero()
            for eta in subpartitions(nu.intersect(nubar)):
                expected = expected + neg.evaluate(ctx.ring.skew_schur(nu, eta)) * neg.evaluate(
                    ctx.ring.skew_schur(nubar, eta)
                )
            assert str(ctx.gamma_matrix_element(nu, nubar)) == str(expected), (nu, nubar)


def test_size_independence_check_fails_on_a_wrong_padded_expansion(monkeypatch):
    """Negative control: a cofactor expansion that drops the signs (a
    permanent) on matrices larger than l(mu) must fail the suite's check.
    The entries are int combinations of the basis p_mu / z_mu."""

    def permanent(matrix, table):
        if not matrix:
            return {(): 1}
        total = {}
        for j, entry in enumerate(matrix[0]):
            if entry:
                rest = [row[:j] + row[j + 1 :] for row in matrix[1:]]
                for m, c in schur._basis_mul(entry, permanent(rest, table), table).items():
                    total[m] = total.get(m, 0) + c
        return {m: c for m, c in total.items() if c}

    real = schur._det

    def mutated(matrix, table):
        # rows below l(mu) read (0, ..., 0, 1): only padded matrices change
        last = matrix[-1] if matrix else []
        padded = last and not any(last[:-1]) and last[-1] == {(): 1}
        return permanent(matrix, table) if padded else real(matrix, table)

    monkeypatch.setattr(schur, "_det", mutated)
    report = schur_structure_suite(4, PowerSumRing(4))
    check = next(c for c in report["checks"] if c["name"] == "determinant_size_independence_w4")
    assert report["passed"] is False and check["passed"] is False
    # one-row shapes give triangular padded matrices, where the permanent is
    # the determinant; (1, 1) is the first partition the mutation breaks
    assert check["detail"].split("; ")[0] == str(Partition((1, 1)))


# -- the integer Jacobi-Trudi determinant against the Fraction one it replaced


def _fraction_h(m: int, cache: dict) -> PowerSumPoly:
    """S_m from m*S_m = sum_{k=1}^{m} p_k S_{m-k}, in Fractions."""
    if m < 0:
        return PowerSumPoly.zero()
    if m not in cache:
        acc = PowerSumPoly.one() if m == 0 else PowerSumPoly.zero()
        for k in range(1, m + 1):
            acc = acc + power_sum(k) * _fraction_h(m - k, cache)
        cache[m] = acc if m == 0 else acc.scale(Fraction(1, m))
    return cache[m]


def _poly_det(matrix: list[list[PowerSumPoly]]) -> PowerSumPoly:
    """Cofactor expansion along the first row over PowerSumPoly entries."""
    if not matrix:
        return PowerSumPoly.one()
    total = PowerSumPoly.zero()
    for j, entry in enumerate(matrix[0]):
        if not entry.is_zero():
            term = entry * _poly_det([row[:j] + row[j + 1 :] for row in matrix[1:]])
            total = total - term if j % 2 else total + term
    return total


def fraction_skew_schur(mu: Partition, nu: Partition, cache: dict) -> PowerSumPoly:
    size = max(mu.length, nu.length)
    return _poly_det([[_fraction_h(mu.part(i) - nu.part(j) - i + j, cache)
                       for j in range(1, size + 1)] for i in range(1, size + 1)])


def test_integer_jacobi_trudi_matches_the_fraction_determinant():
    # every skew shape mu/nu of weight <= 7, nu inside mu or not (then zero)
    ring, cache = PowerSumRing(7), {}
    shapes = enumerate_partitions(7)
    pairs = [(mu, nu) for mu in shapes for nu in shapes if nu.weight <= mu.weight]
    for mu, nu in pairs:
        assert ring.skew_schur(mu, nu) == fraction_skew_schur(mu, nu, cache), (mu, nu)
    assert sum(mu.contains(nu) for mu, nu in pairs) > 400


def test_homogeneity(ring):
    for mu in enumerate_partitions(6):
        assert ring.schur(mu).is_homogeneous(mu.weight)


def test_degree_bound_enforced():
    small = PowerSumRing(2)
    with pytest.raises(DegreeBoundExceeded):
        small.schur(Partition((3,)))


def test_specialize_rho_closed_form():
    half = Fraction(1, 2)
    raw = QFieldElem(
        QPowerSum.one(),
        QPowerSum.monomial(half) + QPowerSum.monomial(-half, coef=-1),
    )
    assert specialize_rho(1) == raw


def test_specialize_nu_rho_examples():
    for k in (1, 2, 3):
        assert specialize_nu_rho(EMPTY, k) == specialize_rho(k)
    geom_den = QPowerSum.one() + QPowerSum.monomial(-1, coef=-1)
    expect = QFieldElem(QPowerSum.monomial(Fraction(1, 2))) + QFieldElem(
        QPowerSum.monomial(Fraction(-3, 2)), geom_den
    )
    assert specialize_nu_rho(Partition((1,)), 1) == expect


def test_power_sum_special_point_relation():
    """p_k(q^(nu+rho)) = -p_k(q^(-nu'-rho)), with the right side computed by
    the same head/tail splitting applied to the reflected alphabet."""

    def reflected(nu: Partition, k: int) -> QFieldElem:
        nuc = nu.conjugate()
        ell = nuc.length
        den = QPowerSum.one() + QPowerSum.monomial(Fraction(k), coef=-1)
        num = QPowerSum.monomial(Fraction(k) * (ell + Fraction(1, 2)))
        for i in range(1, ell + 1):
            head = QPowerSum.monomial(-Fraction(k) * (nuc.part(i) - i + Fraction(1, 2)))
            num = num + head * den
        return QFieldElem(num, den)

    for nu in enumerate_partitions(4):
        for k in range(1, 5):
            assert specialize_nu_rho(nu, k) == -reflected(nu, k), (nu, k)


def test_specialization_evaluator_is_ring_hom(ring):
    rho = Specialization.rho(6)
    f = ring.schur(Partition((2, 1)))
    g = ring.schur(Partition((1, 1)))
    assert rho.evaluate(f * g) == rho.evaluate(f) * rho.evaluate(g)
    assert rho.evaluate(f + g) == rho.evaluate(f) + rho.evaluate(g)
    assert rho.evaluate(PowerSumPoly.one()).is_one()


def test_specialization_matches_direct_value():
    rho = Specialization.rho(4)
    assert rho.evaluate(power_sum(3)) == specialize_rho(3)
    missing = Specialization(specialize_rho, 1)
    with pytest.raises(DegreeBoundExceeded):
        missing.evaluate(power_sum(2))


def test_special_point_check_fails_on_a_wrong_nu_rho_value(monkeypatch):
    """Negative control: p_k(q^(nu+rho)) off by q^1 for every nonempty nu
    breaks the reflection relation, and only that check of the suite."""
    from qtoda import suites
    from qtoda.qfield import qpow

    real = suites.specialize_nu_rho

    def shifted(nu, k):
        value = real(nu, k)
        return value + qpow(1) if nu.weight else value

    monkeypatch.setattr(suites, "specialize_nu_rho", shifted)
    report = schur_structure_suite(4, PowerSumRing(4))
    assert report["passed"] is False
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "determinant_size_independence_w4": True,
        "weighted_homogeneity_w4": True,
        "power_sum_special_points": False,
    }
    failing = next(c for c in report["checks"] if not c["passed"])
    assert failing["detail"].split("; ")[0] == f"({Partition((1,))}, k=1)"


# -- the packed evaluator against products and sums of field elements -------------

POINTS = [
    ("rho", specialize_rho),
    ("-rho", lambda k: -specialize_rho(k)),
    *((f"nu_rho{nu}", partial(specialize_nu_rho, Partition(nu))) for nu in [(1,), (2, 1), (3, 1, 1)]),
]


def _random_poly(rng: random.Random, top: int = 4) -> PowerSumPoly:
    """A few monomials in p_1..p_top, with Fraction coefficients of either
    sign, numerators and denominators up to past 2^64."""
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, top)))
        while mono and not mono[-1]:
            mono = mono[:-1]
        size = rng.choice([3, 70])
        coeffs[mono] = Fraction(rng.randint(-2**size, 2**size) or 1, rng.randint(1, 2**(size - 2)))
    return PowerSumPoly(coeffs)


def _by_elements(point, poly: PowerSumPoly) -> QFieldElem:
    """sum_m c_m prod_k p_k^(e_k), each term a product of field elements."""
    total = QFieldElem.zero()
    for m, c in poly.coeffs.items():
        term = qpow(coef=c)
        for k, e in enumerate(m, start=1):
            for _ in range(e):
                term = term * point(k)
        total = total + term
    return total


def _over_the_caps(point, poly: PowerSumPoly) -> QFieldElem:
    """The same sum over prod_k d_k^cap_k, cap_k the largest power of p_k
    in poly: its numerator sum_m c_m prod_k n_k^(e_k) d_k^(cap_k - e_k) made
    with QPowerSum products and sums, the form `evaluate` returns."""
    caps = [max((m[k] for m in poly.coeffs if k < len(m)), default=0) for k in range(poly.max_index())]
    values = {k: point(k) for k, cap in enumerate(caps, start=1) if cap}
    num, den = QPowerSum.zero(), QPowerSum.one()
    for k, v in values.items():
        den = den * _qps_power(v.den, caps[k - 1])
    for m, c in poly.coeffs.items():
        term = QPowerSum.monomial(coef=c)
        for k, v in values.items():
            e = m[k - 1] if k <= len(m) else 0
            term = term * _qps_power(v.num, e) * _qps_power(v.den, caps[k - 1] - e)
        num = num + term
    return QFieldElem(num, den)


def _qps_power(x: QPowerSum, e: int) -> QPowerSum:
    out = QPowerSum.one()
    for _ in range(e):
        out = out * x
    return out


def _packing_failures(cases) -> list[str]:
    """The (point, poly) cases whose packed value differs from the element
    route by value, or from the common-denominator route by its text."""
    bad = []
    for name, point, poly in cases:
        try:
            got = Specialization(point, 8).evaluate(poly)
        except ZeroDivisionError:  # a denominator read back as 0
            got = None
        if got is None or got != _by_elements(point, poly) or str(got) != str(
                _over_the_caps(point, poly)):
            bad.append(f"{name}: {poly}")
    return bad


def _seeded_cases(seed: int, count: int = 6):
    rng = random.Random(seed)
    return [(name, point, _random_poly(rng)) for name, point in POINTS for _ in range(count)]


@pytest.mark.parametrize("seed", range(4))
def test_packed_evaluate_matches_sums_of_products(seed):
    assert _packing_failures(_seeded_cases(seed)) == []


# a numerator coefficient that needs every bit of its width: 3*p_1 at q^rho
# is -3*q^(1/2) / (1 - q), with the bound 3 of width 3
TIGHT = [("rho", specialize_rho, power_sum(1).scale(3))]


def test_the_packed_check_sees_a_width_one_bit_short(monkeypatch):
    # negative control: balanced digits of width bound.bit_length() hold
    # only [-2, 2) for the bound 3
    assert _packing_failures(TIGHT) == []
    monkeypatch.setattr(qfield, "_digit_width", lambda bound: bound.bit_length())
    assert _packing_failures(TIGHT) == ["rho: 3*p1"]


def test_the_packed_check_sees_unsigned_digits(monkeypatch):
    # negative control: digits read in [0, 2^B) and no borrow; every
    # denominator 1 - q^k has a negative coefficient
    def unsigned(n, B, at, step):
        out = {}
        while n > 0:
            if n & ((1 << B) - 1):
                out[at] = n & ((1 << B) - 1)
            n, at = n >> B, at + step
        return out

    monkeypatch.setattr(qfield, "_balanced_digits", unsigned)
    cases = TIGHT + _seeded_cases(0, count=1)
    packed = [f"{name}: {poly}" for name, _, poly in cases if poly.max_index()]  # no constant
    assert len(packed) > 4 and _packing_failures(cases) == packed


def test_a_point_with_an_s_part_is_refused():
    spec = Specialization(lambda k: qpow(c1=k), 2)  # q^(k*s)
    with pytest.raises(NotSFree, match=r"^cannot pack .*: its exponents depend on s$"):
        spec.evaluate(power_sum(1))
