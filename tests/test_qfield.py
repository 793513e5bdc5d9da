"""Field arithmetic: construction, shift, exact evaluation, axioms, and the
QPowerSum core (its text form included) against the references of
qfield_oracle.py."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from qtoda import qfield
from qtoda.errors import MixedSParts
from qtoda.qfield import QFieldElem, QPowerSum, qpow
from qfield_oracle import evaluate, expand, grid, ref_add, ref_mul, ref_shift, ref_str, value


def rho_like(k):
    """1 / (q^(k/2) - q^(-k/2)) built from raw parts."""
    half = Fraction(k, 2)
    den = QPowerSum.monomial(half) + QPowerSum.monomial(-half, coef=-1)
    return QFieldElem(QPowerSum.one(), den)


def test_qpow_identity_cases():
    assert qpow().is_one()
    qs = qpow(c1=1)
    assert (qs * qpow(c1=-1)).is_one()


def test_qpow_quadratic_exponent_expansion():
    # (tau+1)(s-1/2)^2/2 at tau = 1 is s^2 - s + 1/4
    E = qpow(c0=Fraction(1, 4), c1=-1, c2=1)
    assert E == qpow() * E  # sanity: one multiplication
    assert str(E) == "q^(s^2-s+1/4)"


def test_shift_s_examples():
    qs = qpow(c1=1)
    assert qs.shift(1) == qpow(1) * qs
    assert QFieldElem.one().shift(Fraction(1, 2)).is_one()
    sq = qpow(c2=1)
    assert sq.shift(1) == qpow(c0=1, c1=2, c2=1)


def test_shift_s_additivity():
    # both terms of the s-part s^2/2 + 2*s
    e = qpow(c1=2, c2=Fraction(1, 2))
    x = rho_like(1) * e + qpow(c0=Fraction(1, 3), c1=2, c2=Fraction(1, 2))
    a, b = Fraction(2, 3), Fraction(-1, 5)
    assert x.shift(a).shift(b) == x.shift(a + b)


def test_eval_examples():
    assert evaluate(rho_like(1), 0, Fraction(1, 2), 2) == Fraction(-2, 3)  # q = 1/4
    qs = qpow(c1=1)
    assert evaluate(qs, 3, Fraction(1, 2), 1) == Fraction(1, 8)
    geom = QFieldElem(
        QPowerSum.one(),
        QPowerSum.one() + QPowerSum.monomial(1, coef=-1),
    )
    assert evaluate(geom, 17, Fraction(1, 2), 1) == 2
    with pytest.raises(ValueError):  # q^(1/2) needs a grid of 2
        evaluate(rho_like(1), 0, Fraction(1, 2), 1)


def test_eval_certifies_denominator():
    # q - q is a vanishing denominator for every q
    den = QPowerSum.monomial(1) + QPowerSum.monomial(1, coef=-1)
    with pytest.raises(ZeroDivisionError):
        QFieldElem(QPowerSum.one(), den)
    # denominator that vanishes at the evaluation point only
    near = QPowerSum.monomial(1) + QPowerSum.monomial(coef=Fraction(-1, 2))
    elem = QFieldElem(QPowerSum.one(), near)
    with pytest.raises(ZeroDivisionError):
        evaluate(elem, 0, Fraction(1, 2), 1)
    assert evaluate(elem, 0, Fraction(1, 3), 1) == -6


def random_s_part(rng):
    """(c1, c2) of a random s-part c2*s^2 + c1*s."""
    return Fraction(rng.randint(-2, 2), rng.choice([1, 2])), Fraction(rng.randint(-1, 1))


def random_elem(rng, sigma):
    """A numerator of the s-part sigma over an s-free denominator."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        terms.append((
            Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])),
            *sigma,
            Fraction(rng.randint(-3, 3) or 1),
        ))
    num = QPowerSum(terms)
    den_terms = []
    for _ in range(rng.randint(1, 2)):
        c0 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        den_terms.append((c0, 0, 0, Fraction(rng.randint(1, 3))))
    den = QPowerSum(den_terms)
    if num.is_zero():
        num = QPowerSum.monomial(0, *sigma)
    if den.is_zero():
        den = QPowerSum.one()
    return QFieldElem(num, den)


def test_field_axioms_random():
    rng = random.Random(20240819)
    for _ in range(40):
        sigma = random_s_part(rng)
        a, b, c = (random_elem(rng, sigma) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        if not a.is_zero():
            assert (a * a.inv()).is_one()
            assert (a.inv().inv()) == a


def test_eval_is_homomorphism():
    rng = random.Random(7)
    s, t = 2, Fraction(1, 3)
    checked = 0
    for _ in range(15):
        sigma = random_s_part(rng)
        a, b = random_elem(rng, sigma), random_elem(rng, sigma)
        L = grid(a.num, a.den, b.num, b.den)
        try:
            va, vb = evaluate(a, s, t, L), evaluate(b, s, t, L)
        except ZeroDivisionError:
            continue
        assert evaluate(a * b, s, t, L) == va * vb
        assert evaluate(a + b, s, t, L) == va + vb
        checked += 1
    assert checked >= 10


def test_invert_q_involution():
    rng = random.Random(5)
    for _ in range(10):
        a = random_elem(rng, random_s_part(rng))
        assert a.invert_q().invert_q() == a


def test_canonical_text_form():
    x = qpow(c0=Fraction(1, 2), c1=-1, coef=Fraction(3, 2))
    assert str(x) == "3/2*q^(-s+1/2)"
    y = QFieldElem(
        QPowerSum.one() + QPowerSum.monomial(1, coef=-1),
        QPowerSum.one(),
    )
    assert str(y) == "-q^(1) + 1"


def test_grouped_sum_matches_fold():
    rng = random.Random(11)
    sigma = random_s_part(rng)
    xs = [random_elem(rng, sigma) for _ in range(8)]
    folded = QFieldElem.zero()
    for x in xs:
        folded = folded + x
    assert QFieldElem.sum(xs) == folded


def test_power_sums_form_integral_domain():
    # ordered exponent group: the product of nonzero elements is nonzero
    rng = random.Random(23)
    for _ in range(30):
        a, b = random_elem(rng, random_s_part(rng)), random_elem(rng, random_s_part(rng))
        if a.num.is_zero() or b.num.is_zero():
            continue
        assert not (a.num * b.num).is_zero()


def test_a_sum_across_two_s_parts_raises():
    with pytest.raises(MixedSParts, match=r"^cannot add q-power sums of different "
                                          r"s-parts s\^2 and 1/2\*s$"):
        QPowerSum([(0, 0, 1, 1), (1, Fraction(1, 2), 0, 3)])
    # zero adds to every s-part, and a sum that cancels is zero
    qs = QPowerSum.monomial(c1=1)
    assert QPowerSum.zero() + qs == qs + QPowerSum.zero() == qs
    assert (qs - qs).is_zero() and (qs - qs) + QPowerSum.one() == QPowerSum.one()


# -- the QPowerSum core against the evaluation homomorphism and a plain
# Fraction reference, on operands of one shared s-part and large coprime
# denominators ----------------------------------------------------------------

SEED = 20261018
PRIMES = (101, 103, 1009, 10007, 65537)
POINTS = [(0, Fraction(2, 3)), (1, Fraction(-3, 2)), (-2, Fraction(5, 7)),
          (2, Fraction(7, 4)), (-1, Fraction(-2, 9))]


def random_exponent(rng):
    """(c0, c1, c2) of a random exponent."""
    return (
        Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])),
        rng.choice([0, 0, 1, -1, Fraction(1, 2)]),
        rng.choice([0, 0, 1, Fraction(-1, 3)]),
    )


def random_coef(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.choice(PRIMES))


def plus(s, t):
    """The sum of two s-parts (c1, c2)."""
    return s[0] + t[0], s[1] + t[1]


def random_sum(rng, sigma, size=9):
    """Up to `size` terms, all of the s-part sigma = (c1, c2)."""
    terms = [(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])), *sigma, random_coef(rng))
             for _ in range(rng.randint(1, size))]
    return QPowerSum(terms)


def random_quotient(rng, sigma):
    """A quotient whose num and den s-parts differ by sigma, the den's random."""
    tau = random_exponent(rng)[1:]
    num, den = random_sum(rng, plus(sigma, tau), 4), random_sum(rng, tau, 4)
    return QFieldElem(num, den if not den.is_zero() else QPowerSum.one())


def assert_canonical(p):
    """The part (L, c, P): c a normalized nonzero pair, P primitive with a
    positive leading coefficient, L the smallest grid of P's exponents."""
    if p.part is not None:
        L, (n, d), P = p.part
        assert P and n and d > 0 and gcd(n, d) == 1
        assert gcd(*P.values()) == 1 and P[max(P)] > 0
        assert L >= 1 and gcd(L, *P) == 1


def three_points(elems, L):
    """Three points of POINTS where no denominator of elems vanishes."""
    found = []
    for s, t in POINTS:
        try:
            found.append((s, t, [evaluate(x, s, t, L) for x in elems]))
        except ZeroDivisionError:
            continue
        if len(found) == 3:
            return found
    raise AssertionError("fewer than three usable points")


def cross_equal(r, num: dict, den: dict) -> bool:
    """r = num/den, compared in the reference arithmetic."""
    return ref_mul(expand(r.num), den) == ref_mul(num, expand(r.den))


def test_powersum_ops_match_both_references():
    rng = random.Random(SEED)
    for _ in range(30):
        sigma = random_exponent(rng)[1:]
        x, y = random_sum(rng, sigma), random_sum(rng, sigma)
        mono, coef, beta = random_exponent(rng), random_coef(rng), rng.randint(-2, 2)
        ex, ey, em = expand(x), expand(y), expand(QPowerSum.monomial(*mono, coef))
        L = grid(x, y, QPowerSum.monomial(*mono))
        cases = [
            (x * y, ref_mul(ex, ey), lambda vx, vy, vm, s, t: vx * vy),
            (x + y, ref_add(ex, ey), lambda vx, vy, vm, s, t: vx + vy),
            (x - y, ref_add(ex, ey, -1), lambda vx, vy, vm, s, t: vx - vy),
            (x * QPowerSum.monomial(*mono, coef), ref_mul(ex, em),
             lambda vx, vy, vm, s, t: vx * vm),
            (x.shift(beta), ref_shift(ex, Fraction(beta)), None),
            (x.negate_exponents(), {(-a, -b, -c): v for (a, b, c), v in ex.items()}, None),
        ]
        for got, ref, _ in cases:
            assert expand(got) == ref
            assert_canonical(got)
        assert x * y == y * x and hash(x * y) == hash(y * x)
        assert (x + y) - y == x
        for s, t in POINTS[:3]:
            vx, vy, vm = (value(p, s, t, L) for p in (x, y, QPowerSum.monomial(*mono, coef)))
            for got, _, op in cases:
                if op is not None:
                    assert value(got, s, t, L) == op(vx, vy, vm, s, t)
            assert value(x.shift(beta), s, t, L) == value(x, s + beta, t, L)
            assert value(x.negate_exponents(), s, t, L) == value(x, s, 1 / t, L)


def test_quotient_ops_match_both_references():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        sigma = random_exponent(rng)[1:]
        x, y, z = (random_quotient(rng, sigma) for _ in range(3))
        beta = rng.randint(-2, 2)
        xn, xd, yn, yd = expand(x.num), expand(x.den), expand(y.num), expand(y.den)
        zn, zd = expand(z.num), expand(z.den)
        L = grid(x.num, x.den, y.num, y.den, z.num, z.den)
        total = QFieldElem.sum([x, y, z])
        sum_num = ref_add(ref_mul(ref_add(ref_mul(xn, yd), ref_mul(yn, xd)), zd),
                          ref_mul(zn, ref_mul(xd, yd)))
        assert cross_equal(x * y, ref_mul(xn, yn), ref_mul(xd, yd))
        assert cross_equal(x + y, ref_add(ref_mul(xn, yd), ref_mul(yn, xd)), ref_mul(xd, yd))
        assert cross_equal(x - y, ref_add(ref_mul(xn, yd), ref_mul(yn, xd), -1), ref_mul(xd, yd))
        assert cross_equal(x.shift(beta), ref_shift(xn, Fraction(beta)), ref_shift(xd, Fraction(beta)))
        assert cross_equal(total, sum_num, ref_mul(ref_mul(xd, yd), zd))
        for r in (x * y, x + y, x - y, x.shift(beta), x.invert_q(), total):
            assert_canonical(r.num)
            assert_canonical(r.den)
        for s, t, (vx, vy, vz) in three_points([x, y, z], L):
            assert evaluate(x * y, s, t, L) == vx * vy
            assert evaluate(x + y, s, t, L) == vx + vy
            assert evaluate(x - y, s, t, L) == vx - vy
            assert evaluate(total, s, t, L) == vx + vy + vz
            assert evaluate(x.invert_q(), s, 1 / t, L) == vx
            try:
                assert evaluate(x.shift(beta), s, t, L) == evaluate(x, s + beta, t, L)
            except ZeroDivisionError:
                pass  # x's denominator vanishes at s + beta


def test_references_see_a_coefficient_damaged_by_one_seventh():
    rng = random.Random(SEED + 2)
    x, y = (random_sum(rng, random_exponent(rng)[1:]) for _ in range(2))
    good = x * y
    c0, c1, c2, _ = min(good.terms(), key=lambda t: (t[2], t[1], t[0]))
    bad = good + QPowerSum.monomial(c0, c1, c2, Fraction(1, 7))
    assert expand(good) == ref_mul(expand(x), expand(y))
    assert expand(bad) != ref_mul(expand(x), expand(y))
    L = grid(x, y)
    for s, t in POINTS[:3]:
        assert value(good, s, t, L) == value(x, s, t, L) * value(y, s, t, L)
        assert value(bad, s, t, L) != value(x, s, t, L) * value(y, s, t, L)


def long_sum(rng, size):
    """`size` terms on one random s-part, the c0 spread over a grid of 1, 2 or 3."""
    (_, c1, c2), d = random_exponent(rng), rng.choice([1, 2, 3])
    return QPowerSum([(Fraction(k, d), c1, c2, random_coef(rng))
                      for k in rng.sample(range(-40, 41), size)])


def without_top_term(p):
    """p, of one s-part and at least two terms, less its highest term."""
    return QPowerSum(sorted(p.terms())[:-1])


def test_divide_exact_recovers_a_factor_on_one_or_several_s_parts():
    # a factor of the s-part lam*n*s over a denominator of the s-part lam*s,
    # on one s-part at n = 1, on two otherwise: the exact quotient, or None
    # for a non-multiple, and a sum over the two denominators agrees with
    # both references
    rng = random.Random(SEED + 3)
    one = QPowerSum.one()
    for n in (1, 1, 2, 3) * 6:
        lam = rng.choice([-1, Fraction(1, 2), 1, 2])
        a, b = random_sum(rng, (lam * n, 0)), random_sum(rng, (lam, 0))
        ab = a * b
        assert qfield._divide_exact(ab, b) == a
        if len(b) > 1:
            assert qfield._divide_exact(ab + QPowerSum.monomial(0, lam * (n + 1)), b) is None
        x, y = QFieldElem(one, b), QFieldElem(a, ab)
        xn, xd, yn, yd = (expand(p) for p in (x.num, x.den, y.num, y.den))
        assert cross_equal(x + y, ref_add(ref_mul(xn, yd), ref_mul(yn, xd)), ref_mul(xd, yd))
        L = grid(x.num, x.den, y.num, y.den)
        for s, t, (vx, vy) in three_points([x, y], L):
            assert evaluate(x + y, s, t, L) == vx + vy

    # (1 - q^(n/2)) / (1 - q^(1/2)) is the n-term geometric sum; a numerator
    # that spans less than the denominator is no multiple of it
    def q(c0):
        return QPowerSum.monomial(c0)

    for n in (12, 20, 40):
        geometric = sum((q(Fraction(k, 2)) for k in range(n)), QPowerSum.zero())
        assert qfield._divide_exact(one - q(Fraction(n, 2)), one - q(Fraction(1, 2))) == geometric
        assert qfield._divide_exact(one - q(Fraction(n, 2)), one - q(Fraction(n + 1, 2))) is None

    # seeded quotients of 12 to 30 terms, a one-coefficient perturbation of
    # each product, and numerators shorter in span than the denominator
    for _ in range(12):
        a, b = long_sum(rng, rng.randint(12, 30)), long_sum(rng, rng.randint(2, 8))
        ab = a * b
        assert qfield._divide_exact(ab, b) == a
        c0, c1, c2, _ = rng.choice(list(ab.terms()))
        near = ab + QPowerSum.monomial(c0, c1, c2, Fraction(1, 7))
        assert qfield._divide_exact(near, b) is None
        shorter = without_top_term(b) * QPowerSum.monomial(*random_exponent(rng), random_coef(rng))
        assert qfield._divide_exact(shorter, b) is None
        assert qfield._divide_exact(without_top_term(ab), b) is None

    # every exact quotient's lowest exponent is min(num) - min(den), the
    # bound itself; here it is reached with den on a grid of 2, num on 6
    a = QPowerSum([(Fraction(-7, 3), 1, 0, 3), (Fraction(1, 2), 1, 0, -2),
                   (Fraction(5, 2), 1, 0, 1)])
    b = q(Fraction(-1, 2)) + q(1) + q(Fraction(3, 2)).scale(-5)
    assert qfield._divide_exact(a * b, b) == a
    below = QPowerSum.monomial(-3, 1)  # lower than every term of a * b
    assert qfield._divide_exact(a * b + below, b) is None


# -- the text form and the normalized denominator, read through terms() -------


def random_gridded_sum(rng, L, sigma):
    """Up to twelve terms of the s-part sigma = (c1, c2), every c0 on the
    grid 1/L, and sometimes one at c0 = 0, a constant term when sigma is 0;
    coefficients +-1 or multi-digit."""
    terms = []
    for _ in range(rng.randint(1, 12)):
        coef = rng.choice([1, -1, Fraction(rng.choice([-1, 1]) * rng.randint(10, 10**5),
                                           rng.choice([1, 7, 97]))])
        c0 = Fraction(rng.randint(-3 * L, 3 * L), L)
        terms.append((c0, *sigma, coef))
    if rng.random() < 0.5:
        terms.append((0, *sigma, rng.choice([1, -1, Fraction(-355, 113)])))
    return QPowerSum(terms)


def test_str_matches_a_formatter_built_from_terms():
    rng = random.Random(SEED + 4)
    quadratic = constant = 0
    for L in (1, 2, 3, 4, 16):
        for _ in range(30):
            sigma = random_exponent(rng)[1:]
            x, y = random_gridded_sum(rng, L, sigma), random_gridded_sum(rng, L, sigma)
            for p in (x, x * y, x - y, x - x):
                assert str(p) == ref_str(p)
            quadratic += sigma[1] != 0
            constant += any(not (c0 or c1 or c2) for c0, c1, c2, _ in x.terms())
    assert str(QPowerSum.zero()) == ref_str(QPowerSum.zero()) == "0"
    assert quadratic > 50 and constant > 10


def test_denominator_starts_at_the_unit_term():
    # the smallest denominator term in c0 order is divided out of num and
    # den, its s-part with it
    rng = random.Random(SEED + 5)
    s_dependent = 0
    for _ in range(30):
        sigma, tau = random_exponent(rng)[1:], random_exponent(rng)[1:]
        num, den = random_sum(rng, plus(sigma, tau)), random_sum(rng, tau)
        x, y = QFieldElem(num, den), random_quotient(rng, sigma)
        assert cross_equal(x, expand(num), expand(den))
        for r in (x, x * y, x + y, x.shift(1), x.invert_q(), x - x):
            assert min(r.den.terms(), key=lambda t: (t[2], t[1], t[0])) == (0, 0, 0, 1)
        s_dependent += tau != (0, 0)
    assert s_dependent > 5


# -- the monomial inputs: terms() read back in, and qpow against the oracle ----


def round_trips(build, p) -> bool:
    """True when `build`, given p's (c0, c1, c2, coefficient) terms, gives p back."""
    return build(p.terms()) == p


def test_terms_read_back_in_give_the_same_sum():
    rng = random.Random(SEED + 6)
    quadratic = 0
    for L in (1, 2, 3, 4, 16):
        for _ in range(20):
            sigma = random_exponent(rng)[1:]
            x, y = random_gridded_sum(rng, L, sigma), random_gridded_sum(rng, L, sigma)
            for p in (x, x * y, x - y):
                assert round_trips(QPowerSum, p)
            quadratic += sigma[1] != 0
    assert round_trips(QPowerSum, QPowerSum.zero()) and QPowerSum([]).is_zero()
    assert quadratic > 30


def test_qpow_agrees_with_the_oracle_evaluation():
    rng = random.Random(SEED + 7)
    for _ in range(40):
        (c0, c1, c2), coef = random_exponent(rng), random_coef(rng)
        x = qpow(c0, c1, c2, coef)
        assert x.den.is_one() and len(x.num) == 1
        L = grid(x.num)
        for s, t in POINTS:
            assert evaluate(x, s, t, L) == coef * t ** int(L * (c0 + c1 * s + c2 * s * s))
    assert evaluate(qpow(coef=Fraction(-2, 3)), 5, Fraction(1, 2), 1) == Fraction(-2, 3)


def test_a_constructor_that_drops_c2_fails_the_round_trip():
    # negative control: the round trip sees a lost s^2 coefficient
    def drops_c2(terms):
        return QPowerSum([(c0, c1, 0, coef) for c0, c1, _, coef in terms])

    rng = random.Random(SEED + 8)
    sigma = (1, Fraction(-1, 3))
    p = QPowerSum([(Fraction(1, 2), *sigma, 5)]) + random_gridded_sum(rng, 2, sigma)
    assert round_trips(QPowerSum, p)
    assert not round_trips(drops_c2, p)


# -- a one-term factor: the shift path of the product ---------------------------


def test_a_one_term_factor_multiplies_as_a_shift():
    """x * m with m = coef * q^E one term, on the grids 1 to 16, against the
    reference product and the evaluation homomorphism.  The cases include
    negative and Fraction contents, s^2 s-parts, and exponents that fall to
    a coarser grid (q^(j/L) * q^(r - j/L)).  A shift that skipped `_on_grid`
    would leave those on the finer grid, and the canonical check fails."""
    rng = random.Random(SEED + 9)
    seen = Counter()
    for L in range(1, 17):
        for _ in range(12):
            sigma, tau = random_exponent(rng)[1:], random_exponent(rng)[1:]
            x = random_gridded_sum(rng, L, sigma)
            j = rng.randint(-3 * L, 3 * L)
            if rng.random() < 0.4:  # a one-term x whose exponent sum with m's is whole
                x = QPowerSum.monomial(Fraction(j, L), *sigma, random_coef(rng))
                j = rng.randint(-3, 3) * L - j
            m = QPowerSum.monomial(Fraction(j, L), *tau, rng.choice([1, -1, random_coef(rng)]))
            want, grid_l = ref_mul(expand(x), expand(m)), grid(x, m)
            for got in (x * m, m * x):
                assert expand(got) == want
                assert_canonical(got)
                for s, t in POINTS[:2]:
                    assert value(got, s, t, grid_l) == value(x, s, t, grid_l) * value(m, s, t, grid_l)
            got_l, (n, d) = (x * m).part[:2]
            seen["coarser"] += got_l < lcm(x.part[0], m.part[0])
            seen["quadratic"] += sigma[1] + tau[1] != 0
            seen["negative"] += n < 0
            seen["fraction"] += d > 1
    assert min(seen.values()) > 20, seen
    half = QPowerSum.monomial(Fraction(1, 2))
    assert (half * half).part == (1, (1, 1), {1: 1}) and half * half == QPowerSum.monomial(1)


# -- the one-pass text form against the formatter it replaced -------------------


def legacy_expo_text(key: tuple) -> str:
    """The text of c2*s^2 + c1*s + c0 from its int key (n2, d2, n1, d1, n0, d0)."""
    text = ""
    for n, d, sym in zip(key[::2], key[1::2], ("s^2", "s", "")):
        if n:
            coef = str(n) if d == 1 else f"{n}/{d}"
            if sym:
                coef = {"1": "", "-1": "-"}.get(coef, coef + "*")
            text += ("+" if text and n > 0 else "") + coef + sym
    return text or "0"


def legacy_join_terms(terms) -> str:
    """(coefficient text, monomial text or None) pairs joined by " + " and " - "."""
    chunks = []
    for coef, mono in terms:
        text = coef if mono is None else {"1": mono, "-1": "-" + mono}.get(coef, f"{coef}*{mono}")
        chunks.append(text if not chunks else " - " + text[1:] if text[0] == "-" else " + " + text)
    return "".join(chunks) or "0"


def legacy_str(p) -> str:
    """QPowerSum text as formatted term by term: one exponent text per term."""
    if p.part is None:
        return "0"
    s, (L, (n, d), P) = p.s, p.part
    terms = []
    for k in sorted(P, reverse=True):
        c, e = Fraction(n * P[k], d), Fraction(k, L)
        mono = None if s == (0, 1, 0, 1) and not k else f"q^({legacy_expo_text(s + e.as_integer_ratio())})"
        terms.append((str(c), mono))
    return legacy_join_terms(terms)


def text_cases():
    """Seeded sums, products and differences on the grids 1 to 16, and a
    tally of what they cover."""
    rng = random.Random(SEED + 10)
    cases, seen = [QPowerSum.zero()], Counter()
    for L in range(1, 17):
        for _ in range(8):
            sigma = random_exponent(rng)[1:]
            x, y = random_gridded_sum(rng, L, sigma), random_gridded_sum(rng, L, sigma)
            cases += [x, x * y, x - y, x - x]
    for p in cases:
        terms = list(p.terms())
        seen["zero"] += not terms
        seen["s^2"] += any(c2 for *_, c2, _ in terms)
        seen["s only"] += any(c1 and not c2 for _, c1, c2, _ in terms)
        seen["+-1"] += any(abs(c) == 1 for *_, c in terms)
        seen["fraction"] += any(c.denominator > 1 for *_, c in terms)
        seen["c0 = 0 after an s-part"] += any(not c0 and (c1 or c2) for c0, c1, c2, _ in terms)
        seen["constant"] += any(not (c0 or c1 or c2) for c0, c1, c2, _ in terms)
        seen["c0 > 0 after an s-part"] += any(c0 > 0 and (c1 or c2) for c0, c1, c2, _ in terms)
    return cases, seen


def test_one_pass_text_matches_the_former_formatter():
    cases, seen = text_cases()
    assert [p for p in cases if str(p) != legacy_str(p)] == []
    assert min(seen.values()) > 10, seen


def test_the_text_check_sees_a_dropped_plus_before_c0():
    # negative control: "q^(s+1/2)" printed as "q^(s1/2)"
    def drops_plus(p):
        return re.sub(r"(s|s\^2)\+(\d)", r"\1\2", str(p))

    cases, _ = text_cases()
    assert [p for p in cases if drops_plus(p) != legacy_str(p)]


# -- the n-ary sum against the reference arithmetic -----------------------------


def is_canonical(p) -> bool:
    try:
        assert_canonical(p)
    except AssertionError:
        return False
    return True


def combine_cases():
    """Seeded (pairs, reference sum) cases: up to six sums of one s-part on
    grids up to 16, with content denominators from 1 to 10007 and
    coefficients of their own, and a sum that cancels to zero."""
    rng = random.Random(SEED + 11)
    cases = []
    for L in range(1, 17):
        for _ in range(6):
            sigma = random_exponent(rng)[1:]
            xs = [random_gridded_sum(rng, rng.randint(1, L), sigma)
                  for _ in range(rng.randint(1, 6))]
            cs = [(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice((1, 2, 3) + PRIMES))
                  for _ in xs]
            want = {}
            for x, (n, d) in zip(xs, cs):
                want = ref_add(want, {e: c * Fraction(n, d) for e, c in expand(x).items()})
            cases.append((list(zip(xs, cs)), want))
            # the same sum less itself: every term cancels
            cases.append((list(zip(xs, cs)) + [(x, (-n, d)) for x, (n, d) in zip(xs, cs)], {}))
    return cases


def combine_failures(cases) -> list[str]:
    """What goes wrong when each case is summed: a wrong value or a
    non-canonical form."""
    bad = []
    for pairs, want in cases:
        got = QPowerSum.combine(pairs)
        if expand(got) != want:
            bad.append(f"value {got}")
        if not is_canonical(got):
            bad.append(f"form {got.part}")
    return bad


def test_combine_matches_the_reference_sum():
    cases = combine_cases()
    assert combine_failures(cases) == []
    assert sum(not want for _, want in cases) == len(cases) // 2
    assert len({c[1] for pairs, _ in cases for _, c in pairs}) > 5
    # the binary operators are sums of two
    for pairs, _ in cases[::2]:
        x, y = pairs[0][0], pairs[-1][0]
        assert x + y == QPowerSum.combine([(x, (1, 1)), (y, (1, 1))])
        assert x - y == QPowerSum.combine([(x, (1, 1)), (y, (-1, 1))])


def test_combine_across_two_s_parts_raises():
    x, y = QPowerSum.monomial(1, c1=1), QPowerSum.monomial(2, c1=2)
    with pytest.raises(MixedSParts, match=r"^cannot add q-power sums of different s-parts s and 2\*s$"):
        QPowerSum.combine([(x, (1, 1)), (QPowerSum.zero(), (1, 1)), (y, (3, 2))])
    # zero sums are skipped, whatever their s-part
    assert QPowerSum.combine([(QPowerSum.zero(), (1, 1)), (x, (2, 1))]) == x.scale(2)
    assert QPowerSum.combine([]).is_zero()


def test_the_combine_check_sees_a_skipped_gcd_pass(monkeypatch):
    # negative control: a sum that keeps its common multiple inside P has
    # the right value but not the canonical form
    def no_gcd_pass(L, D, P):
        P = {k: v for k, v in P.items() if v}
        if not P:
            return None
        sign = 1 if P[max(P)] > 0 else -1
        return qfield._on_grid(L, (sign, D), {k: sign * v for k, v in P.items()})

    cases = combine_cases()
    monkeypatch.setattr(qfield, "_part_from_ints", no_gcd_pass)
    bad = combine_failures(cases)
    assert bad and all(b.startswith("form") for b in bad)


# -- no-op steps return their operand, and every denominator stays unit-led ------


def unit_led(x) -> bool:
    """x's den is s-free and its smallest term is 1."""
    if x.den.s != (0, 1, 0, 1):
        return False
    _, (n, d), P = x.den.part
    return min(P) == 0 and n * P[0] == d


def shift_by_key(p, beta):
    """The shift of every sum through the exponent key, as it was before an
    s-free sum was returned unchanged."""
    if p.part is None:
        return p
    k = qfield._shift_key(p.s + (0, 1), qfield._rat(beta))
    return QPowerSum._raw(k[:4], qfield._part_times_q(p.part, *k[4:]))


def fast_path_cases():
    """Seeded operands: sums of random s-parts, s-free ones among them, and
    pairs of quotients of one s-part over s-dependent and s-free
    denominators, with the unit and zero."""
    rng = random.Random(SEED + 12)
    sums, pairs = [], []
    for _ in range(30):
        sigma = random_exponent(rng)[1:]
        sums += [random_sum(rng, sigma), random_sum(rng, (0, 0))]
        pairs.append((random_quotient(rng, sigma), random_quotient(rng, sigma)))
    one, zero = QFieldElem.one(), QFieldElem.zero()
    pairs += [(one, QFieldElem(sums[1])), (zero, pairs[0][0]), (pairs[1][1], zero)]
    return sums, pairs


def shift_failures(sums) -> list[str]:
    """Shifts that differ from the key route in structure, or that build a
    new object for an s-free sum."""
    bad = []
    for p in sums:
        for beta in (1, -2, Fraction(1, 2), Fraction(-2, 3)):
            got, want = p.shift(beta), shift_by_key(p, beta)
            if (got.s, got.part) != (want.s, want.part):
                bad.append(f"value {p} at {beta}")
            if p.s == (0, 1, 0, 1) and got is not p:
                bad.append(f"copy {p} at {beta}")
    return bad


def test_a_shift_matches_the_key_route_and_keeps_an_s_free_sum():
    sums, _ = fast_path_cases()
    assert shift_failures(sums) == []
    assert QPowerSum.zero().shift(1).is_zero()
    s_free = sum(p.s == (0, 1, 0, 1) for p in sums)
    assert s_free >= 30 and len(sums) - s_free >= 15


def test_the_shift_check_sees_a_fast_path_that_keeps_an_s_dependent_sum(monkeypatch):
    # negative control: every sum returned unchanged, whatever its s-part
    sums, _ = fast_path_cases()
    monkeypatch.setattr(QPowerSum, "shift", lambda p, beta: p)
    bad = shift_failures(sums)
    assert bad and all(b.startswith("value") for b in bad)


def test_every_quotient_step_keeps_a_unit_led_denominator():
    _, pairs = fast_path_cases()
    for x, y in pairs:
        results = [x + y, x - y, x * y, -x, x.invert_q(), QFieldElem.sum([x, y, x]),
                   x.scale(0), x.scale(1), x.scale(-1), x.scale(Fraction(2, 3))]
        results += [x.shift(beta) for beta in (0, 1, Fraction(-1, 2))]
        if not x.is_zero():
            results += [x.inv(), y / x]
        for r in results:
            assert unit_led(r), (x, y, r)


def test_no_op_quotient_steps_return_their_operand():
    _, pairs = fast_path_cases()
    one = QFieldElem.one()
    unit = QFieldElem(QPowerSum.one(), QPowerSum.one())  # equal to one, not the same object
    assert unit is not one
    for x in (x for pair in pairs for x in pair):
        assert x * one is x and one * x is x
        assert x * unit is x and (unit * x is x or x is one)
        assert x.scale(1) is x and x.shift(0) is x
        for beta in (1, Fraction(-1, 2)):
            shifted = x.shift(beta)
            assert shifted.den is x.den
            assert (shifted is x) == (x.num.s in (None, (0, 1, 0, 1)))


def test_q_factorial_denominator_is_the_product_of_its_factors():
    from qtoda.opalg import _q_factorial_den

    want = QPowerSum.one()
    for n in range(13):
        if n:
            want = want * (QPowerSum.one() + QPowerSum.monomial(n, coef=-1))
        got = _q_factorial_den(n)
        assert (got.s, got.part) == (want.s, want.part), n
        assert_canonical(got)
