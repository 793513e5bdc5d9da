"""Field arithmetic: construction, shift, evaluation, axioms."""

import random
from fractions import Fraction

import pytest

from qtoda.errors import DenominatorVanishes
from qtoda.qfield import (
    E_ZERO,
    PRECISION_BITS,
    ExponentPoly,
    QFieldElem,
    QPowerSum,
    qpow,
)


def rho_like(k):
    """1 / (q^(k/2) - q^(-k/2)) built from raw parts."""
    half = Fraction(k, 2)
    den = QPowerSum.monomial(ExponentPoly.const(half)) + QPowerSum.monomial(
        ExponentPoly.const(-half), Fraction(-1)
    )
    return QFieldElem(QPowerSum.one(), den)


def test_qpow_identity_cases():
    assert qpow(E_ZERO).is_one()
    qs = qpow(ExponentPoly.of(c1=1))
    assert (qs * qpow(ExponentPoly.of(c1=-1))).is_one()


def test_qpow_quadratic_exponent_expansion():
    # (tau+1)(s-1/2)^2/2 at tau = 1 is s^2 - s + 1/4
    E = ExponentPoly.of(c0=Fraction(1, 4), c1=-1, c2=1)
    assert qpow(E) == qpow(E_ZERO) * qpow(E)  # sanity: one multiplication
    assert str(E) == "s^2-s+1/4"


def test_shift_s_examples():
    qs = qpow(ExponentPoly.of(c1=1))
    assert qs.shift(1) == qpow(ExponentPoly.const(1)) * qs
    assert QFieldElem.one().shift(Fraction(1, 2)).is_one()
    sq = qpow(ExponentPoly.of(c2=1))
    assert sq.shift(1) == qpow(ExponentPoly.of(c0=1, c1=2, c2=1))


def test_shift_s_additivity():
    x = rho_like(1) + qpow(ExponentPoly.of(c0=Fraction(1, 3), c1=2, c2=Fraction(1, 2)))
    a, b = Fraction(2, 3), Fraction(-1, 5)
    assert x.shift(a).shift(b) == x.shift(a + b)


def test_eval_examples():
    from mpmath import mp

    with mp.workprec(160):
        assert abs(rho_like(1).eval(Fraction(1, 4), 0) + mp.mpf(2) / 3) < 1e-30
        qs = qpow(ExponentPoly.of(c1=1))
        assert abs(qs.eval(Fraction(1, 2), 3) - Fraction(1, 8)) < 1e-30
        geom = QFieldElem(
            QPowerSum.one(),
            QPowerSum.one() + QPowerSum.monomial(ExponentPoly.const(1), Fraction(-1)),
        )
        assert abs(geom.eval(Fraction(1, 2), 17) - 2) < 1e-30


def test_eval_certifies_denominator():
    # q^s - q^s has a vanishing denominator when used as one
    den = QPowerSum.monomial(ExponentPoly.const(1)) + QPowerSum.monomial(
        ExponentPoly.const(1), Fraction(-1)
    )
    with pytest.raises(ZeroDivisionError):
        QFieldElem(QPowerSum.one(), den)
    # denominator that vanishes at the evaluation point only
    near = QPowerSum.monomial(ExponentPoly.const(1)) + QPowerSum.monomial(
        E_ZERO, Fraction(-1, 2)
    )
    elem = QFieldElem(QPowerSum.one(), near)
    with pytest.raises(DenominatorVanishes):
        elem.eval(Fraction(1, 2), 0)


def random_elem(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        expo = ExponentPoly.of(
            c0=Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])),
            c1=Fraction(rng.randint(-2, 2), rng.choice([1, 2])),
            c2=Fraction(rng.randint(-1, 1)),
        )
        terms.append((expo, Fraction(rng.randint(-3, 3) or 1)))
    num = QPowerSum(terms)
    den_terms = []
    for _ in range(rng.randint(1, 2)):
        expo = ExponentPoly.of(c0=Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
        den_terms.append((expo, Fraction(rng.randint(1, 3))))
    den = QPowerSum(den_terms)
    if num.is_zero():
        num = QPowerSum.one()
    if den.is_zero():
        den = QPowerSum.one()
    return QFieldElem(num, den)


def test_field_axioms_random():
    rng = random.Random(20240819)
    for _ in range(40):
        a, b, c = (random_elem(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        if not a.is_zero():
            assert (a * a.inv()).is_one()
            assert (a.inv().inv()) == a


def test_eval_precision_argument():
    from mpmath import mp

    x = rho_like(1)  # -2/3 at q = 1/4
    with mp.workprec(400):  # compare at more bits than either evaluation
        err_default = abs(x.eval(Fraction(1, 4), 0) + mp.mpf(2) / 3)
        err_256 = abs(x.eval(Fraction(1, 4), 0, prec=256) + mp.mpf(2) / 3)
        assert x.eval(Fraction(1, 4), 0) == x.eval(Fraction(1, 4), 0, prec=PRECISION_BITS)
    assert 0 < err_default < mp.mpf(2) ** -(PRECISION_BITS - 2)
    assert err_256 < mp.mpf(2) ** -254 < err_default
    width = x.eval_interval(Fraction(1, 4), 0, prec=256).delta
    assert 0 < width < mp.mpf(2) ** -240


def test_eval_is_homomorphism():
    from mpmath import mp

    rng = random.Random(7)
    q, s = Fraction(1, 3), Fraction(2)
    with mp.workprec(160):  # combine values at full precision
        for _ in range(15):
            a, b = random_elem(rng), random_elem(rng)
            try:
                va, vb = a.eval(q, s), b.eval(q, s)
                assert abs((a * b).eval(q, s) - va * vb) < 1e-25
                assert abs((a + b).eval(q, s) - (va + vb)) < 1e-25
            except (DenominatorVanishes, ZeroDivisionError):
                continue


def test_invert_q_involution():
    rng = random.Random(5)
    for _ in range(10):
        a = random_elem(rng)
        assert a.invert_q().invert_q() == a


def test_canonical_text_form():
    x = qpow(ExponentPoly.of(c0=Fraction(1, 2), c1=-1), Fraction(3, 2))
    assert str(x) == "3/2*q^(-s+1/2)"
    y = QFieldElem(
        QPowerSum.one() + QPowerSum.monomial(ExponentPoly.const(1), Fraction(-1)),
        QPowerSum.one(),
    )
    assert str(y) == "-q^(1) + 1"


def test_grouped_sum_matches_fold():
    rng = random.Random(11)
    xs = [random_elem(rng) for _ in range(8)]
    folded = QFieldElem.zero()
    for x in xs:
        folded = folded + x
    assert QFieldElem.sum(xs) == folded


def test_power_sums_form_integral_domain():
    # ordered exponent group: the product of nonzero elements is nonzero
    rng = random.Random(23)
    for _ in range(30):
        a, b = random_elem(rng), random_elem(rng)
        if a.num.is_zero() or b.num.is_zero():
            continue
        assert not (a.num * b.num).is_zero()


