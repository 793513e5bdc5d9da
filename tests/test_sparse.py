"""The sparse-polynomial core behind SitePoly and PowerSumPoly, and the
QPowerSum text form and ring operations, which its own integer core
computes, sharing no code with SparsePoly.

The golden strings pin the documented str() contract and the ring
operations: each pair is str(x) and str(x * y - z) for seeded random x, y, z,
as printed before the three classes shared one implementation (the QPowerSum
pairs, of graded operands, as printed by the core that held a dict of
s-parts).

The one-pass n-ary `sum` is checked against the left fold of `+`, and DiffOp
products over SitePoly coefficients, whose terms it sums, are pinned by a
digest of their text.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from qtoda.opalg import DiffOp, SitePoly
from qtoda.qfield import QPowerSum
from qtoda.schur import PowerSumPoly

SEED = 20261017


def _coef(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(1)
    if kind == 1:
        return Fraction(-1)
    return Fraction(rng.choice([-7, -3, -2, 2, 3, 5]), rng.choice([1, 2, 3, 4]))


def random_qpowersum(rng, c1):
    """Up to four terms of the s-part c1*s, some at c0 = 0."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        c0 = 0 if rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        terms.append((c0, c1, 0, _coef(rng)))
    return QPowerSum(terms)


def random_qpowersum_case(rng):
    """x, y, z graded as the coefficients of the construction are: x and y
    of the s-part lam*s, z of 2*lam*s, so that x * y - z has one s-part."""
    lam = rng.choice([0, 0, 1, -1, Fraction(1, 2)])
    return random_qpowersum(rng, lam), random_qpowersum(rng, lam), random_qpowersum(rng, 2 * lam)


def three_of(gen):
    """A test case of three independent draws of `gen`."""
    return lambda rng: (gen(rng), gen(rng), gen(rng))


def random_sitepoly(rng):
    """Offsets on grids 1, 2 and 5, given to the constructor as Fractions."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        n = rng.choice([0, 1, 1, 2, 3])
        mono = tuple(
            sorted(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 5])) for _ in range(n))
        )
        terms[mono] = _coef(rng)
    return SitePoly(terms)


def random_powersumpoly(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        n = rng.choice([0, 1, 2, 3])
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        if mono:
            mono = mono[:-1] + (mono[-1] or 1,)
        coeffs[mono] = _coef(rng)
    return PowerSumPoly(coeffs)


GOLDEN_QPOWERSUM = [
    ('q^(s+5)',
     'q^(2*s+13/2) - q^(2*s+5) - 3/2*q^(2*s) + q^(2*s-5/2)'),
    ('1/2',
     '-7/4*q^(1/2) + 25/12 - 1/2*q^(-1)'),
    ('1 + 2/3*q^(-5/2)',
     '3*q^(2/3) - 2 + 2*q^(-11/6) + 2/3*q^(-5/2) - 8*q^(-3) - 16/3*q^(-11/2)'),
    ('1',
     '-q^(2) - 9/4*q^(1) - 3/2'),
    ('-q^(-s+1) - 4/3*q^(-s)',
     '-3/4*q^(-2*s+4) + 3/2*q^(-2*s+5/2) + 2*q^(-2*s+3/2) - 5*q^(-2*s+2/3) - 5/4*q^(-2*s)'),
    ('q^(1) + 7/6 + q^(-1)',
     '1/2*q^(3/2) - 7/12*q^(1/2) - 1/2*q^(-1/2) + 5/4*q^(-1) + 59/24*q^(-2) + 5/4*q^(-3)'),
]

GOLDEN_SITEPOLY = [
    ('-3 + 3/2*u(s+4/5)*u(s+4/5) + u(s+4/5)*u(s+2)',
     '9 - 3*u(s-1) + 3/2*u(s-1)*u(s+4/5)*u(s+4/5) + u(s-1)*u(s+4/5)*u(s+2) - 1/2*u(s+1/2) - 9/2*u(s+4/5)*u(s+4/5) - 3*u(s+4/5)*u(s+2)'),
    ('-u(s-3)*u(s) + 2/3*u(s)',
     '3*u(s-3)*u(s-2)*u(s)*u(s+3/2) + u(s-3)*u(s)*u(s)*u(s+2) + 7/2*u(s-3)*u(s)*u(s+2/5) - 2*u(s-2)*u(s)*u(s+3/2) + 3*u(s-1)*u(s-3/5) - 2/3*u(s)*u(s)*u(s+2) - 7/3*u(s)*u(s+2/5)'),
    ('u(s-2)*u(s-3/5)*u(s+3) + 3*u(s+3/5)',
     '1 + u(s-2)*u(s-3/5)*u(s)*u(s+3) + 3*u(s)*u(s+3/5)'),
    ('1',
     '3/2 - 1/2*u(s)*u(s+2) + 5*u(s+2/5) - 5/3*u(s+4)'),
    ('2*u(s)*u(s+4/5)*u(s+3)',
     '2/3*u(s-3)*u(s+2) + 2*u(s-1/2)*u(s-1/5)*u(s)*u(s+4/5)*u(s+3) - 3*u(s-2/5)*u(s+1/5) + 10/3*u(s)*u(s+4/5)*u(s+3) - 1/2*u(s+1/2)*u(s+3/5)*u(s+1)'),
    ('2/3 + 3*u(s-2)*u(s+1) + 3/4*u(s+3/5)',
     '3/4 + 15/4*u(s-2)*u(s)*u(s+3/5)*u(s+1) - 9/4*u(s-2)*u(s+2/5)*u(s+1)*u(s+3/2) - 1/2*u(s-1)*u(s)*u(s+2/5) + 5/6*u(s)*u(s+3/5) + 15/16*u(s)*u(s+3/5)*u(s+3/5) - 9/16*u(s+2/5)*u(s+3/5)*u(s+3/2) - 1/2*u(s+2/5)*u(s+3/2)'),
]

GOLDEN_POWERSUMPOLY = [
    ('3/2*p1^2*p2^2*p3^2 + p1^2*p2*p3^2 - 3',
     '3/2*p1^4*p2^2*p3^2 - 3/4*p1^3*p2^2*p3^2 + p1^4*p2*p3^2 - 1/2*p1^3*p2*p3^2 - 1/2*p1*p2 - 3*p1^2 + 13/6*p1'),
    ('-7/2*p1*p2 + 1/2*p1^2 + 5/4*p2 + 5/3',
     'p2^2*p3 + 49/6*p1^3*p2 + 3*p2*p3 - 7/6*p1^4 - 35/12*p1^2*p2 - p1*p3 - 8/9*p1^2'),
    ('p1^2*p2^2 - p1^2*p3 + p1 + 1',
     '2/3*p1^3*p2^3*p3 - 2/3*p1^3*p2*p3^2 + 2/3*p1^2*p2*p3 + 2/3*p1*p2*p3 - 5*p1*p2^2 + p1 - 5/2'),
    ('-3/2*p1^2*p2^2*p3 + p1*p3 + p2^2 - 7/3',
     '-9/8*p1^3*p2^4*p3^2 + 3/4*p1^2*p2^2*p3^2 + 3/4*p1*p2^4*p3 - 3/2*p1^2*p2^2*p3 - 7/4*p1*p2^2*p3 + p1*p3 + p2^2 - 5/3'),
    ('3/4*p1*p2^2 + p1^2*p2 - p1*p3',
     '3/8*p1^3*p2^4*p3 + 1/2*p1^4*p2^3*p3 - 1/2*p1^3*p2^2*p3^2 + 3/4*p1^2*p2^2*p3^2 + p1*p2^2*p3^2 - 21/16*p1^2*p2^2*p3 + 15/8*p1*p2^4 - 7/4*p1^3*p2*p3 + 1/4*p1^2*p2^3 + 7/4*p1^2*p3^2 - 5/2*p1*p2^2*p3 - 3*p1^3*p2^2 + 3*p1^2*p2*p3'),
    ('2*p1*p2^2*p3 + 2/3*p2*p3 - 2*p1^2*p2 + p1',
     '6*p1^3*p2^3*p3^2 + 2*p1^2*p2^2*p3^2 - 6*p1^4*p2^2*p3 + 3*p1^3*p2*p3 - 2*p1*p2^2*p3 - 2/3*p2*p3 + 2*p1^2*p2 - 5/3*p1^2 - 3*p1'),
]


GENERATORS = {
    "qpowersum": (random_qpowersum_case, GOLDEN_QPOWERSUM),
    "sitepoly": (three_of(random_sitepoly), GOLDEN_SITEPOLY),
    "powersumpoly": (three_of(random_powersumpoly), GOLDEN_POWERSUMPOLY),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_golden_str(name):
    gen, golden = GENERATORS[name]
    rng = random.Random(SEED)
    got = []
    for _ in golden:
        x, y, z = gen(rng)
        got.append((str(x), str(x * y - z)))
    assert got == golden
    assert repr(x) == f"{type(x).__name__}({x})"


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_golden_strings_cover_the_formatting_cases(name):
    """The goldens exercise coefficients +-1, fractions, a negative leading
    coefficient and the constant term, so each branch of str() is pinned."""
    texts = [t for pair in GENERATORS[name][1] for t in pair]
    terms = [term for t in texts for term in t.replace(" - ", " + -").split(" + ")]
    assert any(t.startswith("-") for t in texts)
    assert any(term[0].isalpha() for term in terms)
    assert any(term[0] == "-" and term[1].isalpha() for term in terms)
    assert any("/" in term.split("*")[0] for term in terms)
    assert any(term.lstrip("-").replace("/", "").isdigit() for term in terms)


def _terms(x):
    """(monomial, coefficient) pairs as the constructor takes them: a
    SitePoly's rational offsets through terms(), else the stored terms."""
    return x.terms() if isinstance(x, SitePoly) else x.coeffs.items()


def _reference_product(x, y, mono_mul):
    """The schoolbook product, term by term, through the accumulating constructor."""
    return type(x)(
        (mono_mul(m1, m2), c1 * c2)
        for m1, c1 in _terms(x)
        for m2, c2 in _terms(y)
    )


def _merge(m1, m2):
    return tuple(sorted(m1 + m2))


def _add_exponents(m1, m2):
    n = max(len(m1), len(m2))
    out = [a + b for a, b in zip(m1 + (0,) * (n - len(m1)), m2 + (0,) * (n - len(m2)))]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


RINGS = {
    "sitepoly": (random_sitepoly, _merge),
    "powersumpoly": (random_powersumpoly, _add_exponents),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_laws_random(name):
    gen, mono_mul = RINGS[name]
    rng = random.Random(SEED + 1)
    for _ in range(40):
        x, y, z = gen(rng), gen(rng), gen(rng)
        assert x * y == y * x
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - y == x + (-y)
        diff = x - x
        assert diff.is_zero() and diff.coeffs == {} and str(diff) == "0"
        assert x * type(x).one() == x and x * type(x).zero() == type(x).zero()
        assert x * y == _reference_product(x, y, mono_mul)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_one_term_shortcut_matches_general_product(name):
    gen, mono_mul = RINGS[name]
    rng = random.Random(SEED + 2)
    for _ in range(40):
        x, y = gen(rng), gen(rng)
        terms = list(_terms(y))
        # +1 passes coefficients through and -1 negates them on a non-unit monomial
        terms += [(m, Fraction(sign)) for m, _ in terms if m for sign in (1, -1)]
        for m, c in terms:
            single = type(y)({m: c})
            assert len(single) == 1
            assert x * single == _reference_product(x, single, mono_mul)
            assert single * x == _reference_product(single, x, mono_mul)
            product = dict(_terms(x * single))
            assert product == {mono_mul(k, m): v * c for k, v in _terms(x)}
            assert all(type(v) is Fraction for v in product.values())


def test_classes_do_not_compare_equal_across_rings():
    assert SitePoly.zero() != PowerSumPoly.zero()
    assert SitePoly.one() != PowerSumPoly.one()
    assert QPowerSum.one() != PowerSumPoly.one()


# -- SitePoly against a plain Fraction-offset reference -----------------------
#
# A reference polynomial is a dict {sorted tuple of Fraction offsets:
# nonzero Fraction}, read from SitePoly.terms() and computed on directly.


def _ref_clean(acc):
    return {m: c for m, c in acc.items() if c}


def _ref_add(x, y, sign=1):
    acc = dict(x)
    for m, c in y.items():
        acc[m] = acc.get(m, 0) + sign * c
    return _ref_clean(acc)


def _ref_mul(x, y):
    acc = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = tuple(sorted(m1 + m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return _ref_clean(acc)


def _ref_str(x):
    """str() rebuilt from terms() alone, in ascending monomial order."""
    chunks = []
    for mono, c in sorted(x.terms()):
        mono_text = "*".join(f"u(s{'+' if r > 0 else ''}{r})" if r else "u(s)" for r in mono)
        if not mono:
            text = str(c)
        else:
            text = {1: mono_text, -1: "-" + mono_text}.get(c, f"{c}*{mono_text}")
        if chunks:
            text = " - " + text[1:] if text[0] == "-" else " + " + text
        chunks.append(text)
    return "".join(chunks) or "0"


def _sitepoly_on_grid(rng, grid):
    """A random SitePoly whose offsets are multiples of 1/grid."""
    terms = []
    for _ in range(rng.randint(0, 5)):
        mono = tuple(Fraction(rng.randint(-3 * grid, 3 * grid), grid)
                     for _ in range(rng.choice([0, 1, 1, 2, 3])))
        terms.append((mono, _coef(rng)))
    return SitePoly(terms)


def test_sitepoly_matches_a_fraction_offset_reference():
    rng = random.Random(SEED + 3)
    mixed = 0
    for _ in range(300):
        gx, gy = rng.choice([1, 2, 5]), rng.choice([1, 2, 5])
        x, y = _sitepoly_on_grid(rng, gx), _sitepoly_on_grid(rng, gy)
        mixed += x.grid != y.grid
        rx, ry = dict(x.terms()), dict(y.terms())
        assert all(list(m) == sorted(m) for m in rx)
        assert dict((x + y).terms()) == _ref_add(rx, ry)
        assert dict((x - y).terms()) == _ref_add(rx, ry, -1)
        assert dict((-x).terms()) == _ref_add({}, rx, -1)
        assert dict((x * y).terms()) == _ref_mul(rx, ry)
        r = _coef(rng) if rng.random() < 0.9 else Fraction(0)
        assert dict(x.scale(r).terms()) == _ref_clean({m: c * r for m, c in rx.items()})
        # a shift by a multiple of 1/grid keeps the grid, any other refines it
        beta = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))
        shifted = x.shift(beta)
        assert dict(shifted.terms()) == {tuple(o + beta for o in m): c for m, c in rx.items()}
        assert shifted.grid == (x.grid if beta * x.grid == int(beta * x.grid)
                                else math.lcm(x.grid, beta.denominator))
        # equality is polynomial equality across grids
        assert (x == y) == (rx == ry)
        there_and_back = x.shift(Fraction(1, 3)).shift(Fraction(-1, 3))
        assert there_and_back.grid != x.grid and there_and_back == x
        assert (x + y) == SitePoly(_ref_add(rx, ry)) and (x * y) == SitePoly(_ref_mul(rx, ry))
        for z in (x, y, x + y, x * y, shifted):
            assert str(z) == _ref_str(z)
    assert mixed > 100


def test_sitepoly_reference_sees_a_damaged_coefficient():
    # negative control: one coefficient off by 1/7 is seen by the reference,
    # by ==, and by the text form
    rng = random.Random(SEED + 4)
    x, y = _sitepoly_on_grid(rng, 2), _sitepoly_on_grid(rng, 5)
    while x.is_zero() or y.is_zero():
        x, y = _sitepoly_on_grid(rng, 2), _sitepoly_on_grid(rng, 5)
    product = dict((x * y).terms())
    mono = max(product)
    damaged = SitePoly({**product, mono: product[mono] + Fraction(1, 7)})
    assert dict(damaged.terms()) != _ref_mul(dict(x.terms()), dict(y.terms()))
    assert damaged != x * y and str(damaged) != str(x * y)


# -- the one-pass sum ---------------------------------------------------------


def _with_zeros(rng, cls, gen):
    """Zero to five draws of gen, about a fifth of them made zero (a SitePoly
    zero keeps the grid of its draw)."""
    return [gen(rng) * (cls.one() if rng.random() < 0.8 else cls.zero())
            for _ in range(rng.randint(0, 5))]


def _fold(cls, xs):
    total = cls.zero()
    for x in xs:
        total = total + x
    return total


SUM_CASES = {
    "sitepoly": (SitePoly, lambda rng: _sitepoly_on_grid(rng, rng.choice([1, 2, 3, 5]))),
    "powersumpoly": (PowerSumPoly, random_powersumpoly),
}


@pytest.mark.parametrize("name", sorted(SUM_CASES))
def test_sum_equals_the_left_fold_of_add(name):
    cls, gen = SUM_CASES[name]
    rng = random.Random(SEED + 5)
    mixed = zeros = 0
    for _ in range(200):
        xs = _with_zeros(rng, cls, gen)
        got, folded = cls.sum(xs), _fold(cls, xs)
        assert type(got) is cls and got == folded and str(got) == str(folded)
        assert cls.sum(iter(xs)) == folded
        mixed += len({x.grid for x in xs}) > 1 if cls is SitePoly else 0
        zeros += any(x.is_zero() for x in xs)
    assert zeros > 20 and (cls is not SitePoly or mixed > 50)


@pytest.mark.parametrize("name", sorted(SUM_CASES))
def test_sum_returns_a_lone_nonzero_operand_itself_and_zero_for_none(name):
    cls, gen = SUM_CASES[name]
    rng = random.Random(SEED + 6)
    x = gen(rng)
    while x.is_zero():
        x = gen(rng)
    assert cls.sum([x]) is x
    assert cls.sum([cls.zero(), x, cls.zero()]) is x
    assert (x + cls.zero()) is x and (cls.zero() + x) is x and (x - cls.zero()) is x
    for empty in ([], [cls.zero()], [x, -x]):
        total = cls.sum(empty)
        assert type(total) is cls and total.is_zero() and total == cls.zero()


def _sitepoly_op(rng):
    """An exact or one-side truncated operator of step 1/2 with SitePoly coefficients."""
    coeffs = {n: _sitepoly_on_grid(rng, rng.choice([1, 2, 5])) for n in rng.sample(range(-3, 4), 3)}
    side = rng.choice(["exact", "floor", "ceil"])
    return DiffOp(Fraction(1, 2), coeffs, floor=-3 if side == "floor" else None,
                  ceil=3 if side == "ceil" else None)


# sha256 of the repr() lines of the seeded products below, as computed when
# DiffOp summed SitePoly product terms by a left fold of +
SITEPOLY_PRODUCTS_SHA256 = "02aa25125161e570ba573a8929a987b2f83d7a159cf612d4ff02ed1edb9e39fe"


def test_diffop_products_over_sitepoly_coefficients_are_pinned():
    rng = random.Random(SEED + 7)
    lines = []
    for _ in range(40):
        a, b = _sitepoly_op(rng), _sitepoly_op(rng)
        (a_lo, a_hi), (b_lo, b_hi) = a.window(), b.window()
        if a_lo is not None and b_hi is not None or a_hi is not None and b_lo is not None:
            continue  # opposite truncations have no product window
        lines.append(repr(a * b))
    assert len(lines) > 20
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == SITEPOLY_PRODUCTS_SHA256
