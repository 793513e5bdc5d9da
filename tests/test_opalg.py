"""Difference-operator algebra, factorization route, tau-quotient route."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from qtoda.errors import (
    IncompatibleStep,
    NonCoprime,
    NonInvertibleLeading,
    InvalidTau,
    TruncationInsufficient,
)
from qtoda import opalg, qfield, suites
from qtoda.cli import main
from qtoda.opalg import (
    DiffOp,
    LaxSession,
    SessionParams,
    SitePoly,
    _gauge_exponent,
    check_LM_relation,
    complete_geometric,
    conjugated_series,
    cross_check_initial,
    dressing_from_tau,
    expected_initial_lax,
    initial_M,
    initial_lax,
    monomial_pow,
    op_inverse,
)
from qtoda.errors import RelationViolated
from qtoda.partitions import Partition
from qtoda.qfield import QFieldElem, QPowerSum, qpow
from qtoda.schur import PowerSumRing, Specialization, specialize_rho
from qtoda.suites import laxcheck_suite
from qtoda.vertex import TauTable, VertexContext, tau_table
from qfield_oracle import evaluate
from test_qfield import shift_by_key

ONE = QFieldElem.one()
QS = qpow(c1=1)  # q^s


def signed_elementary(n: int) -> QFieldElem:
    """(-1)^n e_n of the alphabet {q^(1/2), q^(3/2), ...}, from its h_n:
    e_n = q^(n(n-1)/2) h_n."""
    return (complete_geometric(n) * qpow(Fraction(n * (n - 1), 2))).scale((-1) ** n)


def test_defining_relation():
    # Lam^d  u(s) Lam^-d  =  u(s+d)
    d = Fraction(1, 3)
    lam = DiffOp.monomial(d, 1, ONE)
    u = DiffOp.monomial(d, -1, QS)
    prod = lam * u
    assert prod.indices() == [0]
    assert prod.coeff(0) == QS.shift(d)


def test_identity_neutral():
    ident = DiffOp.monomial(Fraction(1, 2), 0, ONE)
    a = DiffOp(Fraction(1, 2), {1: ONE, -1: -QS})
    assert (a * ident - a).is_zero_on_window()
    assert (ident * a - a).is_zero_on_window()


def test_symbolic_square():
    # (Lam^(1/2) - u Lam^(-1/2))^2, the derived expansion
    u = SitePoly.u(0)
    lax = DiffOp(Fraction(1, 2), {1: SitePoly.one(), -1: -u})
    sq = lax * lax
    assert sq.coeff(2) == SitePoly.one()
    assert sq.coeff(0) == -(SitePoly.u(Fraction(1, 2)) + SitePoly.u(0))
    assert sq.coeff(-2) == SitePoly.u(0) * SitePoly.u(Fraction(-1, 2))
    assert sq.coeff(1).is_zero() and sq.coeff(-1).is_zero()


# The random operators are graded as those of the construction are: the
# coefficient at index n has the s-part lam*n*s, with one lam per test case
# shared by all its operands, so products and shifts stay within one s-part.
LAMBDAS = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def random_triangular(rng, lam, step=Fraction(1), nterms=4):
    coeffs = {0: ONE}
    for n in range(1, nterms):
        c0 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        coeffs[-n] = qpow(c0=c0, c1=-lam * n, coef=rng.choice([1, -1]))
    return DiffOp(step, coeffs, floor=-(nterms - 1), ceil=None)


def test_associativity_random():
    rng = random.Random(3)
    for _ in range(6):
        lam = rng.choice(LAMBDAS)
        a = random_triangular(rng, lam, nterms=3)
        b = random_triangular(rng, lam, nterms=3)
        c = random_triangular(rng, lam, nterms=3)
        assert ((a * b) * c - a * (b * c)).is_zero_on_window()


def test_inverse_of_identity():
    ident = DiffOp.monomial(Fraction(1), 0, ONE)
    inv = op_inverse(ident, -3)
    assert inv.indices() == [0] and inv.coeff(0).is_one() and inv.is_exact()


def test_inverse_geometric_series():
    x = qpow(c0=Fraction(1, 2))
    a = DiffOp(Fraction(1), {0: ONE, -1: -x})
    inv = op_inverse(a, -5)
    assert inv.coeff(0).is_one()
    assert inv.coeff(-1) == x
    assert inv.coeff(-2) == x * x.shift(-1)


def test_inverse_window_stops_at_operand_truncation():
    # the requested depth -5 lies below W0's own floor -4, so -4 is certified
    w0 = LaxSession(SessionParams(1, 1, 1, T=4)).w0
    assert op_inverse(w0, -5, side="top").window() == (-4, None)


def test_inverse_two_sided():
    rng = random.Random(9)
    for _ in range(5):
        a = random_triangular(rng, rng.choice(LAMBDAS), nterms=4)
        inv = op_inverse(a, -6)
        left = a * inv
        right = inv * a
        assert left.coeff(0).is_one() and right.coeff(0).is_one()
        assert all(c.is_zero() for n, c in left.coeffs.items() if n != 0)
        assert all(c.is_zero() for n, c in right.coeffs.items() if n != 0)


def test_inverse_pivot_errors():
    both = DiffOp(Fraction(1), {0: ONE, 1: QS, -1: QS}, floor=-1, ceil=1)
    with pytest.raises(NonInvertibleLeading):
        op_inverse(both, -3)
    # coefficient ring without inversion (undetermined lattice function)
    sym = DiffOp(Fraction(1), {0: SitePoly.u(0), -1: -SitePoly.one()})
    with pytest.raises(NonInvertibleLeading):
        op_inverse(sym, -3)
    # a ceiling-truncated series cannot pivot on its top power
    upper = DiffOp(Fraction(1), {0: ONE, 1: QS}, floor=None, ceil=1)
    with pytest.raises(NonInvertibleLeading):
        op_inverse(upper, -3, side="top")


def test_step_refinement():
    a = DiffOp(Fraction(1), {1: ONE, 0: QS})
    fine = a.with_step(Fraction(1, 3))
    assert fine.indices() == [0, 3]
    half = DiffOp.monomial(Fraction(1, 2), 1, ONE)
    # mixed steps are never refined implicitly: both operands must share one
    for combine in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(IncompatibleStep, match=r"steps 1/3 and 1/2 differ"):
            combine(fine, half)
    mixed = fine.with_step(Fraction(1, 6)) * half.with_step(Fraction(1, 6))
    assert mixed.step == Fraction(1, 6) and mixed.indices() == [3, 9]
    with pytest.raises(IncompatibleStep):
        fine.with_step(Fraction(1, 2))


def test_window_arithmetic_conservative():
    w = DiffOp(Fraction(1), {0: ONE, -1: QS, -2: QS}, floor=-2, ceil=None)
    v = DiffOp(Fraction(1), {0: ONE, -1: QS}, floor=-1, ceil=None)
    prod = w * v
    # unknown terms of v below -1 meet the top of w at 0: floor is -1+0
    assert prod.window() == (-1, None)
    exact = DiffOp(Fraction(1), {0: ONE, -1: QS})
    assert (exact * exact).window() == (None, None)
    with pytest.raises(TruncationInsufficient):
        prod.coeff(-2)


def test_projections_refuse_only_an_uncertified_part():
    # at floor 0 every nonnegative index is known, and at ceil -1 every
    # negative one; one step further in, the part is no longer certified
    full = {n: qpow(n) for n in range(-3, 4)}
    nonneg = DiffOp(Fraction(1), full, floor=0).proj_nonneg()
    assert nonneg.coeffs == {n: full[n] for n in range(0, 4)} and nonneg.window() == (None, None)
    neg = DiffOp(Fraction(1), full, ceil=-1).proj_neg()
    assert neg.coeffs == {n: full[n] for n in range(-3, 0)} and neg.window() == (None, None)
    with pytest.raises(TruncationInsufficient):
        DiffOp(Fraction(1), full, floor=1).proj_nonneg()
    with pytest.raises(TruncationInsufficient):
        DiffOp(Fraction(1), full, ceil=-2).proj_neg()


def triangular_to_depth(T, coeffs, top, lower, step):
    """Triangular operator from a fixed coefficient list, certified to depth T."""
    sign = -1 if lower else 1
    terms = {top + sign * n: coeffs[n] for n in range(T + 1)}
    edge = top + sign * T
    return DiffOp(step, terms, floor=edge if lower else None, ceil=None if lower else edge)


def test_window_soundness_random():
    # an operation on operators certified to depth T must agree, on every
    # index of its certified window, with the same operation at depth T+2,
    # and must refuse to report a coefficient just outside that window
    rng = random.Random(11)
    for trial in range(12):
        lower = trial % 2 == 0
        sign = -1 if lower else 1
        step, lam = rng.choice([Fraction(1), Fraction(1, 2)]), rng.choice(LAMBDAS)
        ops = []
        for _ in range(2):
            T = rng.randint(2, 4)
            top = rng.randint(-1, 1)
            pivot = Fraction(rng.randint(-2, 2), 2)
            coeffs = [qpow(pivot, lam * top, coef=rng.choice([1, -1]))]
            coeffs += [
                qpow(Fraction(rng.randint(-3, 3), rng.choice([1, 2])), lam * (top + sign * n),
                     coef=rng.choice([1, -1]))
                if rng.random() < 0.8 else QFieldElem.zero()
                for n in range(1, T + 3)
            ]
            ops.append((triangular_to_depth(T, coeffs, top, lower, step),
                        triangular_to_depth(T + 2, coeffs, top, lower, step)))
        (a, a2), (b, b2) = ops
        depth = -12 if lower else 12
        side = "top" if lower else "bot"
        for got, finer in (
            (a + b, a2 + b2),
            (a * b, a2 * b2),
            (op_inverse(a, depth, side=side), op_inverse(a2, depth, side=side)),
        ):
            lo, hi = got.window()
            assert (lo is None) != (hi is None)
            known = list(got.coeffs) + list(finer.coeffs) + [lo if lower else hi]
            span = range(lo, max(known) + 1) if lower else range(min(known), hi + 1)
            for n in span:
                assert got.coeff(n) == finer.coeff(n), (trial, n)
            with pytest.raises(TruncationInsufficient):
                got.coeff(lo - 1 if lower else hi + 1)


def _random_full(rng, step, lam):
    """Exact operator with nonzero rational q-monomial coefficients on [lo, hi],
    the one at index n of s-part lam*n*s."""
    lo = rng.randint(-4, 1)
    hi = lo + rng.randint(0, 5)
    coeffs = {
        n: qpow(Fraction(rng.randint(-3, 3), 2), lam * n,
                coef=Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)))
        for n in range(lo, hi + 1)
    }
    return DiffOp(step, coeffs)


def _random_truncation(rng, full):
    """`full` with each side, independently, exact or truncated so that at
    least one nonzero term is discarded."""
    lo, hi = min(full.coeffs), max(full.coeffs)
    floor = rng.randint(lo + 1, hi) if hi > lo and rng.random() < 0.5 else None
    start = lo if floor is None else floor
    ceil = rng.randint(start, hi - 1) if hi > start and rng.random() < 0.5 else None
    return DiffOp(full.step, full.coeffs, floor, ceil)


def _opposite_truncations(a: DiffOp, b: DiffOp) -> bool:
    """Whether one operand is truncated below and the other above."""
    (a_lo, a_hi), (b_lo, b_hi) = a.window(), b.window()
    return (a_lo is not None and b_hi is not None) or (a_hi is not None and b_lo is not None)


def _first_disagreement(got: DiffOp, exact: DiffOp, lo: int, hi: int):
    return next((n for n in range(lo, hi + 1) if got.coeff(n) != exact.coeff(n)), None)


def test_product_window_never_certifies_a_discarded_term():
    # opalg's central claim: on the certified window of a product of
    # truncations, every coefficient equals that of the product of the
    # untruncated operators; opposite truncations raise.  Negative control:
    # the same product summed one index past a truncated edge disagrees.
    rng = random.Random(20)
    raised = products = widened = 0
    for trial in range(300):
        step, lam = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3)]), rng.choice(LAMBDAS)
        full_a, full_b = _random_full(rng, step, lam), _random_full(rng, step, lam)
        a, b = _random_truncation(rng, full_a), _random_truncation(rng, full_b)
        if _opposite_truncations(a, b):
            with pytest.raises(TruncationInsufficient, match="opposite truncations"):
                a * b
            raised += 1
            continue
        got, exact = a * b, full_a * full_b
        products += 1
        known = list(exact.coeffs) + list(got.coeffs)
        floor, ceil = got.window()
        lo = floor if floor is not None else min(known) - 1
        hi = ceil if ceil is not None else max(known) + 1
        assert _first_disagreement(got, exact, lo, hi) is None, (trial, a, b)
        if lo > hi:
            continue
        # every term the truncations do hold, summed without a window
        unwindowed = DiffOp(step, a.coeffs) * DiffOp(step, b.coeffs)
        if floor is not None:
            widened += 1
            assert _first_disagreement(unwindowed, exact, lo - 1, hi) == lo - 1, (trial, a, b)
        if ceil is not None:
            widened += 1
            assert _first_disagreement(unwindowed, exact, lo, hi + 1) == hi + 1, (trial, a, b)
    assert raised > 20 and products > 150 and widened > 100, (raised, products, widened)


# -- the other window operations, each against the same operation on the
# untruncated operators: soundness (no certified coefficient differs) and
# tightness (a refusal, of one index or of the whole operation, needs an
# index of the requested range that is genuinely unknown: one on which two
# completions of the truncated operands give different results) -------------

STEPS = (Fraction(1), Fraction(1, 2), Fraction(1, 3))


def _completion(rng, full, cut, lam):
    """`full` (its terms lie in [-4, 6]) plus a nonzero term, of s-part
    lam*n*s at index n, at every index of [-8, 10] that `cut` discards: a
    second exact operator that `cut` truncates, differing from `full` on
    every discarded index that the checks below look at."""
    coeffs = dict(full.coeffs)
    lo, hi = cut.window()
    for n in range(-8, 11):
        if (lo is not None and n < lo) or (hi is not None and n > hi):
            extra = qpow(Fraction(rng.randint(-9, 9), 4), lam * n, coef=rng.randint(2, 9))
            coeffs[n] = coeffs[n] + extra if n in coeffs else extra
    return DiffOp(full.step, coeffs)


def _operand(rng, step, lam):
    """(truncated, untruncated, another completion of the truncated one)."""
    full = _random_full(rng, step, lam)
    cut = _random_truncation(rng, full)
    return cut, full, _completion(rng, full, cut, lam)


def _schoolbook(x, y):
    """The product of exact operators, term by term."""
    out = {}
    for n1, c1 in x.coeffs.items():
        for n2, c2 in y.coeffs.items():
            term = c1 * c2.shift(n1 * x.step)
            out[n1 + n2] = out[n1 + n2] + term if n1 + n2 in out else term
    return DiffOp(x.step, out, zero=QFieldElem.zero())


def _span(*ops):
    """The indices within two of every stored term and finite window edge."""
    keys = [n for op in ops for n in (*op.coeffs, *op.window()) if n is not None]
    return range(min(keys) - 2, max(keys) + 3)


def _check_claims(got, truth, other, indices, grid=1):
    """Soundness and tightness of `got` on `indices` (tightness only on
    multiples of `grid`); returns the number of refused indices."""
    refused = 0
    for n in indices:
        try:
            c = got.coeff(n)
        except TruncationInsufficient:
            refused += 1
            assert n % grid or truth.coeff(n) != other.coeff(n), f"refused a known index {n}"
        else:
            assert c == truth.coeff(n) == other.coeff(n), f"certified a wrong coefficient at {n}"
    return refused


def _differs_somewhere(truth, other, indices):
    return any(truth.coeff(n) != other.coeff(n) for n in indices)


def test_difference_window_is_sound_and_tight():
    rng = random.Random(21)
    refused = 0
    for _ in range(120):
        step, lam = rng.choice(STEPS), rng.choice(LAMBDAS)
        (a, fa, oa), (b, fb, ob) = _operand(rng, step, lam), _operand(rng, step, lam)

        def minus(x, y):
            return DiffOp(step, {n: x.coeff(n) - y.coeff(n) for n in {*x.coeffs, *y.coeffs}})

        def neg(x):
            return DiffOp(step, {n: -c for n, c in x.coeffs.items()})

        refused += _check_claims(a - b, minus(fa, fb), minus(oa, ob), _span(fa, fb, a - b))
        _check_claims(-a, neg(fa), neg(oa), _span(fa, -a))
    assert refused > 100


def test_pow_int_window_is_sound_and_tight():
    rng = random.Random(22)
    whole = refused = 0
    for _ in range(90):
        a, full, other = _operand(rng, rng.choice(STEPS), rng.choice(LAMBDAS))
        k = rng.randint(1, 3)
        truth, other_k = full, other
        for _ in range(k - 1):
            truth, other_k = _schoolbook(truth, full), _schoolbook(other_k, other)
        if k > 1 and None not in a.window():
            with pytest.raises(TruncationInsufficient):
                a.pow_int(k)
            assert _differs_somewhere(truth, other_k, _span(truth))
            whole += 1
            continue
        got = a.pow_int(k)
        refused += _check_claims(got, truth, other_k, _span(truth, got))
    assert whole > 5 and refused > 50, (whole, refused)


def test_with_step_window_is_sound_and_tight():
    # the indices strictly between two multiples of r are known zeros; the
    # window still refuses those just past its edges, so tightness is
    # checked on the multiples of r, the indices of the original grid
    rng = random.Random(23)
    refused = 0
    for _ in range(100):
        a, full, other = _operand(rng, rng.choice(STEPS), rng.choice(LAMBDAS))
        r = rng.choice([1, 2, 3])
        fine = a.step / r

        def refine(x):
            return DiffOp(fine, {n * r: c for n, c in x.coeffs.items()})

        got, truth = a.with_step(fine), refine(full)
        refused += _check_claims(got, truth, refine(other), _span(truth, got), grid=r)
    assert refused > 100


@pytest.mark.parametrize("method", ["with_floor", "with_ceil"])
def test_window_clamp_is_sound_and_tight(method):
    # only the indices on the requested side of the clamp are requested
    rng = random.Random(24)
    refused = 0
    for _ in range(100):
        a, full, other = _operand(rng, rng.choice(STEPS), rng.choice(LAMBDAS))
        edge = rng.randint(min(full.coeffs) - 2, max(full.coeffs) + 2)
        got = getattr(a, method)(edge)
        span = _span(full, got)
        requested = [n for n in span if (n >= edge if method == "with_floor" else n <= edge)]
        refused += _check_claims(got, full, other, requested)
        with pytest.raises(TruncationInsufficient):
            got.coeff(edge - 1 if method == "with_floor" else edge + 1)
    assert refused > 50


@pytest.mark.parametrize("method", ["proj_nonneg", "proj_neg"])
def test_projection_is_sound_and_tight(method):
    rng = random.Random(25)
    whole = refused = 0
    for _ in range(150):
        a, full, other = _operand(rng, rng.choice(STEPS), rng.choice(LAMBDAS))
        keep = (lambda n: n >= 0) if method == "proj_nonneg" else (lambda n: n < 0)

        def project(x):
            kept = {n: c for n, c in x.coeffs.items() if keep(n)}
            return DiffOp(x.step, kept, zero=QFieldElem.zero())

        truth, other_part = project(full), project(other)
        try:
            got = getattr(a, method)()
        except TruncationInsufficient:
            assert _differs_somewhere(truth, other_part, [n for n in _span(full) if keep(n)])
            whole += 1
            continue
        refused += _check_claims(got, truth, other_part, _span(full, got))
    assert whole > 10 and refused > 50, (whole, refused)


# -- the window rules as they were stated on None edges (None: that side is
# exactly known), kept as an oracle for the extended-integer edges that the
# algebra stores: every operation's window() must equal the oracle's ---------


def _max_opt(x, y):
    """The larger of two window edges, a None edge skipped."""
    return y if x is None else x if y is None else max(x, y)


def _min_opt(x, y):
    """The smaller of two window edges, a None edge skipped."""
    return y if x is None else x if y is None else min(x, y)


def _oracle_product_edge(a: DiffOp, b: DiffOp, lower: bool):
    edges = []
    for x, y in ((a, b), (b, a)):
        (x_lo, x_hi), (y_lo, y_hi) = x.window(), y.window()
        edge = x_lo if lower else x_hi
        if edge is None:
            continue
        if (y_hi if lower else y_lo) is not None:
            raise TruncationInsufficient("product of opposite truncations has no window")
        if y.coeffs:
            edges.append(edge + (max(y.coeffs) if lower else min(y.coeffs)))
    if not edges:
        return None
    return max(edges) if lower else min(edges)


def _oracle_product(a: DiffOp, b: DiffOp) -> DiffOp:
    """a * b summed term by term and cut to the oracle's window: the factor
    that the oracle's next power reads the stored indices of."""
    window = _oracle_product_edge(a, b, True), _oracle_product_edge(a, b, False)
    return DiffOp(a.step, _schoolbook(a, b).coeffs, *window)


def _oracle_window(name: str, a: DiffOp, b: DiffOp, r: int, edge: int) -> tuple:
    """The window of the operation `name` by the rules on None edges; raises
    TruncationInsufficient where they refuse the whole operation."""
    (a_lo, a_hi), (b_lo, b_hi) = a.window(), b.window()
    if name in ("a + b", "a - b"):
        return _max_opt(a_lo, b_lo), _min_opt(a_hi, b_hi)
    if name == "-a":
        return a_lo, a_hi
    if name == "a * b":
        return _oracle_product_edge(a, b, True), _oracle_product_edge(a, b, False)
    if name == "a.pow_int(r)":
        out = a
        for _ in range(r - 1):
            out = _oracle_product(out, a)
        return out.window()
    if name == "a.with_step(step / r)":
        return None if a_lo is None else a_lo * r, None if a_hi is None else a_hi * r
    if name == "a.proj_nonneg()":
        if a_lo is not None and a_lo > 0:
            raise TruncationInsufficient("nonnegative part not fully certified")
        return None, None if a_hi is None else max(a_hi, -1)
    if name == "a.proj_neg()":
        if a_hi is not None and a_hi < -1:
            raise TruncationInsufficient("negative part not fully certified")
        return None if a_lo is None else min(a_lo, 0), None
    if name == "a.with_floor(edge)":
        return _max_opt(a_lo, edge), a_hi
    assert name == "a.with_ceil(edge)"
    return a_lo, _min_opt(a_hi, edge)


WINDOW_OPERATIONS = {
    "a + b": lambda a, b, r, edge: a + b,
    "a - b": lambda a, b, r, edge: a - b,
    "-a": lambda a, b, r, edge: -a,
    "a * b": lambda a, b, r, edge: a * b,
    "a.pow_int(r)": lambda a, b, r, edge: a.pow_int(r),
    "a.with_step(step / r)": lambda a, b, r, edge: a.with_step(a.step / r),
    "a.proj_nonneg()": lambda a, b, r, edge: a.proj_nonneg(),
    "a.proj_neg()": lambda a, b, r, edge: a.proj_neg(),
    "a.with_floor(edge)": lambda a, b, r, edge: a.with_floor(edge),
    "a.with_ceil(edge)": lambda a, b, r, edge: a.with_ceil(edge),
}


def _oracle_outcome(*args):
    """The oracle's window, or "refused"."""
    try:
        return _oracle_window(*args)
    except TruncationInsufficient:
        return "refused"


@pytest.mark.parametrize("name", sorted(WINDOW_OPERATIONS))
def test_every_window_equals_the_rules_stated_on_none_edges(name):
    rng = random.Random(27)
    outcomes = Counter()
    for _ in range(150):
        step, lam = rng.choice(STEPS), rng.choice(LAMBDAS)
        a, b = _operand(rng, step, lam)[0], _operand(rng, step, lam)[0]
        r, edge = rng.randint(1, 3), rng.randint(-6, 8)
        args = a, b, r, edge
        expected = _oracle_outcome(name, *args)
        if expected == "refused":
            with pytest.raises(TruncationInsufficient):
                WINDOW_OPERATIONS[name](*args)
            outcomes["refused"] += 1
            continue
        got = WINDOW_OPERATIONS[name](*args)
        window = got.window()
        assert window == expected, (name, a, b, r, edge)
        assert all(e is None or type(e) is int for e in window), window  # no infinity
        assert got.is_exact() == (window == (None, None))
        outcomes["exact" if window == (None, None) else "truncated"] += 1
    assert outcomes["truncated"] > 20, outcomes


def _monomial_power(step, idx, coef, k):
    """(coef Lam^idx)^k from its shifted coefficients: their product for
    k > 0, the product of their inverses for k < 0."""
    out = ONE
    for j in range(k) if k > 0 else range(-1, k - 1, -1):
        c = coef.shift(j * idx * step)
        out = out * (c if k > 0 else c.inv())
    return DiffOp(step, {idx * k: out})


def test_monomial_pow_is_exact_and_refuses_a_truncated_operand():
    rng = random.Random(26)
    witnessed = 0
    for _ in range(60):
        step, lam = rng.choice(STEPS), rng.choice(LAMBDAS)
        full = _random_full(rng, step, lam)
        idx = rng.choice(sorted(full.coeffs))
        mono, k = DiffOp(step, {idx: full.coeffs[idx]}), rng.randint(-3, 3)
        got, expected = monomial_pow(mono, k), _monomial_power(step, idx, full.coeffs[idx], k)
        assert got.is_exact() and got.indices() == expected.indices() == [idx * k]
        assert got.coeff(idx * k) == expected.coeff(idx * k)
        if len(full.coeffs) > 1:
            with pytest.raises(ValueError):
                monomial_pow(full, k)
        lower = rng.random() < 0.5
        cut = DiffOp(step, mono.coeffs, floor=idx if lower else None, ceil=None if lower else idx)
        with pytest.raises(ValueError):
            monomial_pow(cut, k)
        if k > 0:  # the power of another completion differs: the refusal is needed
            other = _completion(rng, mono, cut, lam)
            other_k = other
            for _ in range(k - 1):
                other_k = _schoolbook(other_k, other)
            assert _differs_somewhere(expected, other_k, _span(expected, other_k))
            witnessed += 1
    assert witnessed > 15


def test_session_params_validation():
    with pytest.raises(NonCoprime):
        SessionParams(2, 4, 1)
    with pytest.raises(InvalidTau):
        SessionParams(1, 1, -1)
    with pytest.raises(InvalidTau):
        SessionParams(1, 2, -1)
    p = SessionParams(2, 3, 1)
    assert p.tau == Fraction(3, 2) and p.refinement == 5 and p.step == Fraction(1, 5)
    n = SessionParams(3, 2, -1)
    assert n.tau == Fraction(-2, 3) and n.refinement == 1
    assert n.down_index == 2 and n.up_index == 3


def test_factor_series_leading_coefficients():
    one = QFieldElem.one()
    series = conjugated_series(one, one, signed_elementary, True, 3)
    assert series.window() == (-3, None)
    geom_den = QPowerSum.one() + QPowerSum.monomial(1, coef=-1)
    expected = -QFieldElem(QPowerSum.monomial(Fraction(1, 2)), geom_den)
    assert series.coeff(-1) == expected
    assert series.coeff(0).is_one()
    assert signed_elementary(0).is_one()


def test_factor_series_matches_schur_column_values():
    """Independent route: e_n and h_n of the geometric alphabet, as the
    session's W0 and W0bar carry them inside their gauges, are the
    single-column / single-row Schur values at the reflected point."""
    ring = PowerSumRing(5)
    # the alphabet {q^(1/2), q^(3/2), ...} has p_k = q^(k/2)/(1-q^k), which is
    # exactly the reflected-point continuation value
    spec = Specialization(lambda k: -specialize_rho(k), 5)
    params = SessionParams(1, 2, 1, T=4)
    session = LaxSession(params)
    E1, E2 = _gauge_exponent(params.tau), _gauge_exponent(1 / params.tau)
    for n in range(1, 5):
        column = Partition((1,) * n)
        row = Partition((n,))
        e_n = (session.w0.coeff(-n) / (E1 * E1.inv().shift(-n))).scale((-1) ** n)
        h_n = session.wbar0.coeff(n) / (E1 * E2.shift(n))
        assert spec.evaluate(ring.schur(column)) == e_n
        assert spec.evaluate(ring.schur(row)) == h_n == complete_geometric(n)


@pytest.fixture(scope="module")
def params11():
    return SessionParams(1, 1, 1, T=4)


@pytest.mark.parametrize("T", [4, 8])
def test_build_path_identity(T):
    # the session's W0 and W0bar against the product q^left * (factor series) * q^right
    params = SessionParams(1, 2, 1, T=T)
    session = LaxSession(params)
    E1, E2 = _gauge_exponent(params.tau), _gauge_exponent(1 / params.tau)
    one = QFieldElem.one()
    for closed, left, right, coef, lower in (
        (session.w0, E1, E1.inv(), signed_elementary, True),
        (session.wbar0, E1, E2, complete_geometric, False),
    ):
        product = (
            DiffOp.monomial(Fraction(1), 0, left)
            * conjugated_series(one, one, coef, lower, T)
            * DiffOp.monomial(Fraction(1), 0, right)
        )
        assert closed.window() == product.window()
        assert (closed - product).is_zero_on_window()


def test_w0_leading_and_first_coefficient(params11):
    w0 = LaxSession(params11).w0
    assert w0.coeff(0).is_one()
    tau = params11.tau
    # gauge conjugation multiplies the n=1 coefficient by q^((tau+1)(s-1))
    gauge = qpow(c0=-(tau + 1), c1=tau + 1)
    assert w0.coeff(-1) == gauge * signed_elementary(1)


def test_initial_lax_closed_form(params11):
    lf, lb = initial_lax(LaxSession(params11))
    expected = expected_initial_lax(params11)
    assert (lf - expected).is_zero_on_window()
    assert (lb + expected).is_zero_on_window()
    # u-coefficient at tau=1, s=0 evaluates to q^(-3/2): 8 at q = (1/2)^2
    assert evaluate(-lf.coeff(params11.down_index), 0, Fraction(1, 2), 2) == 8


def test_initial_M_closed_forms(params11):
    qm0, qm0bar = initial_M(LaxSession(params11))
    tau = params11.tau
    assert qm0.coeff(0) == QS
    assert qm0.coeff(-1) == -qpow(c0=-tau - Fraction(3, 2), c1=tau + 2)
    assert qm0bar.coeff(0) == QS
    assert qm0bar.coeff(1) == -qpow(c0=Fraction(1, 2), c1=-tau)
    # nothing beyond the two closed-form terms
    assert qm0.indices() == [-1, 0] and qm0bar.indices() == [0, 1]


def test_lm_relation_passes(params11):
    rep = check_LM_relation(LaxSession(params11))
    assert rep["passed"], rep


def test_lm_relation_negative_control(params11):
    # damage one certified coefficient of L0^(1/(tau+1)); the check must locate it
    session = LaxSession(params11)
    lfrac, lbarfrac = session.lax
    bad = dict(lfrac.coeffs)
    bad[-5] = lfrac.coeff(-5) + qpow(Fraction(1))
    session.lax = (DiffOp(lfrac.step, bad, lfrac.floor, lfrac.ceil), lbarfrac)
    rep = check_LM_relation(session)
    assert not rep["passed"]
    failing = [c for c in rep["checks"] if not c["passed"]]
    assert failing and "offending coefficient" in failing[0]["detail"]


def test_lm_relation_negative_control_bar(params11):
    # the barred collapse is checked by multiplying q^(M0bar) back, so damage
    # to L0bar^(1/(tau+1)) must fail exactly that check, at the damaged power
    session = LaxSession(params11)
    lfrac, lbarfrac = session.lax
    bad = dict(lbarfrac.coeffs)
    bad[3] = lbarfrac.coeff(3) + qpow(Fraction(1))
    session.lax = (lfrac, DiffOp(lbarfrac.step, bad, lbarfrac.floor, lbarfrac.ceil))
    rep = check_LM_relation(session)
    failing = [c for c in rep["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["orlov_monomial_collapse_bar"]
    step = lbarfrac.step
    assert failing[0]["detail"].startswith(f"first offending coefficient at power {3 * step}: ")


@pytest.mark.parametrize(
    "a,b,sign", [(1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 1, -1), (3, 2, -1)]
)
def test_integer_grid_inverse_reindexes_to_refined_inverse(a, b, sign):
    # LaxSession builds the inverses of W0 and W0bar in closed form on the
    # integer grid and reindexes them; series inversion on the refined grid is
    # the reference, compared on every index of the common certified window
    params = SessionParams(a, b, sign, T=4)
    session = LaxSession(params)
    step, depth = params.step, (params.T + 1) * params.refinement
    for got, reference in (
        (session.w0_inv.with_step(step),
         op_inverse(session.w0.with_step(step), -depth, side="top")),
        (session.wbar0_inv.with_step(step),
         op_inverse(session.wbar0.with_step(step), depth, side="bot")),
    ):
        diff = got - reference
        lo, hi = diff.window()
        assert (lo is None) != (hi is None)
        span = range(lo, 1) if hi is None else range(0, hi + 1)
        assert len(span) > params.T * params.refinement
        for n in span:
            assert got.coeff(n) == reference.coeff(n), n


def damaged_h4(monkeypatch):
    # h_4 gains q^1: a wrong closed form for the W0 inverse at power -4
    h = opalg.complete_geometric
    extra = qpow(Fraction(1))
    monkeypatch.setattr(opalg, "complete_geometric", lambda n: h(n) + extra if n == 4 else h(n))


def test_session_certifies_each_closed_form_inverse(monkeypatch):
    damaged_h4(monkeypatch)
    with pytest.raises(RelationViolated) as exc:
        LaxSession(SessionParams(1, 1, 1, T=4))
    assert exc.value.power == -4
    assert str(exc.value).startswith("W0 inverse: first offending coefficient at power -4: ")


def test_orlov_names_the_power_of_a_damaged_inverse_coefficient():
    # index -T is the deepest one inside the window of W0 * q^s * W0^-1
    T = 4
    session = LaxSession(SessionParams(1, 1, 1, T=T))
    inv = session.w0_inv
    bad = dict(inv.coeffs)
    c = inv.coeff(-T)
    bad[-T] = c + c * qpow(Fraction(1))  # damaged inside c's own s-part
    session.w0_inv = DiffOp(inv.step, bad, inv.floor, inv.ceil)
    with pytest.raises(RelationViolated) as exc:
        session.orlov
    assert exc.value.power == -T
    assert f"q^M0 closed form: first offending coefficient at power {-T}: " in str(exc.value)


@pytest.mark.parametrize("tau_degree", [None, 4])
def test_laxcheck_suite_never_calls_op_inverse(monkeypatch, tau_degree):
    # every inverse the exact checks use is a closed form certified by a product
    calls = []
    inverse = opalg.op_inverse

    def counting_inverse(*args, **kwargs):
        calls.append(args[1:])
        return inverse(*args, **kwargs)

    monkeypatch.setattr(opalg, "op_inverse", counting_inverse)
    report = laxcheck_suite(SessionParams(1, 1, 1, T=4), tau_degree=tau_degree)
    assert report["passed"]
    assert calls == []


# Part products and copies made by shifting an s-free sum in the benchmark's
# laxcheck jobs, at most their counts once no-op q-field steps returned their
# operand and (q;q)_n was multiplied out in ints; and the operator series
# built (W0, W0bar and their inverses, once each) and the (q;q)_n formed
# again for an n, at most their counts once the session formed each once.
# The third job's cross-check reads W0 and W0bar past T from its session:
# two series more, from the same h_n extended to the degree.  The eta-sums
# (`VertexContext._eta_sum`) the cross-check forms, at most their counts once
# a tau table read each matrix element only when an entry was read
LAX_WORK_CEILINGS = [
    (["laxcheck", "--a", "1", "--b", "1", "--T", "6", "--deg", "4"],
     {"part products": 986, "s-free shift copies": 0, "series": 4, "repeated (q;q)_n": 0,
      "eta-sums": 10}),
    (["laxcheck", "--a", "2", "--b", "1", "--sign", "-1", "--T", "6"],
     {"part products": 478, "s-free shift copies": 0, "series": 4, "repeated (q;q)_n": 0,
      "eta-sums": 0}),
    (["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--deg", "6"],
     {"s-free shift copies": 0, "series": 6, "repeated (q;q)_n": 0, "eta-sums": 16}),
]


def _option(argv: list[str], name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _lax_work_over_ceilings(monkeypatch, tmp_path, argv, ceilings) -> dict:
    """Run a job in-process and return the counts above their ceilings."""
    counts = Counter()
    part_mul, shift = qfield._part_mul, QPowerSum.shift
    series, q_factorial = opalg.conjugated_series, opalg._q_factorial_den
    eta_sum = VertexContext._eta_sum
    formed = Counter()

    def counted_series(*args):
        counts["series"] += 1
        return series(*args)

    def counted_q_factorial(n):
        counts["repeated (q;q)_n"] += n in formed
        formed[n] += 1
        return q_factorial(n)

    def counted_part_mul(a, b):
        counts["part products"] += 1
        return part_mul(a, b)

    def counted_eta_sum(ctx, *args):
        before = len(ctx._eta)
        got = eta_sum(ctx, *args)
        counts["eta-sums"] += len(ctx._eta) - before
        return got

    def counted_shift(p, beta):
        got = shift(p, beta)
        counts["shifts"] += 1
        counts["s-free shift copies"] += p.s == (0, 1, 0, 1) and got is not p
        return got

    monkeypatch.setattr(qfield, "_part_mul", counted_part_mul)
    monkeypatch.setattr(QPowerSum, "shift", counted_shift)
    monkeypatch.setattr(opalg, "conjugated_series", counted_series)
    monkeypatch.setattr(opalg, "_q_factorial_den", counted_q_factorial)
    monkeypatch.setattr(VertexContext, "_eta_sum", counted_eta_sum)
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert counts["part products"] > 100 and counts["shifts"] > 100  # the counts see the job
    # (q;q)_0 .. (q;q)_(T+1), and on to the tau degree when the cross-check reaches past T
    T, deg = _option(argv, "--T", 6), _option(argv, "--deg", 0)
    assert sorted(formed) == list(range(max(T + 2, deg + 1)))
    return {k: counts[k] for k, most in ceilings.items() if counts[k] > most}


@pytest.mark.parametrize("argv, ceilings", LAX_WORK_CEILINGS)
def test_the_laxcheck_jobs_stay_within_their_work_counts(monkeypatch, tmp_path, argv, ceilings):
    assert _lax_work_over_ceilings(monkeypatch, tmp_path, argv, ceilings) == {}


@pytest.mark.parametrize("argv, ceilings", LAX_WORK_CEILINGS)
def test_the_lax_work_counts_see_a_shift_that_copies_an_s_free_sum(monkeypatch, tmp_path, argv,
                                                                   ceilings):
    # negative control: every sum shifted through its exponent key, as before
    monkeypatch.setattr(QPowerSum, "shift", shift_by_key)
    assert "s-free shift copies" in _lax_work_over_ceilings(monkeypatch, tmp_path, argv, ceilings)


@pytest.mark.parametrize("job, eager_count", [(0, 21), (2, 73)])
def test_the_lax_work_counts_see_an_eager_tau_table(monkeypatch, tmp_path, job, eager_count):
    # negative control: a table that reads every entry when it is built, as
    # each table once copied every gamma of its pairs
    build = opalg.tau_table

    def eager(*args):
        table = build(*args)
        for nu, nubar in table.prefactors:
            table.entry(nu, nubar)
        return table

    monkeypatch.setattr(opalg, "tau_table", eager)
    over = _lax_work_over_ceilings(monkeypatch, tmp_path, *LAX_WORK_CEILINGS[job])
    assert over == {"eta-sums": eager_count}


def test_the_lax_work_counts_see_a_cross_check_that_builds_its_own_series(monkeypatch, tmp_path):
    # negative control: a cross-check handed a second session of the same
    # parameters builds the operator series again, and their (q;q)_n with them
    argv, ceilings = LAX_WORK_CEILINGS[0]
    real = suites.cross_check_initial
    monkeypatch.setattr(suites, "cross_check_initial", lambda session, max_deg, flow_k:
                        real(LaxSession(session.params), max_deg, flow_k))
    over = _lax_work_over_ceilings(monkeypatch, tmp_path, argv, ceilings)
    assert over == {"series": 8, "repeated (q;q)_n": 8}


def test_the_lax_work_counts_see_a_session_that_forms_each_series_coefficient(monkeypatch,
                                                                             tmp_path):
    # negative control: a session whose four series each form their own h_n or e_n
    argv, ceilings = LAX_WORK_CEILINGS[1]

    def per_series(self, params):
        E1, E2 = opalg._gauge_exponent(params.tau), opalg._gauge_exponent(1 / params.tau)
        self.params, T = params, params.T
        h = opalg.complete_geometric
        self.w0 = opalg.conjugated_series(E1, E1.inv(), signed_elementary, True, T)
        self.wbar0 = opalg.conjugated_series(E1, E2, h, False, T)
        self.w0_inv = opalg.conjugated_series(E1, E1.inv(), h, True, T + 1)
        self.wbar0_inv = opalg.conjugated_series(E2.inv(), E1.inv(), signed_elementary,
                                                 False, T + 1)

    monkeypatch.setattr(LaxSession, "__init__", per_series)
    assert "repeated (q;q)_n" in _lax_work_over_ceilings(monkeypatch, tmp_path, argv, ceilings)


def check_results(report):
    return [(c["name"], c["passed"]) for c in report["checks"]]


@pytest.mark.parametrize("a,b,sign", [(1, 1, 1), (2, 1, -1)])
def test_closed_form_checks_fail_on_a_wrong_expected_coefficient(monkeypatch, a, b, sign):
    # negative control: one coefficient c of the expected closed form made
    # c * (1 + q), a damage inside c's own s-part
    expected = suites.expected_initial_lax

    def damaged(params):
        good = expected(params)
        coeffs = dict(good.coeffs)
        c = coeffs[params.down_index]
        coeffs[params.down_index] = c + c * qpow(1)
        return DiffOp(good.step, coeffs)

    monkeypatch.setattr(suites, "expected_initial_lax", damaged)
    params = SessionParams(a, b, sign, T=4)
    report = laxcheck_suite(params)
    assert check_results(report) == [
        ("initial_fractional_power_closed_form", False),
        ("initial_fractional_power_closed_form_bar", False),
        ("fractional_powers_cancel", True),
        ("orlov_closed_forms", True),
        ("initial_orlov_closed_forms", True),
        ("orlov_monomial_collapse", True),
        ("orlov_monomial_collapse_bar", True),
        ("integerized_power_identity", True),
    ]
    power = params.down_index * params.step
    for check in report["checks"][:2]:
        assert check["detail"].startswith(f"first offending coefficient at power {power}: ")
    assert not report["passed"]


def test_laxcheck_refuses_a_damage_that_adds_across_s_parts(monkeypatch, tmp_path, capsys):
    # negative control: c + q^1, with c = -q^(2*s-3/2), is no single-s-part
    # q-power sum; the command stops with one error line and writes nothing
    expected = suites.expected_initial_lax

    def damaged(params):
        good = expected(params)
        coeffs = dict(good.coeffs)
        coeffs[params.down_index] = coeffs[params.down_index] + qpow(1)
        return DiffOp(good.step, coeffs)

    monkeypatch.setattr(suites, "expected_initial_lax", damaged)
    out = tmp_path / "lax.json"
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot add q-power sums of different s-parts 2*s and 0\n"
    assert captured.out == "" and not out.exists()


def test_orlov_checks_fail_when_the_closed_forms_are_violated(monkeypatch):
    # negative control: both Orlov checks carry the violation's message
    message = "q^M0 closed form: first offending coefficient at power -2: q^(s)"

    def violated(session):
        raise RelationViolated(message, power=-2, residual="q^(s)")

    monkeypatch.setattr(LaxSession, "orlov", property(violated))
    report = laxcheck_suite(SessionParams(1, 1, 1, T=4))
    # check_LM_relation stops at its first check: the later ones need q^M0
    assert check_results(report) == [
        ("initial_fractional_power_closed_form", True),
        ("initial_fractional_power_closed_form_bar", True),
        ("fractional_powers_cancel", True),
        ("orlov_closed_forms", False),
        ("initial_orlov_closed_forms", False),
    ]
    for check in report["checks"][3:]:
        assert check["detail"] == message
    assert not report["passed"]


def test_monomial_pow():
    mono = DiffOp.monomial(Fraction(1, 2), 1, qpow(c1=-1))
    cubed = monomial_pow(mono, 3)
    assert cubed.indices() == [3]
    inv = monomial_pow(mono, -1)
    assert (mono * inv - DiffOp.monomial(Fraction(1, 2), 0, ONE)).is_zero_on_window()


# -- tau-quotient dressing ---------------------------------------------------


@pytest.fixture(scope="module")
def dressing11():
    params = SessionParams(1, 1, 1, T=4)
    ctx = VertexContext(4)
    table = tau_table(1, 1, 1, 0, 4, ctx)
    return table, dressing_from_tau(table)


def test_dressing_leading_values(dressing11):
    table, dressing = dressing11
    assert dressing.W.coeff(0).is_one()
    # wbar_0 at tau=1 is q^(2s^2 - 2s + 1/2), from the cubic prefactor ratio
    expected = qpow(c0=Fraction(1, 2), c1=-2, c2=2)
    assert dressing.Wbar.coeff(0) == expected


def test_dressing_derivative_of_constant_coefficient(dressing11):
    _, dressing = dressing11
    assert dressing.dW.coeff(0).is_zero()  # w_0 = 1 has zero time derivative


def test_dressing_truncation_stability():
    ctx = VertexContext(3)
    small = dressing_from_tau(tau_table(1, 1, 1, 0, 1, ctx))
    big = dressing_from_tau(tau_table(1, 1, 1, 0, 3, ctx))
    assert small.W.coeff(-1) == big.W.coeff(-1)
    assert small.Wbar.coeff(1) == big.Wbar.coeff(1)


def test_dressing_trivial_table_is_identity(monkeypatch):
    table = tau_table(1, 1, 1, 0, 3, VertexContext(3))
    gamma = VertexContext.gamma_matrix_element
    monkeypatch.setattr(VertexContext, "gamma_matrix_element", lambda ctx, nu, nubar: (
        gamma(ctx, nu, nubar) if (nu, nubar) == ((), ()) else QFieldElem.zero()))
    dressing = dressing_from_tau(table)
    assert dressing.W.coeff(0).is_one()
    for n in range(1, 4):
        assert dressing.W.coeff(-n).is_zero()
    for n in range(0, 3):
        assert dressing.dW.coeff(-n).is_zero()


def test_dressing_matches_factorization(dressing11):
    _, dressing = dressing11
    session = LaxSession(SessionParams(1, 1, 1, T=4))
    w0, wbar0 = session.w0, session.wbar0
    for n in range(5):
        assert dressing.W.coeff(-n) == w0.coeff(-n), n
        assert dressing.Wbar.coeff(n) == wbar0.coeff(n), n


def test_the_session_hands_w0_and_wbar0_to_any_degree():
    # its own pair through T; past T the pair of a session at the degree,
    # equal to its own on every coefficient they share
    session = LaxSession(SessionParams(1, 2, 1, T=3))
    w0, wbar0 = session.dressing_to(3)
    assert w0 is session.w0 and wbar0 is session.wbar0
    longer, longer_bar = session.dressing_to(6)
    assert longer.window() == (-6, None) and longer_bar.window() == (None, 6)
    for n in range(4):
        assert longer.coeff(-n) == w0.coeff(-n) and longer_bar.coeff(n) == wbar0.coeff(n)
    at_degree = LaxSession(SessionParams(1, 2, 1, T=6))
    assert longer.coeffs == at_degree.w0.coeffs and longer_bar.coeffs == at_degree.wbar0.coeffs


def test_dressing_inverses_are_the_adjoint_tau_quotients(dressing11):
    _, dressing = dressing11
    one = DiffOp.monomial(Fraction(1), 0, ONE)
    for w, w_inv in ((dressing.W, dressing.W_inv), (dressing.Wbar, dressing.Wbar_inv)):
        assert w_inv.window() == w.window()
        assert (w * w_inv - one).is_zero_on_window()
        assert (w_inv * w - one).is_zero_on_window()
    assert dressing.W_inv.coeff(-1) == -dressing.W.coeff(-1)


def damage_entry(monkeypatch, nu, nubar):
    # add q^1 to the gamma of one pair of part tuples, as every context hands
    # it out; the entry changes by q^(its exponent) * q
    gamma = VertexContext.gamma_matrix_element
    monkeypatch.setattr(VertexContext, "gamma_matrix_element", lambda ctx, *pair: (
        gamma(ctx, *pair) + qpow(Fraction(1)) if pair == (nu, nubar) else gamma(ctx, *pair)))


@pytest.mark.parametrize("d", [2, 4])
def test_dressing_certifies_the_w_inverse(monkeypatch, d):
    # entry((d), empty) enters W^-1 at its deepest power -d and W not at all
    table = tau_table(1, 1, 1, 0, d, VertexContext(d))
    damage_entry(monkeypatch, (d,), ())
    with pytest.raises(RelationViolated) as exc:
        dressing_from_tau(table)
    assert exc.value.power == -d
    assert str(exc.value).startswith(
        f"tau-route W inverse: first offending coefficient at power {-d}: "
    )


def test_dressing_certifies_the_wbar_inverse(monkeypatch):
    table = tau_table(1, 2, 1, 0, 4, VertexContext(4))
    damage_entry(monkeypatch, (), (1, 1))
    with pytest.raises(RelationViolated) as exc:
        dressing_from_tau(table)
    assert exc.value.power == 2
    assert str(exc.value).startswith(
        "tau-route Wbar inverse: first offending coefficient at power 2: "
    )


def _w0_damaged_at(w0: DiffOp, power: int) -> DiffOp:
    """W0 with its coefficient c at Lam^-power made c * (1 + q), a damage
    inside c's own s-part."""
    coeffs = dict(w0.coeffs)
    c = w0.coeff(-power)
    coeffs[-power] = c + c * qpow(Fraction(1))
    return DiffOp(w0.step, coeffs, w0.floor, w0.ceil)


def _dressing_agreement(report: dict) -> dict:
    return next(c for c in report["checks"] if c["name"] == "dressing_agreement")


def test_dressing_agreement_covers_every_coefficient():
    # power 2 lies inside the old n <= min(4, d) range, power 5 only in n <= d
    for power in (2, 5):
        session = LaxSession(SessionParams(1, 1, 1, T=5))
        session.w0 = _w0_damaged_at(session.w0, power)
        check = _dressing_agreement(cross_check_initial(session, 5))
        assert not check["passed"]
        assert check["detail"] == f"first mismatch at Lam^-{power}"


def _laxcheck_below_the_tau_degree(tmp_path) -> dict:
    """The tau_dressing_agreement check of `laxcheck` at T = 4 and degree 6,
    where the session forms W0 past its T for the cross-check."""
    out = tmp_path / "report.json"
    main(["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--deg", "6", "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    return next(c for c in report["checks"] if c["name"] == "tau_dressing_agreement")


def test_a_session_below_the_tau_degree_checks_every_coefficient(tmp_path):
    check = _laxcheck_below_the_tau_degree(tmp_path)
    assert check["passed"] and check["detail"] == "coefficients 0..6 equal"


def test_the_agreement_below_the_tau_degree_sees_a_w0_damaged_past_t(monkeypatch, tmp_path):
    # negative control: W0 damaged at Lam^-6, a power the session's T = 4 does not reach
    dressing_to = LaxSession.dressing_to

    def damaged(session, degree):
        w0, wbar0 = dressing_to(session, degree)
        return _w0_damaged_at(w0, 6), wbar0

    monkeypatch.setattr(LaxSession, "dressing_to", damaged)
    check = _laxcheck_below_the_tau_degree(tmp_path)
    assert not check["passed"] and check["detail"] == "first mismatch at Lam^-6"


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 3)])
def test_cross_check_initial(a, b):
    report = cross_check_initial(LaxSession(SessionParams(a, b, 1, T=5)), 5)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
    assert report["gauge"] == "1"
    assert _dressing_agreement(report)["detail"] == "coefficients 0..5 equal"


def test_cross_check_higher_flow():
    report = cross_check_initial(LaxSession(SessionParams(1, 1, 1, T=5)), 5, flow_k=2)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


# -- each cross_check_initial check fails under a targeted mutation ---------------
# At (a, b, sign) = (1, 1, 1) the surviving powers of the W side's fractional
# Lax power sit at grid indices up = 1 and down = -1, and the barred side's
# are the same two; each mutation damages one thing the check reads.
CROSS_PARAMS = SessionParams(1, 1, 1, T=5)


def _dressed_power_damaged(monkeypatch, index, n, damage):
    """The fractional power of grid index `index` with its coefficient at n
    replaced by damage(coefficient)."""
    real = opalg._dressed_power

    def damaged(w, w_inv, step, idx):
        op = real(w, w_inv, step, idx)
        if idx != index:
            return op
        coeffs = dict(op.coeffs)
        coeffs[n] = damage(op.coeff(n))
        return DiffOp(op.step, coeffs, op.floor, op.ceil)

    monkeypatch.setattr(opalg, "_dressed_power", damaged)


def _projection_drops(monkeypatch, method, n):
    """A projection that leaves out its coefficient at n and keeps its window."""
    real = getattr(DiffOp, method)

    def dropped(op):
        got = real(op)
        return DiffOp(got.step, {k: c for k, c in got.coeffs.items() if k != n},
                      got.floor, got.ceil)

    monkeypatch.setattr(DiffOp, method, dropped)


def _wbar_leading_power_doubled(monkeypatch):
    _dressed_power_damaged(monkeypatch, -1, 1, lambda c: c.scale(2))


def _wbar_gauged_by_q_to_the_s(monkeypatch):
    # a diagonal gauge g(s) = q^s on the tau-route Wbar conjugates its
    # fractional power, which moves pbar_0 but not wbar_0(s) / wbar_0(s + x)
    real = TauTable.cubic_delta
    monkeypatch.setattr(TauTable, "cubic_delta", lambda table, a, b: real(table, a, b) * QS)


def _w_side_p1_doubled(monkeypatch):
    _dressed_power_damaged(monkeypatch, 1, -1, lambda c: c.scale(2))


def _wbar_side_pbar0_doubled(monkeypatch):
    _dressed_power_damaged(monkeypatch, -1, -1, lambda c: c.scale(2))


def _w_side_gains_a_power(monkeypatch):
    _dressed_power_damaged(monkeypatch, 1, 2, lambda c: ONE)


@pytest.mark.parametrize("name, mutate, detail", [
    ("coefficient_relation_pbar1", _wbar_leading_power_doubled,
     "pbar_1 = (2*q^(1) - 2) / (-q^(1) + 1)"),
    ("coefficient_relation_pbar0", _wbar_gauged_by_q_to_the_s, "pbar_0 = q^(2*s-1)"),
    ("p1_from_w1", _w_side_p1_doubled, "p_1 = w_1(s) - w_1(s + 1/(tau+1))"),
    ("pbar0_from_wbar0", _wbar_side_pbar0_doubled, "pbar_0 = wbar_0(s) / wbar_0(s - tau/(tau+1))"),
    ("two_surviving_powers", _w_side_gains_a_power,
     "nonzero powers: ['-1/2', '1/2', '1'] on window (-7, None)"),
    ("lax_equation_flow", lambda mp: _projection_drops(mp, "proj_nonneg", 0),
     "window (-2, None); first offending coefficient at power -1: "),
    ("sato_equation_flow", lambda mp: _projection_drops(mp, "proj_neg", -1),
     "window (-3, None); first offending coefficient at power -3: "),
])
def test_cross_check_fails_under_its_mutation(monkeypatch, name, mutate, detail):
    """Negative control: each mutation fails its cross check, whose detail is
    as given (its start, for a residual), and the report still lists every
    check."""
    session = LaxSession(CROSS_PARAMS)
    report = cross_check_initial(session, 4)
    names = [c["name"] for c in report["checks"]]
    assert report["passed"] and name in names
    mutate(monkeypatch)
    report = cross_check_initial(session, 4)
    assert [c["name"] for c in report["checks"]] == names
    check = next(c for c in report["checks"] if c["name"] == name)
    assert not report["passed"] and not check["passed"]
    if detail.endswith(": "):
        assert check["detail"].startswith(detail) and len(check["detail"]) > len(detail), check
    else:
        assert check["detail"] == detail, check
