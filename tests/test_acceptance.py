"""Acceptance suite: the nine exit criteria at their stated scales.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Everything algebraic is exact  -- tolerance "none"; only the integrator
drift criterion carries numeric thresholds, which are pinned here.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qtoda.opalg import (
    LaxSession,
    SessionParams,
    check_LM_relation,
    cross_check_initial,
    expected_initial_lax,
    initial_M,
    initial_lax,
)
from qtoda.partitions import Partition, enumerate_partitions
from qtoda.schur import PowerSumRing
from qtoda.suites import (
    pairs_up_to,
    tau_shift_suite,
    vertex_equality_suite,
    vertex_symmetry_suite,
)
from qtoda.vertex import VertexContext
from qtoda.volterra import (
    LatticeState,
    flow_rhs,
    integrate_runs,
    invariant_drift,
    perturbed_constant_state,
    stationarity_check,
    stencil_apply,
    symbolic_flow_stencil,
)


def report(number: int, passed: bool, detail: str):
    mark = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {mark} - {detail}")
    assert passed, detail


def test_criterion_1_vertex_equality():
    """Both finite vertex expressions agree exactly, |nu|+|nubar| <= 6."""
    start = time.time()
    ctx = VertexContext(6)
    rep = vertex_equality_suite(ctx, 6)
    elapsed = time.time() - start
    report(
        1,
        rep["passed"] and elapsed < 120,
        f"vertex defining == hook form on {len(pairs_up_to(6))} pairs "
        f"(weight <= 6) in {elapsed:.1f}s",
    )


def test_criterion_2_vertex_symmetries():
    """Transposition and q -> 1/q inversion symmetries, |nu|+|nubar| <= 5."""
    ctx = VertexContext(5)
    rep = vertex_symmetry_suite(ctx, 5)
    report(2, rep["passed"], f"both symmetries exact on {len(pairs_up_to(5))} pairs (weight <= 5)")


def test_criterion_3_schur_negation():
    """Sign-reversal identity and its skew extension, |mu| <= 5, symbolically."""
    ring = PowerSumRing(5)
    ok = True
    for mu in enumerate_partitions(5):
        if ring.schur(mu).negate_p() != ring.schur(mu.conjugate()).scale(
            (-1) ** mu.weight
        ):
            ok = False
        for nu in enumerate_partitions(mu.weight):
            if not mu.contains(nu):
                continue
            lhs = ring.skew_schur(mu, nu).negate_p()
            rhs = ring.skew_schur(mu.conjugate(), nu.conjugate()).scale(
                (-1) ** (mu.weight + nu.weight)
            )
            if lhs != rhs:
                ok = False
    report(3, ok, "negation identity and skew extension, all |mu| <= 5")


CASES_4 = [(1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 1, -1), (3, 2, -1)]


@pytest.mark.parametrize("a,b,sign", CASES_4)
def test_criterion_4_initial_value_relation(a, b, sign):
    """The two fractional Lax powers cancel exactly at truncation T = 8,
    the Orlov-type operators reproduce their two-term closed forms, and
    the supplementary monomial identity holds."""
    start = time.time()
    params = SessionParams(a, b, sign, T=8)
    session = LaxSession(params)
    lfrac, lbarfrac = initial_lax(session)
    expected = expected_initial_lax(params)
    ok_closed = (
        (lfrac - expected).is_zero_on_window()
        and (lbarfrac + expected).is_zero_on_window()
    )
    total = lfrac + lbarfrac
    residuals = [(n, c) for n, c in total.coeffs.items() if not c.is_zero()]
    initial_M(session)  # raises on any deviation from the closed forms
    lm = check_LM_relation(session)
    elapsed = time.time() - start
    report(
        4,
        ok_closed and not residuals and lm["passed"] and elapsed < 60,
        f"(a={a}, b={b}, sign={sign:+d}, tau={params.tau}) exact zeros on window "
        f"{total.window()}, closed forms and monomial identity hold, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2)])
def test_criterion_5_tau_factorization_cross_check(a, b):
    """Dressing from tau quotients at degree 6 agrees with the factorization
    operators on every shift coefficient up to degree 6 (recorded gauge),
    and the first-flow Lax equation residual is exactly zero on the checked
    window."""
    start = time.time()
    params = SessionParams(a, b, 1, T=6)
    rep = cross_check_initial(LaxSession(params), 6)
    elapsed = time.time() - start
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    report(
        5,
        rep["passed"] and elapsed < 300,
        f"tau = {params.tau}: dressing/factorization agree (gauge {rep['gauge']}), "
        f"Lax residual exactly zero; {elapsed:.1f}s"
        + (f"; failing: {failing}" if failing else ""),
    )


def test_criterion_6_flow_stencil_oracle():
    """Numeric flow stencil equals the symbolic operator-extraction oracle,
    as exact rationals, for every coprime type with a + b <= 5."""
    rng = np.random.default_rng(2718)
    ok = True
    for a in range(1, 5):
        for b in range(1, 5):
            if a + b > 5 or np.gcd(a, b) != 1:
                continue
            m = a + b
            vals = [
                Fraction(x).limit_denominator(64)
                for x in rng.uniform(0.5, 1.5, 3 * m)
            ]
            state = LatticeState(a, b, np.array(vals, dtype=object))
            num = flow_rhs(state, 1)
            sym = stencil_apply(symbolic_flow_stencil(a, b, 1), state.sites, m)
            if not np.all(num == sym):
                ok = False
    # the first member of the discrete series is the classical lattice stencil
    u = np.array([Fraction(k % 3 + 1, 2) for k in range(10)], dtype=object)
    state = LatticeState(1, 1, u)
    classic = u * (np.roll(u, 1) - np.roll(u, -1))
    ok = ok and bool(np.all(flow_rhs(state, 1) == classic))
    report(6, ok, "stencils match the symbolic oracle exactly; a=b=1 gives "
                  "u_j (u_(j-1) - u_(j+1))")


def test_criterion_7_conservation_and_order():
    """12 coarse sites, dt = 1e-3 to t = 10: relative drift of the first
    three invariants < 1e-8; halving dt improves the (truncation-dominated)
    max drift by a factor in [8, 32].

    The perturbation amplitude is 0.85 so that truncation error dominates
    roundoff; the first invariant is linear in u and is preserved to
    roundoff by any Runge-Kutta scheme, so the order ratio is carried by
    the max drift.
    """
    state = perturbed_constant_state(1, 1, 12, base=1.0, amplitude=0.85, wavelength=12)
    # one loop for both step sizes, the call simulate --order-check makes
    traj, traj_half = integrate_runs(state, 1, 10.0, [(1e-3, 500), (5e-4, 1000)])
    drift, _ = invariant_drift(traj, 3)
    drift_half, _ = invariant_drift(traj_half, 3)
    ratio = max(drift) / max(drift_half)
    report(
        7,
        max(drift) < 1e-8 and 8 <= ratio <= 32,
        f"max relative drift {max(drift):.3e} (< 1e-8), halving dt improves it "
        f"by {ratio:.1f}x (within [8, 32])",
    )


def test_criterion_8_negative_parameter_structure():
    """For (a, b) in {(2,1), (3,1), (3,2)}: the (a-b)-th operator power has
    shift powers exactly from b up to a (symbolically), and commutes with
    the flow generators for k <= 3."""
    ok = True
    details = []
    for a, b in [(2, 1), (3, 1), (3, 2)]:
        rep = stationarity_check(a, b, max_k=3)
        ok = ok and rep["passed"]
        details.append(f"(a={a},b={b}): band {sorted(rep['band'])}")
    report(8, ok, "; ".join(details))


def test_criterion_9_coordinate_shift():
    """Shifted tau tables equal the unshifted table under s -> s + c for
    c in {1/2, 1/3}, exactly, at degree <= 4, global prefactor included."""
    rep = tau_shift_suite(1, 1, 1, 4, VertexContext(4))
    rep2 = tau_shift_suite(1, 2, 1, 4, VertexContext(4))
    ok = rep["passed"] and rep2["passed"]
    report(9, ok, "tables at c = 1/2, 1/3 are exact coordinate shifts "
                  "(types (1,1) and (1,2), degree 4)")
