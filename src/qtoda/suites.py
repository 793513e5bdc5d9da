"""Aggregated machine-verification suites behind the CLI commands.

Each suite returns a report of `qtoda.report`: {"passed": bool, "checks":
[...]}, every check carrying a name, a pass flag, and a counterexample
string when it fails; a parent joins the check lists of its sub-reports.
The functions are also what the acceptance tests call.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import RelationViolated
from .opalg import LaxSession, check_LM_relation, cross_check_initial, expected_initial_lax, \
    initial_lax, initial_M, vanishing_check
from .partitions import Partition, enumerate_partitions
from .qfield import qpow
from .report import check, check_all, make_report
from .schur import PowerSumRing, specialize_nu_rho
from .vertex import SessionParams, VertexContext, tau_table


def pairs_up_to(total_weight: int) -> list[tuple[Partition, Partition]]:
    parts = enumerate_partitions(total_weight)
    return [
        (nu, nubar)
        for nu in parts
        for nubar in parts
        if nu.weight + nubar.weight <= total_weight
    ]


def vertex_equality_suite(ctx: VertexContext, weight: int, corrupt: bool = False) -> dict:
    """Defining form against the hook-type finite sum, all pairs up to weight."""
    bad = []
    for nu, nubar in pairs_up_to(weight):
        lhs = ctx.vertex_def(nu, nubar)
        rhs = ctx.vertex_hook(nu, nubar)
        if corrupt and (nu.parts, nubar.parts) == ((1,), ()):
            rhs = -rhs
        if not (lhs == rhs):
            bad.append(f"({nu},{nubar}): {lhs} != {rhs}")
    return make_report([check_all(f"vertex_def_equals_hook_w{weight}", bad, shown=2)])


def vertex_symmetry_suite(ctx: VertexContext, weight: int) -> dict:
    """Transposition symmetry and the q -> 1/q inversion symmetry."""
    bad_t, bad_q = [], []
    for nu, nubar in pairs_up_to(weight):
        w = ctx.vertex_def(nu, nubar)
        if not (w == ctx.vertex_def(nubar, nu)):
            bad_t.append(f"({nu},{nubar})")
        flipped = ctx.vertex_def(nu.conjugate(), nubar.conjugate()).invert_q()
        if not (w == flipped.scale((-1) ** (nu.weight + nubar.weight))):
            bad_q.append(f"({nu},{nubar})")
    return make_report([check_all(f"vertex_transposition_w{weight}", bad_t),
                        check_all(f"vertex_q_inversion_w{weight}", bad_q)])


def schur_negation_suite(weight: int, ring: PowerSumRing) -> dict:
    """p -> -p on straight and skew Schur polynomials, symbolically, in
    `ring`, which the caller owns; its bound must cover the weight."""
    bad = []
    for mu in enumerate_partitions(weight):
        lhs = ring.schur(mu).negate_p()
        rhs = ring.schur(mu.conjugate()).scale((-1) ** mu.weight)
        if not (lhs == rhs):
            bad.append(str(mu))
    checks = [check_all(f"schur_negation_w{weight}", bad)]
    bad = []
    for mu in enumerate_partitions(weight):
        for nu in enumerate_partitions(mu.weight):
            if not mu.contains(nu) or nu.weight == 0:
                continue
            lhs = ring.skew_schur(mu, nu).negate_p()
            rhs = ring.skew_schur(mu.conjugate(), nu.conjugate()).scale(
                (-1) ** (mu.weight + nu.weight)
            )
            if not (lhs == rhs):
                bad.append(f"{mu}/{nu}")
    checks.append(check_all(f"skew_schur_negation_w{weight}", bad))
    return make_report(checks)


def schur_structure_suite(weight: int, ring: PowerSumRing) -> dict:
    """Determinant-size independence, homogeneity, special-point relation, in
    `ring`, which the caller owns; its bound must cover the weight."""
    bad = []
    for mu in enumerate_partitions(weight):
        if ring.schur(mu) != ring.schur(mu, size=mu.length + 2):
            bad.append(str(mu))
    checks = [check_all(f"determinant_size_independence_w{weight}", bad)]
    bad = [
        str(mu)
        for mu in enumerate_partitions(weight)
        if not ring.schur(mu).is_homogeneous(mu.weight)
    ]
    checks.append(check_all(f"weighted_homogeneity_w{weight}", bad))
    bad = []
    for nu in enumerate_partitions(min(4, weight)):
        for k in range(1, 5):
            lhs = specialize_nu_rho(nu, k)
            rhs = -specialize_nu_rho(nu.conjugate(), k).invert_q()
            if not (lhs == rhs):
                bad.append(f"({nu}, k={k})")
    checks.append(check_all("power_sum_special_points", bad))
    return make_report(checks)


def kappa_suite(weight: int = 8) -> dict:
    bad = [
        str(nu)
        for nu in enumerate_partitions(weight)
        if nu.conjugate().kappa() != -nu.kappa()
        or nu.conjugate().weight != nu.weight
        or (nu.parts and nu.conjugate().length != nu.parts[0])
    ]
    return make_report([check_all(f"kappa_conjugation_w{weight}", bad)])


def gamma_vertex_link_suite(ctx: VertexContext, weight: int) -> dict:
    """Vertex values against the matrix-element route at the reflected point:
    W(nu,nubar) = (-1)^(|nu|+|nubar|) q^((kappa(nu)+kappa(nubar))/2) * gamma."""
    bad = []
    for nu, nubar in pairs_up_to(weight):
        lhs = ctx.vertex_def(nu, nubar)
        pref = qpow(Fraction(nu.kappa() + nubar.kappa(), 2))
        rhs = (pref * ctx.gamma_matrix_element(nu, nubar)).scale(
            (-1) ** (nu.weight + nubar.weight)
        )
        if not (lhs == rhs):
            bad.append(f"({nu},{nubar})")
    return make_report([check_all(f"vertex_matrix_element_link_w{weight}", bad)])


def tau_shift_suite(a: int, b: int, sign: int, degree: int, ctx: VertexContext) -> dict:
    """Shifted tables at c = 1/2 and 1/3 equal the unshifted table under
    s -> s + c exactly, the global cubic prefactors matching as polynomials.

    The three tables share `ctx`, which the caller owns (its bound must
    cover the degree), so each matrix element gamma is computed once."""
    base = tau_table(a, b, sign, 0, degree, ctx)
    checks = []
    for c in (Fraction(1, 2), Fraction(1, 3)):
        shifted = tau_table(a, b, sign, c, degree, ctx)
        bad = [] if shifted.cubic == base.cubic_shifted(c) else ["cubic prefactor mismatch"]
        for nu, nubar in base.pairs.values():
            if not (shifted.entry(nu, nubar) == base.entry(nu, nubar).shift(c)):
                bad.append(f"entry ({nu},{nubar})")
        checks.append(check_all(f"tau_shift_c={c}", bad))
    return make_report(checks)


def tau_exponent_suite(a: int, b: int, sign: int, degree: int, ctx: VertexContext) -> dict:
    """Entry prefactors q^E(s) re-derived independently from kappa and
    weights, on a table whose gammas come from the caller's `ctx`."""
    table = tau_table(a, b, sign, 0, degree, ctx)
    tau = table.tau
    # unshifted cubic prefactor is scale * (4 s^3 - s)
    scale = (tau + 1 / tau + 2) / 24
    cubic_ok = table.cubic == (Fraction(0), -scale, Fraction(0), 4 * scale)
    bad = [] if cubic_ok else ["cubic prefactor mismatch"]
    for key, pref in table.prefactors.items():
        nu, nubar = table.pairs[key]
        redo = qpow(
            c0=(tau + 1) * Fraction(nu.kappa(), 2) + (1 / tau + 1) * Fraction(nubar.kappa(), 2),
            c1=(tau + 1) * nu.weight + (1 / tau + 1) * nubar.weight,
        )
        if pref != redo:
            bad.append(f"({nu},{nubar})")
    return make_report([check_all("tau_exponent_rederivation", bad)])


def identity_suite(
    weight_equality: int = 6,
    weight_symmetry: int = 5,
    weight_schur: int = 5,
    corrupt: bool = False,
    shift_check: bool = False,
) -> dict:
    """The full combinatorial identity suite behind `qtoda identities`.

    One VertexContext, its bound covering every suite, serves the vertex
    suites, the tau exponent suite and, with shift_check, the tau shift
    suite, and its ring serves the two Schur suites, so the session
    computes each vertex value, gamma and Schur determinant once.
    """
    exponent_degree = min(3, max(weight_equality, 1))
    shift_degree = min(weight_equality, 4)
    structure_degree = max(weight_schur, 4)
    # the exponent (<= 3) and shift (<= weight_equality) degrees are covered
    ctx = VertexContext(max(weight_equality, weight_symmetry, structure_degree))
    subs = [
        kappa_suite(8),
        schur_negation_suite(weight_schur, ctx.ring),
        schur_structure_suite(structure_degree, ctx.ring),
        vertex_equality_suite(ctx, weight_equality, corrupt=corrupt),
        vertex_symmetry_suite(ctx, weight_symmetry),
        gamma_vertex_link_suite(ctx, min(4, weight_symmetry)),
        tau_exponent_suite(1, 1, 1, exponent_degree, ctx),
    ]
    if shift_check:
        subs.append(tau_shift_suite(1, 1, 1, shift_degree, ctx))
    return make_report([chk for sub in subs for chk in sub["checks"]])


def laxcheck_suite(params: SessionParams, tau_degree: int | None = None, flow_k: int = 1) -> dict:
    """The operator-relation suite behind `qtoda laxcheck`.

    Verifies the initial-value algebraic relation of the two fractional Lax
    powers, the closed forms of the initial Orlov-type operators, the
    supplementary monomial identity, and (when a tau degree is given) the
    full cross-check of the tau-quotient route against the factorization.
    One LaxSession serves every check, so each time-zero operator is
    computed once.
    """
    session = LaxSession(params)
    lfrac, lbarfrac = initial_lax(session)
    expected = expected_initial_lax(params)
    total = lfrac + lbarfrac
    checks = [
        vanishing_check("initial_fractional_power_closed_form", lfrac - expected),
        vanishing_check("initial_fractional_power_closed_form_bar", lbarfrac + expected),
        vanishing_check("fractional_powers_cancel", total, show_window=True),
    ]
    try:
        initial_M(session)
        checks.append(check("orlov_closed_forms", True))
    except RelationViolated as exc:
        checks.append(check("orlov_closed_forms", False, str(exc)))
    checks += check_LM_relation(session)["checks"]
    tau_fields = {}
    if tau_degree:
        cc = cross_check_initial(session, tau_degree, flow_k)
        checks += [{**chk, "name": "tau_" + chk["name"]} for chk in cc["checks"]]
        tau_fields["gauge"] = cc["gauge"]
    lo = total.floor if math.isfinite(total.floor) else min(total.coeffs, default=0)
    hi = total.ceil if math.isfinite(total.ceil) else max(total.coeffs, default=0)
    residuals = {
        "fractional_sum_window": [str(n if n is None else n * params.step) for n in total.window()],
        "fractional_sum": {str(n * params.step): str(total.coeff(n)) for n in range(lo, hi + 1)},
    }
    return make_report(checks, a=params.a, b=params.b, sign=params.sign, tau=str(params.tau),
                       T=params.T, residuals=residuals, **tau_fields)
