"""Topological-vertex values, symmetries, tau table."""

import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qtoda import suites
from qtoda.cli import main
from qtoda.errors import InvalidTau, NonCoprime
from qtoda.partitions import EMPTY, Partition, enumerate_partitions
from qtoda.qfield import QFieldElem, qpow
from qtoda.report import make_report
from qtoda.schur import PowerSumPoly, PowerSumRing, Specialization, skew_diagram, specialize_rho
from qtoda.suites import identity_suite, pairs_up_to, tau_exponent_suite, tau_shift_suite
from qtoda.vertex import SessionParams, VertexContext, subpartitions, tau_table
from qtoda.volterra import LatticeState, symbolic_flow_stencil, symbolic_lax


@pytest.fixture(scope="module")
def ctx():
    return VertexContext(6)


def test_subpartitions():
    got = {eta.parts for eta in subpartitions(Partition((2, 1)))}
    assert got == {(), (1,), (2,), (1, 1), (2, 1)}
    assert list(subpartitions(EMPTY)) == [EMPTY]


def test_vertex_def_examples(ctx):
    assert ctx.vertex_def(EMPTY, EMPTY).is_one()
    assert ctx.vertex_def(Partition((1,)), EMPTY) == specialize_rho(1)


def test_vertex_hook_examples(ctx):
    assert ctx.vertex_hook(EMPTY, EMPTY).is_one()
    assert ctx.vertex_hook(Partition((1,)), EMPTY) == specialize_rho(1)


def test_vertex_two_routes_cross_check(ctx):
    for nu, nubar in [((1,), (1,)), ((2,), (1,)), ((2, 1), (1, 1)), ((3,), (2, 1))]:
        nu, nubar = Partition(nu), Partition(nubar)
        assert ctx.vertex_def(nu, nubar) == ctx.vertex_hook(nu, nubar), (nu, nubar)


def test_vertex_values_are_s_free(ctx):
    # no term of the numerator or the denominator has an exponent depending on s
    for nu, nubar in pairs_up_to(4):
        value = ctx.vertex_def(nu, nubar)
        for part in (value.num, value.den):
            assert all(c1 == c2 == 0 for _, c1, c2, _ in part.terms()), (nu, nubar)


def test_vertex_transposition_symmetry(ctx):
    for nu, nubar in pairs_up_to(4):
        assert ctx.vertex_def(nu, nubar) == ctx.vertex_def(nubar, nu), (nu, nubar)


def test_vertex_inversion_symmetry(ctx):
    for nu, nubar in pairs_up_to(4):
        lhs = ctx.vertex_def(nu, nubar)
        rhs = ctx.vertex_def(nu.conjugate(), nubar.conjugate()).invert_q().scale(
            (-1) ** (nu.weight + nubar.weight)
        )
        assert lhs == rhs, (nu, nubar)


def test_gamma_matrix_element_examples(ctx):
    assert ctx.gamma_matrix_element(EMPTY, EMPTY).is_one()
    one = Partition((1,))
    p1_neg = -specialize_rho(1)
    assert ctx.gamma_matrix_element(one, EMPTY) == p1_neg
    expected = p1_neg * p1_neg + QFieldElem.one()
    assert ctx.gamma_matrix_element(one, one) == expected


def test_gamma_links_back_to_vertex(ctx):
    """W(nu,nubar) = (-1)^(|nu|+|nubar|) q^((kappa+kappabar)/2) * gamma."""
    for nu, nubar in pairs_up_to(4):
        pref = qpow(Fraction(nu.kappa() + nubar.kappa(), 2))
        rhs = (pref * ctx.gamma_matrix_element(nu, nubar)).scale(
            (-1) ** (nu.weight + nubar.weight)
        )
        assert ctx.vertex_def(nu, nubar) == rhs, (nu, nubar)


def test_tau_table_normalized_entry():
    table = tau_table(1, 1, 1, 0, 2, VertexContext(2))
    assert table.entry(EMPTY, EMPTY).is_one()


def exponent_of(mono):
    """(c0, c1, c2) of the exponent of a monomial q^E(s) with coefficient 1."""
    assert mono.den.is_one()
    ((c0, c1, c2, coef),) = mono.num.terms()
    assert coef == 1
    return c0, c1, c2


def test_tau_table_entry_example():
    # entry ((1), empty) at tau=1, c=0: q^(2s) * (-1/(q^(1/2)-q^(-1/2)))
    table = tau_table(1, 1, 1, 0, 3, VertexContext(3))
    expected = -qpow(c1=2) * specialize_rho(1)
    assert table.entry(Partition((1,)), EMPTY) == expected


def test_tau_table_shift_linear_rule():
    deg = 3
    base = tau_table(1, 2, 1, 0, deg, VertexContext(deg))
    shifted = tau_table(1, 2, 1, Fraction(1, 2), deg, VertexContext(deg))
    tau = base.tau
    for key in base.prefactors:
        nu, nubar = Partition(key[0]), Partition(key[1])
        delta = shifted.prefactors[key] / base.prefactors[key]
        expect = Fraction(1, 2) * ((tau + 1) * nu.weight + (1 / tau + 1) * nubar.weight)
        assert delta == qpow(expect), key


def test_tau_table_shift_is_coordinate_shift():
    ctx = VertexContext(4)
    base = tau_table(1, 1, 1, 0, 4, ctx)
    for c in (Fraction(1, 2), Fraction(1, 3)):
        shifted = tau_table(1, 1, 1, c, 4, ctx)
        for key in base.prefactors:
            nu, nubar = Partition(key[0]), Partition(key[1])
            assert shifted.entry(nu, nubar) == base.entry(nu, nubar).shift(c)


def test_tau_table_exponent_rederivation():
    """Entry prefactors agree with an independent reconstruction from the
    partition invariants (kappa, weight), including the cubic prefactor."""
    for (a, b, sign) in [(1, 1, 1), (1, 2, 1), (2, 1, -1)]:
        table = tau_table(a, b, sign, 0, 3, VertexContext(3))
        tau = table.tau
        for key, pref in table.prefactors.items():
            nu, nubar = Partition(key[0]), Partition(key[1])
            redo = qpow(
                c0=(tau + 1) * Fraction(nu.kappa(), 2)
                + (1 / tau + 1) * Fraction(nubar.kappa(), 2),
                c1=(tau + 1) * nu.weight + (1 / tau + 1) * nubar.weight,
            )
            assert pref == redo
        scale = (tau + 1 / tau + 2) / 24
        assert table.cubic == (Fraction(0), -scale, Fraction(0), 4 * scale)


def test_tau_table_exponent_denominators_bounded():
    for (a, b) in [(1, 2), (2, 3)]:
        bound = 24 * a * b * (a + b)
        table = tau_table(a, b, 1, 0, 3, VertexContext(3))
        for pref in table.prefactors.values():
            c0, c1, _ = exponent_of(pref)
            assert bound % c0.denominator == 0
            assert bound % c1.denominator == 0
        for coef in table.cubic:
            assert bound % coef.denominator == 0


def test_tau_table_cubic_delta_is_quadratic():
    table = tau_table(1, 1, 1, 0, 2, VertexContext(2))
    delta = table.cubic_delta(0, -1)
    # P(s) - P(s-1) for P = (tau+1/tau+2)(4s^3-s)/24 at tau=1: 2(s-1/2)^2
    assert delta == qpow(c0=Fraction(1, 2), c1=-2, c2=2)
    c0, c1, c2, c3 = table.cubic
    cubic_at = [c0 + c1 * s + c2 * s**2 + c3 * s**3 for s in (0, 1)]
    assert cubic_at[1] - cubic_at[0] == sum(exponent_of(delta))


def test_tau_table_validation():
    with pytest.raises(NonCoprime):
        tau_table(2, 2, 1, 0, 2, VertexContext(2))
    with pytest.raises(InvalidTau):
        tau_table(1, 1, -1, 0, 2, VertexContext(2))


# (a, b, sign) and the error every layer must raise for it (None: accepted)
LATTICE_TYPES = [
    (2, 4, 1, NonCoprime),
    (1, 1, -1, InvalidTau),
    (1, 2, -1, InvalidTau),
    (0, 1, 1, NonCoprime),
    (1, 0, 1, NonCoprime),
    (2, 1, 0, InvalidTau),
    (2, 3, 1, None),
    (3, 2, -1, None),
    (1, 1, 1, None),
]


def _outcome(build):
    try:
        build()
    except Exception as exc:  # any class: a ZeroDivisionError must show too
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("a,b,sign,error", LATTICE_TYPES)
def test_every_layer_validates_the_lattice_type_alike(a, b, sign, error):
    """SessionParams, tau_table, symbolic_lax, and for sign +1 LatticeState
    and symbolic_flow_stencil, accept the same types, and refuse the others
    with the same exception class and message."""
    builders = {
        "SessionParams": lambda: SessionParams(a, b, sign),
        "tau_table": lambda: tau_table(a, b, sign, 0, 1, VertexContext(1)),
        "symbolic_lax": lambda: symbolic_lax(a, b, sign),
    }
    if sign == 1:
        builders["LatticeState"] = lambda: LatticeState(a, b, np.ones(2 * max(a + b, 1)))
        builders["symbolic_flow_stencil"] = lambda: symbolic_flow_stencil(a, b)
    outcomes = {name: _outcome(build) for name, build in builders.items()}
    assert len(set(outcomes.values())) == 1, outcomes
    got = outcomes["SessionParams"]
    assert (None if got is None else got[0]) is error, got


def test_shift_checks_fail_on_tables_that_do_not_shift(monkeypatch):
    """Negative control: shifted tables that carry the unshifted entry
    exponents fail both shift checks, each naming the first such entry,
    while the exponent re-derivation (on the unshifted table) passes."""

    def unshifted_prefactors(a, b, sign, shift, max_deg, ctx):
        table = tau_table(a, b, sign, shift, max_deg, ctx)
        table.prefactors = tau_table(a, b, sign, 0, max_deg, ctx).prefactors
        return table

    monkeypatch.setattr(suites, "tau_table", unshifted_prefactors)
    report = tau_shift_suite(1, 1, 1, 4, VertexContext(4))
    assert not report["passed"]
    for check in report["checks"]:
        assert check["name"] in ("tau_shift_c=1/2", "tau_shift_c=1/3"), check
        assert not check["passed"] and check["detail"].startswith("entry ([],[1]);"), check
    assert len(report["checks"]) == 2
    rederived = tau_exponent_suite(1, 1, 1, 4, VertexContext(4))
    assert rederived["passed"]
    assert [c["name"] for c in rederived["checks"]] == ["tau_exponent_rederivation"]


def _kappa_off_on_seven(monkeypatch):
    # weight 7 is seen only by the kappa check
    real = Partition.kappa
    monkeypatch.setattr(Partition, "kappa", lambda nu: real(nu) + (nu == Partition((7,))))


def _schur_gains_an_off_weight_term(monkeypatch):
    real = PowerSumRing.schur

    def off_weight(ring, mu, size=None):
        poly = real(ring, mu, size)
        return poly + PowerSumPoly.one() if mu == Partition((2, 1)) else poly

    monkeypatch.setattr(PowerSumRing, "schur", off_weight)


def _padded_determinants_negated(monkeypatch):
    # only the size-independence check asks for a determinant larger than l(mu)
    real = PowerSumRing._jacobi_trudi

    def negated(ring, mu, nu, size):
        poly = real(ring, mu, nu, size)
        return -poly if size > max(mu.length, nu.length) else poly

    monkeypatch.setattr(PowerSumRing, "_jacobi_trudi", negated)


def _vertex_doubled_at_one_box(monkeypatch):
    real = VertexContext.vertex_def

    def doubled(ctx, nu, nubar):
        value = real(ctx, nu, nubar)
        return value.scale(2) if (nu, nubar) == (Partition((1,)), EMPTY) else value

    monkeypatch.setattr(VertexContext, "vertex_def", doubled)


def _q_inversion_left_out(monkeypatch):
    monkeypatch.setattr(QFieldElem, "invert_q", lambda x: x)


def _matrix_element_at_rho(monkeypatch):
    # the matrix element taken at q^rho instead of its continuation q^(-rho)
    monkeypatch.setattr(VertexContext, "gamma_matrix_element",
                        lambda ctx, nu, nubar: ctx._eta_sum(nu, nubar, "rho"))


@pytest.mark.parametrize("name, mutate, first", [
    ("kappa_conjugation_w8", _kappa_off_on_seven, "[7]"),
    ("weighted_homogeneity_w5", _schur_gains_an_off_weight_term, "[2,1]"),
    ("determinant_size_independence_w5", _padded_determinants_negated, "[]"),
    ("vertex_transposition_w5", _vertex_doubled_at_one_box, "([],[1])"),
    ("vertex_q_inversion_w5", _q_inversion_left_out, "([],[1])"),
    ("vertex_matrix_element_link_w4", _matrix_element_at_rho, "([],[1])"),
])
def test_identity_check_fails_under_its_mutation(monkeypatch, name, mutate, first):
    """Negative control: each mutation fails its identity check, whose detail
    names the first offender, and the report still lists every check."""
    names = [c["name"] for c in identity_suite(6, 5, 5)["checks"]]
    mutate(monkeypatch)
    report = identity_suite(6, 5, 5)
    assert [c["name"] for c in report["checks"]] == names
    check = next(c for c in report["checks"] if c["name"] == name)
    assert not report["passed"] and not check["passed"]
    assert check["detail"].split("; ")[0] == first, check


def test_tau_entries_link_to_generating_coefficients():
    """Three routes agree: the table entry at s = 0 (matrix-element route)
    equals, up to the weight sign, the generating-function coefficient of
    the Schur pair (defining-vertex route with its own specializations)."""
    for (a, b, sign) in [(1, 1, 1), (1, 2, 1), (2, 1, -1)]:
        tau = Fraction(sign * b, a)
        ctx = VertexContext(4)
        table = tau_table(a, b, sign, 0, 4, ctx)
        for nu, nubar in pairs_up_to(4):
            key = (nu.parts, nubar.parts)
            at_zero = qpow(exponent_of(table.prefactors[key])[0]) * table.gammas[key]
            coeff = qpow(
                Fraction(nu.kappa()) * tau / 2 + Fraction(nubar.kappa()) / tau / 2
            ) * ctx.vertex_def(nu, nubar)
            assert at_zero == coeff.scale((-1) ** (nu.weight + nubar.weight)), (
                a, b, sign, nu, nubar,
            )


# -- one session computes each value once ---------------------------------------

# the identities job of the vertex-identities benchmark workload
IDENTITIES_JOB = ["identities", "--weight", "6", "--weight-sym", "5", "--weight-schur", "5",
                  "--shift-check"]


class _Forgetful(dict):
    """A cache that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _unordered(mu: Partition, nu: Partition, point: str) -> tuple:
    return (*sorted((mu.parts, nu.parts)), point)


def _count_identities_job(monkeypatch, tmp_path, forget=()):
    """Run the identities job in-process, counting the VertexContexts and
    PowerSumRings built, the vertex values W computed per pair, the eta-sums
    computed per unordered pair and point, the Jacobi-Trudi determinants
    computed per skew diagram on the cached (size=None) path, the
    Specialization.evaluate calls per (point, shape), and per Specialization
    the p_k values it makes and the p_k its evaluated polynomials hold; the
    context caches named in `forget` keep nothing."""
    counts = {"contexts": 0, "rings": 0, "calls": Counter(), "vertex": Counter(),
              "eta": Counter(), "determinants": Counter(), "evaluated": Counter(), "made": {},
              "read": {}}
    frames = []  # what is being computed, innermost last
    init, evaluate, eta_sum = VertexContext.__init__, Specialization.evaluate, VertexContext._eta_sum
    spec_init, ring_init = Specialization.__init__, PowerSumRing.__init__
    skew_schur, jacobi_trudi = PowerSumRing.skew_schur, PowerSumRing._jacobi_trudi

    def counted_init(ctx, degree_bound):
        init(ctx, degree_bound)
        counts["contexts"] += 1
        for name in forget:
            setattr(ctx, name, _Forgetful())

    def counted_ring_init(ring, degree_bound):
        ring_init(ring, degree_bound)
        counts["rings"] += 1

    def framed(method, frame):
        real = getattr(VertexContext, method)

        def call(ctx, *args):
            counts["calls"][method] += 1
            frames.append(frame(*args))
            try:
                return real(ctx, *args)
            finally:
                frames.pop()

        monkeypatch.setattr(VertexContext, method, call)

    def counted_spec_init(spec, point, bound):
        made = counts["made"][spec] = []
        counts["read"][spec] = set()

        def counted_point(k):
            made.append(k)
            return point(k)

        spec_init(spec, counted_point, bound)

    def counted_evaluate(spec, poly):
        counts["read"][spec] |= {k for m in poly.coeffs for k, e in enumerate(m, start=1) if e}
        frame = frames[-1] if frames else None
        if frame and frame[0] == "W":  # the right factor: the one evaluation per W computed
            counts["vertex"][frame[1:]] += 1
        counts["evaluated"][(spec, frame)] += 1  # the spec is kept, so no id is reused
        return evaluate(spec, poly)

    def counted_eta_sum(ctx, mu, nu, point):
        before = counts["calls"]["skew_at"]
        try:
            return eta_sum(ctx, mu, nu, point)
        finally:
            if counts["calls"]["skew_at"] > before:  # it read its terms, so it computed the sum
                counts["eta"][_unordered(mu, nu, point)] += 1

    def counted_skew_schur(ring, mu, nu, size=None):
        frames.append(("S", size))
        try:
            return skew_schur(ring, mu, nu, size)
        finally:
            frames.pop()

    def counted_jacobi_trudi(ring, mu, nu, size):
        if frames and frames[-1] == ("S", None):
            counts["determinants"][skew_diagram(mu, nu)] += 1
        return jacobi_trudi(ring, mu, nu, size)

    monkeypatch.setattr(VertexContext, "__init__", counted_init)
    monkeypatch.setattr(PowerSumRing, "__init__", counted_ring_init)
    framed("vertex_def", lambda nu, nubar: ("W", nu.parts, nubar.parts))
    framed("skew_at", lambda mu, eta, point: ("s", mu.parts, eta.parts, point))
    monkeypatch.setattr(Specialization, "__init__", counted_spec_init)
    monkeypatch.setattr(Specialization, "evaluate", counted_evaluate)
    monkeypatch.setattr(VertexContext, "_eta_sum", counted_eta_sum)
    monkeypatch.setattr(PowerSumRing, "skew_schur", counted_skew_schur)
    monkeypatch.setattr(PowerSumRing, "_jacobi_trudi", counted_jacobi_trudi)
    assert main(IDENTITIES_JOB + ["--out", str(tmp_path / "report.json")]) == 0
    return counts


def _recomputed(counts) -> list[str]:
    """The counts that show a value computed twice, a second context or a
    second ring."""
    bad = [k for k in ("contexts", "rings") if counts[k] != 1]
    return bad + [k for k in ("vertex", "eta", "determinants", "evaluated")
                  if max(counts[k].values()) > 1]


def _unread_values(counts) -> list[tuple[int, list[int]]]:
    """Per Specialization that makes a p_k no evaluated polynomial holds,
    or one p_k twice: its bound and the p_k it made."""
    return [(spec.bound, made) for spec, made in counts["made"].items()
            if sorted(made) != sorted(counts["read"][spec])]


def test_the_identities_job_computes_each_value_once(monkeypatch, tmp_path):
    counts = _count_identities_job(monkeypatch, tmp_path)
    assert _recomputed(counts) == []
    # a Specialization makes each p_k that an evaluation reads, once, and no other
    assert _unread_values(counts) == []
    assert len(counts["made"]) > 10 and sum(map(len, counts["made"].values())) > 40
    # every pair of the weight-6 equality suite has its W and its hook-form
    # eta-sum (over the conjugates, at q^rho), every gamma of the weight-4
    # shift tables its eta-sum at q^(-rho); one per unordered pair
    pairs = pairs_up_to(6)
    assert len(counts["vertex"]) == len(pairs)
    hooks = {_unordered(nu.conjugate(), nubar.conjugate(), "rho") for nu, nubar in pairs}
    gammas = {_unordered(nu, nubar, "neg") for nu, nubar in pairs_up_to(4)}
    assert set(counts["eta"]) == hooks | gammas
    # the Schur suites share the context's ring: every partition up to the
    # Schur weight has its one determinant there
    assert {skew_diagram(mu, EMPTY) for mu in enumerate_partitions(5)} <= set(
        counts["determinants"])


@pytest.mark.parametrize("cache, seen", [
    ("_vertex", "vertex"), ("_eta", "eta"), ("_skew_at", "evaluated"),
])
def test_the_count_sees_a_context_cache_that_forgets(monkeypatch, tmp_path, cache, seen):
    # negative control: a cache that keeps nothing computes its values again
    assert seen in _recomputed(_count_identities_job(monkeypatch, tmp_path, forget=(cache,)))


def test_the_count_sees_an_eager_specialization(monkeypatch, tmp_path):
    # negative control: a q^(nu+rho) point that makes every p_k up to its
    # bound when it is built, as Specialization.nu_rho once did
    real = Specialization.nu_rho

    def eager(nu, degree_bound):
        spec = real(nu, degree_bound)
        for k in range(1, degree_bound + 1):
            spec._value(k)
        return spec

    monkeypatch.setattr(Specialization, "nu_rho", staticmethod(eager))
    counts = _count_identities_job(monkeypatch, tmp_path)
    assert _unread_values(counts) and _recomputed(counts) == []


def test_the_count_sees_a_second_context(monkeypatch, tmp_path):
    # negative control: a shift suite handed a second context, as
    # `identities --shift-check` once built, computes its gammas again in a
    # second ring
    real = suites.tau_shift_suite
    monkeypatch.setattr(suites, "tau_shift_suite", lambda a, b, sign, degree, ctx:
                        real(a, b, sign, degree, VertexContext(degree)))
    assert _recomputed(_count_identities_job(monkeypatch, tmp_path)) == [
        "contexts", "rings", "eta", "determinants"]


@pytest.mark.parametrize("suite", ["schur_negation_suite", "schur_structure_suite"])
def test_the_count_sees_a_schur_suite_with_its_own_ring(monkeypatch, tmp_path, suite):
    # negative control: a Schur suite handed a ring of its own, as both built
    # before they took the context's, computes its determinants again
    real = getattr(suites, suite)
    monkeypatch.setattr(suites, suite, lambda weight, ring: real(weight, PowerSumRing(weight)))
    assert _recomputed(_count_identities_job(monkeypatch, tmp_path)) == [
        "rings", "determinants"]


# QFieldElem products, rings, Jacobi-Trudi determinants and checked Partition
# constructions of the benchmark's exact vertex jobs, at most their counts
# when the eta-sums were first kept per unordered pair
TAU_JOB = ["tau", "--a", "1", "--b", "2", "--deg", "7"]
WORK_CEILINGS = [
    (TAU_JOB, {"products": 518, "checked partitions": 0}),
    (IDENTITIES_JOB, {"products": 639, "rings": 1, "determinants": 60, "checked partitions": 0}),
]


def _work_over_ceilings(monkeypatch, tmp_path, argv, ceilings) -> dict:
    """Run a job in-process and return the counts above their ceilings."""
    counts = Counter()

    def counted(name, cls, method):
        real = getattr(cls, method)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, method, call)

    counted("products", QFieldElem, "__mul__")
    counted("rings", PowerSumRing, "__init__")
    counted("determinants", PowerSumRing, "_jacobi_trudi")
    counted("checked partitions", Partition, "__post_init__")
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert counts["products"] > 100  # the count sees the job's products
    return {k: counts[k] for k, most in ceilings.items() if counts[k] > most}


@pytest.mark.parametrize("argv, ceilings", WORK_CEILINGS)
def test_the_exact_vertex_jobs_stay_within_their_work_counts(monkeypatch, tmp_path, argv,
                                                             ceilings):
    assert _work_over_ceilings(monkeypatch, tmp_path, argv, ceilings) == {}


def _eta_sum_per_ordered_pair(ctx, mu, nu, point):
    """The eta-sum kept per ordered pair, so (mu, nu) and (nu, mu) are two sums."""
    key = (mu.parts, nu.parts, point)
    got = ctx._eta.get(key)
    if got is None:
        got = QFieldElem.zero()
        for eta in subpartitions(mu.intersect(nu)):
            got = got + ctx.skew_at(mu, eta, point) * ctx.skew_at(nu, eta, point)
        ctx._eta[key] = got
    return got


@pytest.mark.parametrize("argv, ceilings", WORK_CEILINGS)
def test_the_work_counts_see_an_ordered_pair_key(monkeypatch, tmp_path, argv, ceilings):
    # negative control: the eta-sum computed once per order of its pair
    monkeypatch.setattr(VertexContext, "_eta_sum", _eta_sum_per_ordered_pair)
    assert "products" in _work_over_ceilings(monkeypatch, tmp_path, argv, ceilings)


# -- sharing a context changes no value ------------------------------------------


def test_one_shared_context_gives_the_report_of_a_context_per_suite():
    we, ws, wsch = 6, 5, 5
    subs = (
        suites.kappa_suite(8),
        suites.schur_negation_suite(wsch, PowerSumRing(wsch)),
        suites.schur_structure_suite(max(wsch, 4), PowerSumRing(max(wsch, 4))),
        suites.vertex_equality_suite(VertexContext(we), we),
        suites.vertex_symmetry_suite(VertexContext(ws), ws),
        suites.gamma_vertex_link_suite(VertexContext(4), min(4, ws)),
        tau_exponent_suite(1, 1, 1, min(3, we), VertexContext(min(3, we))),
        tau_shift_suite(1, 1, 1, min(we, 4), VertexContext(min(we, 4))),
    )
    fresh = make_report([chk for sub in subs for chk in sub["checks"]])
    shared = identity_suite(we, ws, wsch, shift_check=True)
    assert json.dumps(shared, indent=2) == json.dumps(fresh, indent=2)


def test_a_tau_table_on_a_warm_context_has_the_text_of_a_fresh_one():
    warm = VertexContext(6)
    for nu, nubar in pairs_up_to(6):
        warm.vertex_def(nu, nubar), warm.vertex_hook(nu, nubar)
    tau_table(2, 1, -1, Fraction(1, 3), 5, warm)
    got, want = tau_table(1, 2, 1, 0, 5, warm), tau_table(1, 2, 1, 0, 5, VertexContext(5))
    assert list(got.gammas) == list(want.gammas) and len(want.gammas) == len(pairs_up_to(5))
    for key in want.gammas:
        nu, nubar = Partition(key[0]), Partition(key[1])
        assert str(got.gammas[key]) == str(want.gammas[key])
        assert str(got.entry(nu, nubar)) == str(want.entry(nu, nubar))


def test_skew_at_shares_a_value_between_pairs_of_one_diagram():
    # (2)/(1) and (1,1)/(1) are one cell; (3,1)/(3) keeps one cell after
    # its empty row and columns are deleted
    context = VertexContext(4)
    one_cell = [(Partition((2,)), Partition((1,))), (Partition((1, 1)), Partition((1,))),
                (Partition((3, 1)), Partition((3,))), (Partition((1,)), EMPTY)]
    for point in ("rho", "neg"):
        values = [context.skew_at(mu, eta, point) for mu, eta in one_cell]
        assert all(v is values[0] for v in values)
    assert context.skew_at(Partition((1,)), EMPTY, "rho") == -context.skew_at(
        Partition((1,)), EMPTY, "neg")


def _sharing_mismatches() -> list[str]:
    """Where sharing eta-sums between (mu, nu) and (nu, mu) changes a text.

    Two fresh contexts take each eta-sum of the pairs up to weight 6, the
    first in the order (mu, nu) and the points rho then neg, the second in
    the order (nu, mu) and the points neg then rho.  Tau tables built on the
    first then have the text of tables whose gammas come from a fresh
    context."""
    bad = []
    first, second = VertexContext(6), VertexContext(6)
    for mu, nu in pairs_up_to(6):
        one = {point: str(first._eta_sum(mu, nu, point)) for point in ("rho", "neg")}
        other = {point: str(second._eta_sum(nu, mu, point)) for point in ("neg", "rho")}
        bad += [f"({mu},{nu}) at {p}" for p in one if one[p] != other[p]]
    for args in ((2, 3, 1, 0, 6), (3, 1, -1, Fraction(1, 2), 5)):
        shared, fresh = tau_table(*args, first), tau_table(*args, VertexContext(args[4]))
        assert list(shared.pairs) == list(fresh.pairs)
        bad += [f"tau{args} entry {key}" for key, (nu, nubar) in fresh.pairs.items()
                if str(shared.entry(nu, nubar)) != str(fresh.entry(nu, nubar))]
    return bad


def test_an_eta_sum_shared_by_its_two_orders_keeps_its_text():
    assert _sharing_mismatches() == []


def test_the_sharing_check_sees_an_eta_sum_key_without_its_point(monkeypatch):
    # negative control: the value filed first for a pair, whatever its point
    real = VertexContext._eta_sum

    def pointless(ctx, mu, nu, point):
        first_points = ctx.__dict__.setdefault("first_points", {})
        return real(ctx, mu, nu, first_points.setdefault(_unordered(mu, nu, ""), point))

    monkeypatch.setattr(VertexContext, "_eta_sum", pointless)
    assert _sharing_mismatches()
