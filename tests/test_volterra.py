"""Lattice flows: stencils against the symbolic oracle, conservation,
integrator behavior, stationarity, duality."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qtoda import volterra
from qtoda.errors import InvalidTau, NonCoprime, NonFinite, TruncationInsufficient, UnsupportedFlow
from qtoda.opalg import SitePoly
from qtoda.volterra import (
    LatticeState,
    Trajectory,
    banded_equal,
    banded_mul,
    banded_power,
    conserved_quantities,
    diagonal_of,
    duality_check,
    flow_rhs,
    integrate_runs,
    invariant_drift,
    lax_diagonals,
    path_plan,
    perturbed_constant_state,
    power_diagonal,
    rk4_unstable_rate,
    stationarity_check,
    stencil_apply,
    symbolic_flow_stencil,
    symbolic_lax,
)

COPRIME_SMALL = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1)]
# every lattice type with a + b <= 7, with the flows k <= 3
FLOW_TYPES = [
    (a, m - a, k)
    for m in range(2, 8)
    for a in range(1, m)
    if math.gcd(a, m - a) == 1
    for k in (1, 2, 3)
]


def rational_state(a, b, coarse, seed=0):
    rng = np.random.default_rng(seed)
    vals = [Fraction(x).limit_denominator(64) for x in rng.uniform(0.5, 1.5, coarse * (a + b))]
    return LatticeState(a, b, np.array(vals, dtype=object))


def test_volterra_stencil_closed_form():
    state = rational_state(1, 1, 6)
    u = state.sites
    rhs = flow_rhs(state, 1)
    assert np.all(rhs == u * (np.roll(u, 1) - np.roll(u, -1)))


def test_symbolic_stencil_volterra():
    stencil = symbolic_flow_stencil(1, 1, 1)
    expected = SitePoly.u(0) * (SitePoly.u(Fraction(-1, 2)) - SitePoly.u(Fraction(1, 2)))
    assert stencil == expected


def _count_fraction_hashes(monkeypatch):
    """A counter of Fraction.__hash__ calls, for the rest of the test."""
    calls, original = [0], Fraction.__hash__

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    return calls


def test_symbolic_stencil_hashes_no_fraction(monkeypatch):
    # SitePoly monomials are int offsets on a grid; with Fraction offsets
    # this build hashed 134,804 Fractions
    calls = _count_fraction_hashes(monkeypatch)
    symbolic_flow_stencil(2, 3, 3)
    assert calls[0] == 0


def test_fraction_hash_counter_sees_a_fraction_dict_key(monkeypatch):
    # negative control: a monomial of rational offsets used as a dict key
    calls = _count_fraction_hashes(monkeypatch)
    {(Fraction(-3, 5), Fraction(2, 5)): 1}
    assert calls[0] == 2  # one hash per offset of the key


@pytest.mark.parametrize("a,b", COPRIME_SMALL)
def test_flow_matches_symbolic_oracle(a, b):
    state = rational_state(a, b, 3, seed=a * 10 + b)
    num = flow_rhs(state, 1)
    sym = stencil_apply(symbolic_flow_stencil(a, b, 1), state.sites, a + b)
    assert np.all(num == sym)


def test_stencil_apply_rejects_offsets_off_the_lattice():
    u = np.array([Fraction(1)] * 4, dtype=object)
    with pytest.raises(ValueError, match="off the refined lattice"):
        stencil_apply(SitePoly.u(Fraction(1, 4)), u, 2)
    with pytest.raises(ValueError, match="off the refined lattice"):
        stencil_apply(SitePoly.u(0) * SitePoly.u(Fraction(-3, 4)), np.ones(4), 2)


def test_stencil_apply_is_exact_on_integer_input():
    # int and object input give Fractions; only a float array stays float
    third = SitePoly.u(0).scale(Fraction(1, 3))
    pair = (SitePoly.u(0) * SitePoly.u(Fraction(1, 2))).scale(Fraction(1, 3))
    ints = [1, 2, 3, 4]
    thirds = [Fraction(x, 3) for x in ints]
    pairs = [Fraction(ints[j] * ints[(j + 1) % 4], 3) for j in range(4)]
    for u in (np.array(ints), np.array(ints, dtype=object)):
        for stencil, expected in ((third, thirds), (pair, pairs)):
            got = stencil_apply(stencil, u, 2)
            assert got.dtype == object and list(got) == expected
            assert all(isinstance(x, Fraction) for x in got)
    got = stencil_apply(third, np.array(ints, dtype=float), 2)
    assert got.dtype == np.float64 and got.tolist() == [float(x) for x in thirds]


# every coprime type with a + b <= 5 and k <= 2, plus the benchmark's (2, 3, 3)
WINDOWED_TYPES = [
    (a, m - a, k)
    for m in range(2, 6)
    for a in range(1, m)
    if math.gcd(a, m - a) == 1
    for k in (1, 2)
] + [(2, 3, 3)]


@pytest.mark.parametrize("a,b,k", WINDOWED_TYPES)
def test_windowed_stencil_equals_the_full_power(a, b, k):
    m = a + b
    p0 = symbolic_lax(a, b).pow_int(k * m).coeff(0)
    reference = SitePoly.u(0) * (p0 - p0.shift(Fraction(-b, m)))
    stencil = symbolic_flow_stencil(a, b, k)
    assert stencil == reference
    assert str(stencil) == str(reference)


def _windowed_p0(a, b, k, floor, ceil):
    """Offset-0 coefficient of L^(k(a+b)) from a first factor certified on
    [floor, ceil], multiplied by the exact L k(a+b) - 1 times."""
    lax = symbolic_lax(a, b)
    power = lax.with_floor(floor).with_ceil(ceil)
    for _ in range(k * (a + b) - 1):
        power = power * lax
    return power.coeff(0)


@pytest.mark.parametrize("a,b,k", [(1, 1, 1), (1, 2, 1), (2, 3, 2), (3, 2, 1)])
def test_a_narrower_start_window_cannot_drop_a_term(a, b, k):
    # the start window [-a*r, b*r] ends at exactly [0, 0]; one narrower at
    # either end leaves offset 0 outside the certified window
    r = k * (a + b) - 1
    assert _windowed_p0(a, b, k, -a * r, b * r) == symbolic_lax(a, b).pow_int(r + 1).coeff(0)
    for floor, ceil in ((-a * r + 1, b * r), (-a * r, b * r - 1)):
        with pytest.raises(TruncationInsufficient, match="outside known window"):
            _windowed_p0(a, b, k, floor, ceil)


def _apply_by_monomials(stencil, u, m):
    """Reference evaluation: every monomial at every site, in Fractions."""
    n = len(u)
    out = []
    for j in range(n):
        total = Fraction(0)
        for mono, c in stencil.terms():
            term = c
            for r in mono:
                term *= Fraction(u[(j + int(r * m)) % n])
            total += term
        out.append(total)
    return out


def _random_stencil(rng, m):
    """Constant plus monomials of degree 1..5, fractional coefficients,
    offsets (negative ones too) on the refined lattice of step 1/m."""
    terms = [((), Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 12))))]
    for _ in range(int(rng.integers(5, 30))):
        degree = int(rng.integers(1, 6))
        mono = tuple(sorted(Fraction(int(o), m) for o in rng.integers(-3 * m, 3 * m, degree)))
        terms.append((mono, Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 40)))))
    return SitePoly(terms)


LARGE_PRIMES = [1_000_000_007, 998_244_353, 2_147_483_647, 4_294_967_291, 10**18 + 9]


@pytest.mark.parametrize("seed", range(12))
def test_stencil_apply_matches_a_per_monomial_fraction_loop(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = m * int(rng.integers(2, 4))
    stencil = _random_stencil(rng, m)
    # ints, and Fractions over large pairwise coprime denominators
    values = [
        int(rng.integers(-5, 6)) if j % 3 == 0
        else Fraction(int(rng.integers(-10**12, 10**12)), LARGE_PRIMES[j % len(LARGE_PRIMES)])
        for j in range(n)
    ]
    u = np.array(values, dtype=object)
    got = stencil_apply(stencil, u, m)
    assert all(isinstance(x, Fraction) for x in got)
    assert list(got) == _apply_by_monomials(stencil, u, m)

    floats = rng.uniform(-2.0, 2.0, n)
    exact = _apply_by_monomials(stencil, floats, m)
    got = stencil_apply(stencil, floats, m)
    assert got.dtype == floats.dtype
    assert got.tolist() == [float(x) for x in exact]  # correctly rounded


@pytest.mark.parametrize("a,b,k", FLOW_TYPES)
def test_power_diagonal_bitwise_equals_banded_power(a, b, k):
    """The path recursion forms the same products as banded_mul; on the
    smallest lattice n = 2(a+b) the offsets wrap around the period."""
    m = a + b
    for n in (2 * m, 3 * m):
        u = np.random.default_rng(100 * a + 10 * b + k + n).uniform(0.5, 1.5, n)
        plan = path_plan(a, b, k, n)
        expected = banded_power(lax_diagonals(u, a, b), k * m)[0]
        assert np.array_equal(power_diagonal(u, plan), expected), n
        exact = rational_state(a, b, n // m, seed=n + k).sites
        expected = banded_power(lax_diagonals(exact, a, b), k * m)[0]
        assert all(power_diagonal(exact, plan) == expected), n


SPECIAL_VALUES = (-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308)


def _special_states(n, seed):
    """One state per special value at a random site, then states drawn from
    signed zeros and ones and from all the special values at once."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    for value in SPECIAL_VALUES:
        u = base.copy()
        u[rng.integers(n)] = value
        yield u
    yield rng.choice(np.array([-0.0, 0.0, -1.0, 1.0]), n)
    yield rng.choice(np.array(SPECIAL_VALUES + (-1.0, 2.0)), n)


def _assert_same_bits(got, expected):
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))


@pytest.mark.parametrize("a,b,k", FLOW_TYPES)
def test_power_diagonal_bitwise_on_special_values(a, b, k):
    """Signed zeros, infinities, nan and overflow: the implicit all-ones row
    stepped by -b is the gathered -u, as 1*x is for every float."""
    m = a + b
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (2 * m, 3 * m):
            plan = path_plan(a, b, k, n)
            for u in _special_states(n, 100 * a + 10 * b + k + n):
                expected = banded_power(lax_diagonals(u, a, b), k * m)[0]
                _assert_same_bits(power_diagonal(u, plan), expected)


@pytest.mark.parametrize("a,b,k", FLOW_TYPES)
def test_path_plan_keeps_exactly_the_rows_that_return(a, b, k):
    """After t steps, the stored rows and the implicit all-(+a) row i = t
    (present while t <= k*b) are exactly the rows whose offset
    i*a - (t - i)*b some choice of the remaining steps brings back to 0;
    each step forms every kept row from the rows it is reached from."""
    power = k * (a + b)
    n = 2 * power * (a + b) + 1  # no two offsets of one step wrap to one site

    def returning(t):
        return [
            i for i in range(t + 1)
            if any(i * a - (t - i) * b + j * a - (power - t - j) * b == 0
                   for j in range(power - t + 1))
        ]

    plan = path_plan(a, b, k, n)
    assert len(plan) == power - 1
    stored = [0]  # after one step: row 0 (-b); row 1 (+a) is implicit
    for t, (idx, down, below, up, prev) in enumerate(plan, start=1):
        assert stored + [t] * (t <= k * b) == returning(t)
        # each new row is gathered at the offset, at t steps, of the row it steps from by -b
        offsets = [x if x <= n // 2 else x - n for x in idx[:, 0].tolist()]
        assert np.array_equal(idx, np.add.outer(offsets, np.arange(n)) % n)
        new = [(o + t * b) // (a + b) for o in offsets]
        assert [i * a - (t - i) * b for i in new] == offsets
        rows = list(range(len(new)))
        assert new[down] == stored[below] == [i for i in stored if i in new]  # -b
        assert [new[r] for r in rows if r not in rows[down]] == [t] * (t <= k * b)
        assert new[up] == [i + 1 for i in stored[prev]]  # +a from a stored row
        assert sorted(new[up]) == [i + 1 for i in stored if i + 1 in new]
        stored = new
    assert stored == returning(power) == [k * b]


def _banded_rk4(state, k, dt, steps):
    """Classical RK4 over the flow read off banded_power (the reference)."""
    a, b = state.a, state.b

    def f(v):
        d = banded_power(lax_diagonals(v, a, b), k * (a + b))[0]
        return v * (d - np.roll(d, b))

    u = state.sites.astype(float).copy()
    states = [u.copy()]
    for _ in range(steps):
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(u.copy())
    return states


@pytest.mark.parametrize("a,b,k", [(1, 1, 1), (2, 3, 1), (1, 2, 2), (3, 4, 1)])
def test_integrate_bitwise_equals_banded_rk4(a, b, k):
    """The benchmark's types, a k = 2 flow and a wide type, each at dt and
    at dt/2, alone and both in one integrate_runs call, as --order-check
    makes it, recording every 3rd and every 6th step."""
    state = perturbed_constant_state(a, b, 6, amplitude=0.3)
    runs = [(1e-3, 3), (5e-4, 6)]
    together = integrate_runs(state, k, 0.05, runs)
    assert len(together) == 2
    for (dt, every), steps, run in zip(runs, (50, 100), together):
        traj = integrate_runs(state, k, 0.05, [(dt, 1)])[0]
        reference = _banded_rk4(state, k, dt, steps)
        assert len(traj.states) == len(reference) == steps + 1
        for step, (got, expected) in enumerate(zip(traj.states, reference)):
            assert np.array_equal(got, expected), (dt, step)
        alone = integrate_runs(state, k, 0.05, [(dt, every)])[0]
        recorded = [*range(0, steps, every), steps]
        assert np.array_equal(run.times, alone.times)
        assert np.array_equal(run.times, [i * dt for i in recorded])
        assert np.array_equal(run.states, alone.states)
        assert np.array_equal(run.states, np.array(reference)[recorded])


# Record bookkeeping: (dt, steps to t_end = 0.012) and record intervals that
# divide 12, 6, 3 or 24 steps, do not divide them, or exceed them.
RECORD_DTS = [(1e-3, 12), (2e-3, 6), (4e-3, 3), (5e-4, 24)]
RECORD_EVERY = [1, 2, 3, 5, 7, 13, 30]


def _record_cases():
    """1-3 runs each; runs with equal step counts and every interval kind."""
    rng = np.random.default_rng(7)
    cases = [[(1e-3, 1)], [(1e-3, 5), (1e-3, 3)], [(2e-3, 7), (2e-3, 7), (5e-4, 30)]]
    for _ in range(24):
        picks = rng.integers(len(RECORD_DTS), size=rng.integers(1, 4))
        cases.append([(RECORD_DTS[i][0], int(rng.choice(RECORD_EVERY))) for i in picks])
    return cases


def _reference_records(state, runs, last_state=True):
    """Per run, the recorded times and states of a plain RK4 loop under the
    rule done % every == 0 or done == steps (without the last-step clause
    when last_state is False)."""
    out = []
    for dt, every in runs:
        steps = dict(RECORD_DTS)[dt]
        states = _banded_rk4(state, 1, dt, steps)
        done = [d for d in range(steps + 1)
                if d == 0 or d % every == 0 or (last_state and d == steps)]
        out.append(([d * dt for d in done], [states[d] for d in done]))
    return out


def _records_differ(trajs, reference):
    return any(not (np.array_equal(t.times, times) and np.array_equal(t.states, states))
               for t, (times, states) in zip(trajs, reference))


def test_recorded_states_follow_the_every_or_last_step_rule():
    state = perturbed_constant_state(1, 1, 2, amplitude=0.3)
    for runs in _record_cases():
        trajs = integrate_runs(state, 1, 0.012, runs)
        assert len(trajs) == len(runs)
        assert not _records_differ(trajs, _reference_records(state, runs)), runs


def test_record_test_sees_bookkeeping_that_skips_a_last_state():
    # 12 steps recorded every 5th: the last state (step 12) is no multiple
    state = perturbed_constant_state(1, 1, 2, amplitude=0.3)
    runs = [(1e-3, 5), (2e-3, 2)]
    trajs = integrate_runs(state, 1, 0.012, runs)
    assert _records_differ(trajs, _reference_records(state, runs, last_state=False))


def lax_equation_residual(state: LatticeState, k: int = 1) -> bool:
    """Exact check of the matrix Lax equation d/dt L = [B, L] on the lattice.

    B is the projection of the (k*(a+b))-th power onto nonnegative shift
    powers; the time derivative enters only through the -b diagonal.  Runs
    in exact rational arithmetic on the given state.
    """
    u = np.array([Fraction(x) for x in state.sites.tolist()], dtype=object)
    n = len(u)
    a, b = state.a, state.b
    rhs = flow_rhs(LatticeState(a, b, u), k)
    lax = lax_diagonals(u, a, b)
    power = banded_power(lax, k * (a + b))
    bk = {o: v for o, v in power.items() if o >= 0}
    return banded_equal(volterra._commutator(bk, lax), {-b: -rhs}, n)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1)])
def test_matrix_lax_equation_exact(a, b):
    state = rational_state(a, b, 3, seed=5)
    assert lax_equation_residual(state, 1)
    assert lax_equation_residual(state, 2)


def test_constant_state_is_stationary():
    state = LatticeState(1, 2, np.full(12, 0.7))
    assert np.allclose(flow_rhs(state, 1), 0.0)
    exact = LatticeState(1, 2, np.array([Fraction(7, 10)] * 12, dtype=object))
    assert all(x == 0 for x in flow_rhs(exact, 1))


def test_flow_validation():
    state = LatticeState(1, 1, np.ones(8))
    with pytest.raises(UnsupportedFlow):
        flow_rhs(state, 0)


def test_conserved_h1_formula():
    state = rational_state(1, 1, 7, seed=3)
    H = conserved_quantities(state, 3)
    assert H[0] == -2 * sum(state.sites)


# -- the hungry Lotka-Volterra lattice, a closed form from outside this package -----


def _seeded_fractions(count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [Fraction(int(p), int(q)) for p, q in rng.integers(1, 50, size=(count, 2))]


def _hungry_lv_rhs(u: list, n: int) -> list:
    """du_j/dt = u_j * sum_{i=1..n} (u_{j-i} - u_{j+i}) on a periodic list:
    the hungry Lotka-Volterra (Bogoyavlensky) lattice, Bogoyavlensky,
    Phys. Lett. A 134 (1988) 34; also Narita, J. Phys. Soc. Japan 51
    (1982) 1682 and Itoh, Prog. Theor. Phys. 78 (1987) 507."""
    N = len(u)
    return [u[j] * sum(u[(j - i) % N] - u[(j + i) % N] for i in range(1, n + 1)) for j in range(N)]


def _hungry_lv_h1(u: list, n: int):
    """Its first trace, H_1 = -(n+1) * sum_j u_j."""
    return -(n + 1) * sum(u)


def _hungry_lv_mismatches(n: int, seed: int) -> list[str]:
    """Where flow_rhs, the symbolic stencil and conserved_quantities(state, 1)
    of type (1, n), tau = n, differ from the closed forms, on a seeded
    Fraction state of n + 2 coarse sites (more than n, so no closed path of
    L^(n+1) wraps the period)."""
    u = _seeded_fractions((n + 2) * (n + 1), seed)
    sites = np.array(u, dtype=object)
    state = LatticeState(1, n, sites)
    bad = []
    if list(flow_rhs(state)) != _hungry_lv_rhs(u, n):
        bad.append("flow")
    if list(stencil_apply(symbolic_flow_stencil(1, n, 1), sites, n + 1)) != _hungry_lv_rhs(u, n):
        bad.append("stencil")
    if conserved_quantities(state, 1) != [_hungry_lv_h1(u, n)]:
        bad.append("H_1")
    return bad


@pytest.mark.parametrize("n", range(1, 7))
def test_type_1_n_is_the_hungry_lotka_volterra_lattice(n):
    for seed in range(3):
        assert _hungry_lv_mismatches(n, seed) == [], (n, seed)


@pytest.mark.parametrize("n", range(2, 6))
def test_the_hungry_lv_check_sees_a_moved_band(monkeypatch, n):
    # negative control: the -u band one site nearer the diagonal, at j - (b-1)
    monkeypatch.setattr(volterra, "lax_diagonals", lambda u, a, b: {a: np.ones_like(u), 1 - b: -u})
    assert "H_1" in _hungry_lv_mismatches(n, 0)


# -- Bogoyavlensky's product lattice and the second Volterra flow, closed
# forms from outside this package ------------------------------------------


def _product_lattice_rhs(u: list, n: int, sign: int = 1) -> list:
    """du_j/dt = (-1)^n u_j (prod_{i=1..n} u_{j+i} - prod_{i=1..n} u_{j-i}) on a
    periodic list: Bogoyavlensky's product generalization of the Volterra
    lattice, Bogoyavlensky, Phys. Lett. A 134 (1988) 34.  sign = -1 gives the
    wrong-signed form of the negative control."""
    N = len(u)
    return [
        sign * (-1) ** n * u[j] * (math.prod(u[(j + i) % N] for i in range(1, n + 1))
                                   - math.prod(u[(j - i) % N] for i in range(1, n + 1)))
        for j in range(N)
    ]


def _product_lattice_h1(u: list, n: int):
    """Its first trace, H_1 = (-1)^n (n+1) sum_j prod_{i=0..n-1} u_{j+i}.

    This needs at least n + 1 coarse sites.  On n coarse sites the ring has
    n(n+1) sites, so the closed path of n+1 steps of +n wraps it once, and
    the periodic trace gains 1 per site: H_1 is then larger by n(n+1),
    exactly 20 at n = 4."""
    N = len(u)
    return (-1) ** n * (n + 1) * sum(math.prod(u[(j + i) % N] for i in range(n)) for j in range(N))


def _second_volterra_rhs(u: list) -> list:
    """du_j/dt_2 = u_j (u_{j+1}(u_j + u_{j+1} + u_{j+2}) - u_{j-1}(u_{j-2} + u_{j-1} + u_j)):
    the second flow of the Volterra lattice of Kac and van Moerbeke, Adv.
    Math. 16 (1975) 160."""
    N = len(u)
    return [
        u[j] * (u[(j + 1) % N] * (u[j] + u[(j + 1) % N] + u[(j + 2) % N])
                - u[j - 1] * (u[j - 2] + u[j - 1] + u[j]))
        for j in range(N)
    ]


def _product_lattice_mismatches(n: int, seed: int, sign: int = 1) -> list[str]:
    """Where flow_rhs, the symbolic stencil and conserved_quantities(state, 1)
    of type (n, 1), tau = 1/n, differ from the closed forms, on a seeded
    Fraction state of n + 1 coarse sites."""
    u = _seeded_fractions((n + 1) ** 2, seed)
    sites = np.array(u, dtype=object)
    state = LatticeState(n, 1, sites)
    expected = _product_lattice_rhs(u, n, sign)
    bad = []
    if list(flow_rhs(state)) != expected:
        bad.append("flow")
    if list(stencil_apply(symbolic_flow_stencil(n, 1, 1), sites, n + 1)) != expected:
        bad.append("stencil")
    if conserved_quantities(state, 1) != [_product_lattice_h1(u, n)]:
        bad.append("H_1")
    return bad


@pytest.mark.parametrize("n", range(1, 7))
def test_type_n_1_is_bogoyavlenskys_product_lattice(n):
    for seed in range(3):
        assert _product_lattice_mismatches(n, seed) == [], (n, seed)


@pytest.mark.parametrize("n", range(2, 7))
def test_the_product_lattice_check_sees_a_moved_gather_and_a_wrong_sign(monkeypatch, n):
    # negative controls: for odd n the wrong-signed form differs from every
    # route; the -u gather of the path recursion one site along moves the flow
    if n % 2:
        assert _product_lattice_mismatches(n, 0, sign=-1) == ["flow", "stencil"]
    real = volterra.path_plan

    def moved(a, b, k, n_sites, copies=1):
        return [((idx + 1) % n_sites, *rows) for idx, *rows in real(a, b, k, n_sites, copies)]

    monkeypatch.setattr(volterra, "path_plan", moved)
    assert "flow" in _product_lattice_mismatches(n, 0)


def test_second_flow_of_type_1_1_is_the_second_volterra_flow():
    for seed in range(3):
        u = _seeded_fractions(2 * 6, seed)
        sites = np.array(u, dtype=object)
        expected = _second_volterra_rhs(u)
        assert list(flow_rhs(LatticeState(1, 1, sites), 2)) == expected
        assert list(stencil_apply(symbolic_flow_stencil(1, 1, 2), sites, 2)) == expected


def test_zero_state_traces_are_shift_traces():
    # pure shift: trace of the k*(a+b)-power is n when the shift wraps fully
    assert conserved_quantities(LatticeState(1, 1, np.zeros(24)), 3) == [0.0, 0.0, 0.0]
    assert conserved_quantities(LatticeState(1, 1, np.zeros(4)), 3) == [0.0, 4.0, 0.0]


def test_banded_algebra_roundtrips():
    state = rational_state(2, 1, 3, seed=8)
    diags = lax_diagonals(state.sites, 2, 1)
    n = len(state.sites)
    sq = banded_mul(diags, diags)
    assert banded_equal(banded_power(diags, 2), sq, n)
    d = diagonal_of(sq, n)
    assert len(d) == n


def test_integration_zero_data_stays_zero():
    traj = integrate_runs(LatticeState(1, 1, np.zeros(12)), 1, 0.5, [(1e-2, 1)])[0]
    assert np.all(traj.states == 0.0)


def test_integration_validates_the_flow_before_a_step():
    # t_end = 0 takes no step, so only an up-front check can raise
    state = LatticeState(1, 1, np.ones(8))
    with pytest.raises(UnsupportedFlow, match="flow index"):
        integrate_runs(state, 0, 0.0, [(1e-3, 1)])[0]


def test_flows_reject_a_non_coprime_type_before_a_step():
    # the state itself refuses the type, so no flow can be started on it
    with pytest.raises(NonCoprime, match="a=2, b=4 are not coprime"):
        LatticeState(2, 4, np.ones(12))


def test_integration_rejects_negative_end_time_and_record_interval():
    state = LatticeState(1, 1, np.ones(8))
    with pytest.raises(ValueError, match="must not be negative"):
        integrate_runs(state, 1, -1.0, [(1e-3, 1)])[0]
    with pytest.raises(ValueError, match="record_every"):
        integrate_runs(state, 1, 0.0, [(1e-3, 0)])[0]


def test_integration_rejects_truncated_end_time():
    with pytest.raises(ValueError, match="whole multiple"):
        integrate_runs(LatticeState(1, 1, np.zeros(4)), 1, 1.0, [(0.3, 1)])[0]


def test_integration_determinism():
    state = perturbed_constant_state(1, 1, 8)
    t1 = integrate_runs(state, 1, 0.5, [(1e-3, 1)])[0]
    t2 = integrate_runs(state, 1, 0.5, [(1e-3, 1)])[0]
    assert np.array_equal(t1.states, t2.states)


def test_translation_equivariance():
    state = perturbed_constant_state(1, 1, 8, amplitude=0.3)
    rolled = LatticeState(1, 1, np.roll(state.sites, 1))
    t1 = integrate_runs(state, 1, 0.3, [(1e-3, 1)])[0]
    t2 = integrate_runs(rolled, 1, 0.3, [(1e-3, 1)])[0]
    assert np.array_equal(np.roll(t1.states[-1], 1), t2.states[-1])


def test_time_reversal_via_reflection():
    """Reflected data runs the flow backwards: integrating the reflected
    state forward, then reflecting back, undoes the evolution."""
    state = perturbed_constant_state(1, 1, 8, amplitude=0.4)
    fwd = integrate_runs(state, 1, 1.0, [(1e-3, 1)])[0]
    end = fwd.states[-1]
    sigma = [(1 - j) % len(end) for j in range(len(end))]
    mirrored = LatticeState(1, 1, end[sigma])
    back = integrate_runs(mirrored, 1, 1.0, [(1e-3, 1)])[0]
    recovered = back.states[-1][sigma]
    assert np.max(np.abs(recovered - state.sites)) < 1e-9


def test_nonfinite_detection():
    bad = LatticeState(1, 1, np.array([1e200, 1e200, -1e200, -1e200] * 2))
    with pytest.raises(NonFinite):
        integrate_runs(bad, 1, 1.0, [(1e-2, 1)])[0]


def _overflowing_rhs(kind, *hits):
    """A stand-in for volterra._rhs: 0 except, for each (site, step) of
    hits, at u[site] at that step, where its four stages (1e308, 1e308,
    -1e308, -1e308 for "nan") overflow the weighted sum
    k1 + 2*k2 + 2*k3 + k4 to +inf, -inf or inf - inf."""
    stages = {"+inf": [1e308] * 4, "-inf": [-1e308] * 4, "nan": [1e308] * 2 + [-1e308] * 2}
    calls = itertools.count()

    def rhs(u, back, plan):
        call = next(calls)
        out = np.zeros_like(u)
        for site, step in hits:
            if call // 4 + 1 == step:
                out[site] = stages[kind][call % 4]
        return out

    return rhs


def _isfinite_step(rhs, u, dt, steps):
    """First step of a plain RK4 loop at which np.isfinite(u).all() fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            k1 = rhs(u, None, None)
            k2 = rhs(u + 0.5 * dt * k1, None, None)
            k3 = rhs(u + 0.5 * dt * k2, None, None)
            k4 = rhs(u + dt * k3, None, None)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(u).all():
                return step + 1
    return None


def _failing_step(call):
    """The step that call's NonFinite names, or None when it returns."""
    try:
        call()
    except NonFinite as err:
        return int(re.fullmatch(r"state left double-precision range at step (\d+)", str(err))[1])
    return None


def _check_stops_where_isfinite_does(monkeypatch, kind, site):
    state = LatticeState(1, 1, np.ones(8))
    expected = _isfinite_step(_overflowing_rhs(kind, (site, 3)), state.sites, 1.0, 5)
    assert expected == 3
    monkeypatch.setattr(volterra, "_rhs", _overflowing_rhs(kind, (site, 3)))
    assert _failing_step(lambda: integrate_runs(state, 1, 5.0, [(1.0, 1)])[0]) == expected


@pytest.mark.parametrize("site", [0, -1])
@pytest.mark.parametrize("kind", ["+inf", "-inf", "nan"])
def test_finiteness_check_stops_at_the_step_isfinite_does(monkeypatch, kind, site):
    _check_stops_where_isfinite_does(monkeypatch, kind, site)


def test_finiteness_test_sees_a_check_that_misses_nan(monkeypatch):
    monkeypatch.setattr(volterra, "_all_finite", lambda u, zeros: not np.isinf(u).any())
    with pytest.raises(AssertionError):
        _check_stops_where_isfinite_does(monkeypatch, "nan", 0)


@pytest.mark.parametrize("kind", ["+inf", "nan"])
@pytest.mark.parametrize("dt_hits, half_hits, expected", [
    ([(3, 4)], [(5, 2)], 4),  # the dt/2 copy fails first: the dt run's step is still named
    ([(3, 4)], [(5, 7)], 4),
    ([], [(5, 2)], 2),  # the dt/2 copy alone, before the dt run has ended at step 5
    ([], [(5, 7)], 7),  # and after it has ended
    ([(0, 5)], [], 5),
])
def test_nonfinite_names_the_first_run_in_argument_order(monkeypatch, kind, dt_hits,
                                                         half_hits, expected):
    """integrate_runs at (dt, dt/2) names the step that a run at dt alone,
    then a run at dt/2 alone, would name.  The loop runs the dt/2 copy (10 steps)
    on sites 0..7 and the dt copy (5 steps) on sites 8..15."""
    state = LatticeState(1, 1, np.ones(8))
    sequential = None
    for dt, hits in ((1.0, dt_hits), (0.5, half_hits)):
        monkeypatch.setattr(volterra, "_rhs", _overflowing_rhs(kind, *hits))
        sequential = sequential or _failing_step(lambda: integrate_runs(state, 1, 5.0, [(dt, 1)]))
    assert sequential == expected
    hits = [(site + 8, step) for site, step in dt_hits] + half_hits
    monkeypatch.setattr(volterra, "_rhs", _overflowing_rhs(kind, *hits))
    runs = [(1.0, 1), (0.5, 1)]
    assert _failing_step(lambda: integrate_runs(state, 1, 5.0, runs)) == expected


def test_nonfinite_start_is_named_before_a_step():
    # t_end = 0 takes no step, so only the up-front check can raise
    bad = LatticeState(1, 1, np.array([1.0, np.inf, 1.0, 1.0]))
    with pytest.raises(NonFinite, match="initial state is not finite: u_1 = inf"):
        integrate_runs(bad, 1, 0.0, [(1e-3, 1)])[0]
    with pytest.raises(ValueError, match="wavelength"):
        perturbed_constant_state(1, 1, 4, wavelength=0)


def test_conservation_drift_small():
    state = perturbed_constant_state(1, 1, 12)
    traj = integrate_runs(state, 1, 2.0, [(1e-3, 250)])[0]
    drift, series = invariant_drift(traj, 3)
    assert max(drift) < 1e-10
    assert len(series[0]) == 3


def _trace_trajectory(case):
    """Float trajectories of three flows, one longer than a banded pass
    takes, Fraction states (the object arrays duality_check passes) and
    states with +-inf, nan or an overflow."""
    if case == "fractions":
        rows = [rational_state(2, 1, 3, seed=seed).sites for seed in range(4)]
        return Trajectory(2, 1, np.arange(4.0), np.array(rows))
    if case == "special":
        rows = np.tile(perturbed_constant_state(1, 2, 4, amplitude=0.3).sites, (5, 1))
        rows[1, 0], rows[2, -1], rows[3, 5], rows[4, 2] = np.inf, -np.inf, np.nan, 1e200
        return Trajectory(1, 2, np.arange(5.0), rows)
    if case == "blocks":
        state = perturbed_constant_state(1, 1, 6, amplitude=0.3)
        return integrate_runs(state, 1, 0.6, [(1e-3, 1)])[0]
    a, b, k = case
    state = perturbed_constant_state(a, b, 6, amplitude=0.3)
    return integrate_runs(state, k, 0.05, [(1e-3, 10)])[0]


def _traces_by_row(traj):
    """The loop invariant_drift ran before: one conserved_quantities per state."""
    return [conserved_quantities(LatticeState(traj.a, traj.b, row.copy()), 3) for row in traj.states]


def _check_batched_traces(traj, expected):
    with np.errstate(over="ignore", invalid="ignore"):  # the drift of an inf trace
        _, series = invariant_drift(traj, 3)
    # repr tells apart every float but nan payloads, and every Fraction
    assert [list(map(repr, row)) for row in series] == [list(map(repr, row)) for row in expected]


@pytest.mark.parametrize("case", [(1, 1, 1), (2, 3, 1), (1, 2, 2), "blocks", "fractions", "special"])
def test_batched_traces_equal_per_row_traces(case):
    traj = _trace_trajectory(case)
    assert len(traj.states) > 3
    _check_batched_traces(traj, _traces_by_row(traj))


def _banded_mul_along_states(x, y):
    """banded_mul rolling along axis 0, the recorded states, not the sites."""
    out = {}
    for o1, v1 in x.items():
        for o2, v2 in y.items():
            term = v1 * np.roll(v2, -o1, axis=0)
            out[o1 + o2] = out[o1 + o2] + term if o1 + o2 in out else term
    return out


def test_batched_traces_test_sees_a_roll_along_the_states(monkeypatch):
    traj = _trace_trajectory((2, 3, 1))
    expected = _traces_by_row(traj)
    monkeypatch.setattr(volterra, "banded_mul", _banded_mul_along_states)
    with pytest.raises(AssertionError):
        _check_batched_traces(traj, expected)


def test_stationarity_reports():
    rep = stationarity_check(2, 1)
    assert rep["passed"]
    assert list(rep["band"]) == ["1", "2"]
    assert rep["band"]["2"] == "1"
    assert rep["band"]["1"] == "-u(s)"
    for a, b in [(3, 1), (3, 2)]:
        assert stationarity_check(a, b)["passed"], (a, b)
    # the lattice type is validated by SessionParams(a, b, -1)
    for a, b, error in [(1, 2, InvalidTau), (1, 1, InvalidTau), (4, 2, NonCoprime),
                        (2, 0, NonCoprime)]:
        with pytest.raises(error):
            stationarity_check(a, b)


# flows 1-3 of each type; a flow-1 case is named by its type alone
@pytest.mark.parametrize("a,b,k", [
    pytest.param(a, b, k, id=f"{a}-{b}" if k == 1 else f"{a}-{b}-k{k}")
    for k in (1, 2, 3) for a, b in [(1, 1), (1, 2), (2, 1), (2, 3)]
])
def test_duality_check(a, b, k):
    state = perturbed_constant_state(a, b, 6)
    rep = duality_check(state, k)
    assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]
    assert "sigma(j)" in rep["relabeling"]


DUALITY_CHECKS = ["reflection_time_reversal", "invariants_under_relabeling",
                  "dual_band_profile", "dual_lax_equation"]


def test_duality_zero_state():
    # the zero field takes the general path: every check runs and passes
    for a, b in [(2, 1), (1, 1), (1, 2), (2, 3), (3, 1)]:
        rep = duality_check(LatticeState(a, b, np.zeros(3 * (a + b))))
        assert [c["name"] for c in rep["checks"]] == DUALITY_CHECKS, (a, b)
        assert rep["passed"], (a, b, [c for c in rep["checks"] if not c["passed"]])


def test_duality_zero_state_sees_a_nonzero_flow(monkeypatch):
    # negative control: at u = 0 a flow field shifted by 1 is not reversed
    # by the reflection, the failure the zero field must be able to show
    exact_rhs = volterra.flow_rhs
    monkeypatch.setattr(volterra, "flow_rhs", lambda state, k=1: exact_rhs(state, k) + 1)
    rep = duality_check(LatticeState(2, 1, np.zeros(9)))
    assert not rep["passed"]
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert "reflection_time_reversal" in failed


# -- the spectral radius behind simulate's step limit -------------------------------


def test_spectral_radius_of_a_constant_volterra_lattice():
    # u_j' = u_j (u_(j+1) - u_(j-1)) at u = c has the circulant Jacobian
    # -c (S - S^-1), of eigenvalues -2ic sin(2 pi m / n): rho = 2c on 24 sites
    jac = volterra._flow_jacobian(LatticeState(1, 1, np.full(24, 1.5)), 1)
    assert volterra._spectral_radius(jac) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("a, b, k, amplitude", [(1, 1, 1, 0.85), (2, 3, 1, 0.3), (2, 3, 3, 0.1)])
def test_flow_jacobian_matches_central_differences(a, b, k, amplitude):
    state = perturbed_constant_state(a, b, 4, amplitude=amplitude)
    u, h = state.sites, 1e-6
    columns = []
    for i in range(len(u)):
        step = np.zeros_like(u)
        step[i] = h
        columns.append((flow_rhs(LatticeState(a, b, u + step), k)
                        - flow_rhs(LatticeState(a, b, u - step), k)) / (2 * h))
    reference = np.array(columns).T
    jac = volterra._flow_jacobian(state, k)
    assert np.abs(jac - reference).max() <= 1e-6 * np.abs(reference).max()


def test_rk4_unstable_rate_names_rho_only_above_the_limit():
    # the third flow of (2, 3) at the default state: rho = 1.403e4, so the
    # limit is 2.016e-4; the path-count bound (1.2e5) alone would refuse 2e-4
    state = perturbed_constant_state(2, 3, 12)
    assert rk4_unstable_rate(state, 3, 1e-3) == pytest.approx(14030.39, rel=1e-6)
    assert rk4_unstable_rate(state, 3, 2.02e-4) is not None
    assert rk4_unstable_rate(state, 3, 2e-4) is None
    assert rk4_unstable_rate(state, 3, 1e-5) is None
    assert rk4_unstable_rate(LatticeState(1, 1, np.zeros(8)), 1, 1e3) is None


@pytest.mark.parametrize("a, b, k, amplitude", [(1, 1, 1, 0.85), (2, 3, 1, 0.3), (2, 3, 3, 0.1),
                                                 (3, 4, 2, 0.1), (1, 2, 3, 0.5)])
def test_the_path_count_bound_covers_every_row_of_the_jacobian(a, b, k, amplitude):
    state = perturbed_constant_state(a, b, 3, amplitude=amplitude)
    jac = volterra._flow_jacobian(state, k)
    bound = 2 * math.comb(k * (a + b), k * a) * (1 + k * a) * np.abs(state.sites).max() ** (k * a)
    assert np.abs(jac).sum(axis=1).max() <= bound


def test_rk4_unstable_rate_edge_cases():
    assert rk4_unstable_rate(LatticeState(1, 1, np.full(24, 1e200)), 3, 1e-3) == math.inf
    assert rk4_unstable_rate(perturbed_constant_state(1, 1, 257), 1, 1e3) is None  # 514 sites
    with pytest.raises(NonFinite, match="initial state is not finite: u_1 = nan"):
        rk4_unstable_rate(LatticeState(1, 1, np.array([1.0, np.nan, 1.0, 1.0])), 1, 1e-3)
