"""Numeric flows of the reduced lattice hierarchies, with exact oracles.

The reduced Lax operator Lam^(a/(a+b)) - u * Lam^(-b/(a+b)) is realized on
a periodic refined lattice as a cyclic two-diagonal matrix; its integer
powers generate the local flows.  The time derivative of u at site j is

    du_j/dt_k = u_j * (d_j - d_{j-b}),    d = diagonal of the matrix power
                                              to the exponent k*(a+b),

which is the reduced form of the Lax equations.  Matrices are held as
dictionaries of diagonals with unreduced integer offsets, so projections
onto nonnegative shift powers agree with the infinite periodic lattice and
the whole construction is an exact algebra homomorphism down to the cyclic
realization.

The flows need only the offset-0 diagonal d.  flow_rhs and integrate_runs sum
it over lattice paths of k*b steps of +a and k*a of -b (path_plan,
power_diagonal), storing only the partial products that can still return
to offset 0 and are not the all-(+a) one, which is 1: each step is a
gather of -u, an in-place multiply and an in-place add over row slices
fixed in the plan.  Every entry is the same two-product sum banded_mul
forms, so d is bitwise equal to the diagonal of banded_power on floats and
equal on Fractions.  The banded products, elementwise along the last
axis, remain for the traces, the duality check and the tests' reference.

integrate_runs advances several step sizes of one state (simulate's dt and
dt/2) in one RK4 loop, so they share every numpy call: one copy of the
lattice per run, side by side in one site array and each periodic on its
own block, with per-site step sizes.  The copies are ordered by descending
step count, so the loop shrinks to a prefix as runs end, and a NonFinite
names the first run in argument order to fail, as one call per run would.

The flows work elementwise over numpy arrays; object arrays of Fractions
run the same code path exactly.  The oracle compares them on such a state
with symbolic_flow_stencil, which stencil_apply evaluates in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonFinite, UnsupportedFlow
from .opalg import DiffOp, SitePoly
from .report import check, make_report
from .vertex import SessionParams

# ---------------------------------------------------------------------------
# lattice state and the banded cyclic realization
# ---------------------------------------------------------------------------


@dataclass
class LatticeState:
    """Field values on the refined periodic lattice.

    sites[j] is u at s = j/m with m = a + b (positive sign); the length
    must be a multiple of m (the coarse circumference times m).  The type
    (a, b) is validated by SessionParams on construction.
    """

    a: int
    b: int
    sites: np.ndarray

    def __post_init__(self):
        m = self.refinement  # raises NonCoprime unless a, b are positive and coprime
        if self.sites.ndim != 1:
            raise ValueError("sites must be a one-dimensional array")
        if len(self.sites) % m != 0:
            raise ValueError(f"number of sites must be a multiple of the refinement {m}")
        if len(self.sites) < 2 * m:
            raise ValueError("need at least two coarse sites")

    @property
    def refinement(self) -> int:
        return SessionParams(self.a, self.b).refinement


def perturbed_constant_state(
    a: int, b: int, coarse_sites: int, base=1.0, amplitude=0.1, wavelength: int = 12
) -> LatticeState:
    """u_j = base + amplitude * sin(2 pi j / wavelength) on the refined lattice."""
    if wavelength == 0:
        raise ValueError("wavelength must be nonzero")
    n = coarse_sites * (a + b)
    j = np.arange(n)
    with np.errstate(invalid="ignore"):  # inf * sin(0); integrate_runs names the non-finite start
        return LatticeState(a, b, base + amplitude * np.sin(2 * np.pi * j / wavelength))


def lax_diagonals(u: np.ndarray, a: int, b: int) -> dict[int, np.ndarray]:
    """Cyclic matrix of the reduced Lax operator: row j has 1 at column
    j + a and -u_j at column j - b (offsets kept as plain integers); the
    sites run along the last axis of u."""
    return {a: np.ones_like(u), -b: -u}


def banded_mul(x: dict[int, np.ndarray], y: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Product of cyclic banded matrices in diagonal form.

    diag_o(x*y)[j] = sum over o1+o2=o of x_o1[j] * y_o2[(j+o1) mod n], n the
    length of the last axis, along which np.roll wraps.
    """
    out: dict[int, np.ndarray] = {}
    for o1, v1 in x.items():
        for o2, v2 in y.items():
            o = o1 + o2
            term = v1 * np.roll(v2, -o1, axis=-1)
            if o in out:
                out[o] = out[o] + term
            else:
                out[o] = term
    return out


def banded_power(diags: dict[int, np.ndarray], power: int) -> dict[int, np.ndarray]:
    if power < 1:
        raise ValueError("power must be >= 1")
    out = diags
    for _ in range(power - 1):
        out = banded_mul(out, diags)
    return out


def diagonal_of(diags: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Main cyclic diagonal: every stored offset congruent to 0 mod n."""
    total = None
    for o, v in diags.items():
        if o % n == 0:
            total = v.copy() if total is None else total + v
    if total is None:
        total = np.zeros_like(next(iter(diags.values())))
    return total


def _commutator(x: dict[int, np.ndarray], y: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """[x, y] = x*y - y*x of cyclic banded matrices in diagonal form."""
    out = banded_mul(x, y)
    for o, v in banded_mul(y, x).items():
        out[o] = out[o] - v if o in out else -v
    return out


def banded_transpose(diags: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    return {-o: np.roll(v, o) for o, v in diags.items()}


def banded_equal(x: dict[int, np.ndarray], y: dict[int, np.ndarray], n: int) -> bool:
    """Equality as cyclic matrices (offsets compared modulo the period)."""

    def reduced(d):
        acc: dict[int, np.ndarray] = {}
        for o, v in d.items():
            key = o % n
            acc[key] = acc[key] + v if key in acc else v.copy()
        return {o: v for o, v in acc.items() if np.any(v != 0)}

    rx, ry = reduced(x), reduced(y)
    if set(rx) != set(ry):
        return False
    return all(bool(np.all(rx[o] == ry[o])) for o in rx)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def _require_flow(k: int) -> None:
    if k < 1:
        raise UnsupportedFlow("flow index must be >= 1")


def _periodic_gather(offsets, n: int, copies: int) -> np.ndarray:
    """Per offset o, the site (j + o) mod n + r*n of each site j of copy r,
    for copies periodic lattices of n sites side by side in one array."""
    sites = np.arange(copies * n)
    return np.add.outer(offsets, sites) % n + (sites - sites % n)


def path_plan(a: int, b: int, k: int, n: int, copies: int = 1) -> list[tuple]:
    """Gather indices and row slices of the path recursion for the k-th flow.

    After t of the k*(a+b) steps, row i of the band holds the paths with i
    steps of +a, at unreduced offset i*a - (t - i)*b, for each i that can
    still return to offset 0: i <= k*b and t - i <= k*a.  Row i = t is 1
    while t <= k*b and is implicit, never stored.  Entry t - 1 of the plan,
    (idx, down, below, up, prev), takes the band to t + 1 steps: idx holds,
    per new row reached by a step of -b, the sites (j + offset) mod n of
    its -u; new rows down step so from the stored rows below, and new rows
    up by +a from the stored rows prev.  With copies > 1, idx gathers on
    that many lattices of n sites side by side, each periodic on its own
    block: site j of copy r is r*n + j.
    """
    ka, kb = k * a, k * b
    plan = []
    for t in range(1, k * (a + b)):
        lo, hi, lo2 = max(0, t - ka), min(t, kb), max(0, t + 1 - ka)
        first = max(lo + 1, lo2)  # lowest new row also reached by a step of +a
        offsets = [i * a - (t - i) * b for i in range(lo2, hi + 1)]
        plan.append((_periodic_gather(offsets, n, copies),
                     slice(min(t - 1, kb) - lo2 + 1), slice(lo2 - lo, None),
                     slice(first - lo2, hi - lo2 + 1), slice(first - 1 - lo, hi - lo)))
    return plan


def power_diagonal(u: np.ndarray, plan) -> np.ndarray:
    """Offset-0 diagonal of the k*(a+b)-th power of the Lax band, by paths.

    Each entry is the sum of the same two products that banded_mul forms
    for it: the row below times 1 (a step of +a) and the row itself times
    the gathered -u (a step of -b).  As 1*x = x bitwise, the first is the
    row below and the second, from the implicit all-ones row, the gathered
    -u.  A two-term sum commutes exactly, so the result is bitwise equal to
    banded_power(lax_diagonals(u, a, b), k*(a+b))[0] on floats and
    equal on Fractions.
    """
    # The sign stays on every gathered factor: summing over u and negating
    # once is not bitwise equal on signed zeros, as (-0) + (+0) = +0 but
    # -((+0) + (-0)) = -0.
    neg = -u
    band = neg[None]  # after one step: row 0 (-b); row 1 (+a) is implicit
    for idx, down, below, up, prev in plan:
        new = neg[idx]
        if down.stop:  # empty when k*a = 1: no stored row returns after a -b step
            rows = new[down]  # a view, so the product needs no write-back
            rows *= band[below]
        rows = new[up]
        rows += band[prev]
        band = new
    return band[0]  # the one row left: k*b steps of +a, k*a of -b


def _rhs(u: np.ndarray, back: np.ndarray, plan) -> np.ndarray:
    d = power_diagonal(u, plan)
    return u * (d - d[back])  # d_j - d_{j-b}


def flow_rhs(state: LatticeState, k: int = 1) -> np.ndarray:
    """du_j/dt along the k-th local flow: u_j * (d_j - d_{j-b}).

    d is the coefficient of the zeroth shift power of the operator power
    (offset exactly 0 in the unreduced-diagonal representation, which is
    the periodic realization of the infinite-lattice operator; offsets
    that merely wrap to zero modulo the period belong to traces, not to
    the reduced flow).  It is summed over lattice paths by power_diagonal,
    bitwise equal to reading it off banded_power.
    """
    _require_flow(k)
    u = state.sites
    return _rhs(u, np.arange(len(u)) - state.b, path_plan(state.a, state.b, k, len(u)))


# RK4 keeps a linear mode of rate lambda bounded when dt*|lambda| <= 2*sqrt(2)
# on the imaginary axis, where the Volterra-type flows put most of theirs
# (on the negative real axis the bound is 2.785, a little less).
RK4_STABILITY_RADIUS = 2 * math.sqrt(2)
# The most refined sites whose Jacobian rk4_unstable_rate forms: its
# eigenvalues take time as the cube of the size, about 0.25 s at this one.
MAX_JACOBIAN_SITES = 512


def _finite_sites(state: LatticeState) -> np.ndarray:
    """The sites as floats; NonFinite names the first that is not finite."""
    u0 = state.sites.astype(float)
    bad = np.flatnonzero(~np.isfinite(u0))
    if bad.size:
        raise NonFinite(f"initial state is not finite: u_{bad[0]} = {u0[bad[0]]}")
    return u0


def _flow_jacobian(state: LatticeState, k: int) -> np.ndarray:
    """The Jacobian of flow_rhs(., k) at the state.

    Column i is Im f(u + i*h*e_i) / h, a complex step through the flow's
    own path recursion: no difference is taken, so with h far below the
    state's scale the column is exact up to rounding.  The columns are
    formed on copies of the lattice side by side (path_plan's copies), at
    most 4096 sites at a time.
    """
    u = _finite_sites(state)
    n = len(u)
    h = 1e-20 * (np.abs(u).max() or 1.0)
    copies = min(n, max(1, 4096 // n))
    plan = path_plan(state.a, state.b, k, n, copies)
    back = _periodic_gather([-state.b], n, copies)[0]
    jac = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, copies):
            cols = np.arange(first, min(first + copies, n))
            stepped = np.tile(u, copies).astype(complex)
            stepped[np.arange(len(cols)) * n + cols] += h * 1j
            f = _rhs(stepped, back, plan).imag
            jac[:, cols] = f.reshape(copies, n)[:len(cols)].T / h
    return jac


def _spectral_radius(jac: np.ndarray) -> float:
    """The largest modulus of an eigenvalue; inf when an entry is not finite."""
    if not np.isfinite(jac).all():
        return math.inf
    return float(np.abs(np.linalg.eigvals(jac)).max())


def rk4_unstable_rate(state: LatticeState, k: int, dt: float) -> float | None:
    """rho, the spectral radius of the Jacobian of flow_rhs(., k) at the
    state, when dt*rho > RK4_STABILITY_RADIUS, so that RK4 at step dt lets
    a linear mode grow; None when it does not, or on more than
    MAX_JACOBIAN_SITES refined sites.  A state that is not finite raises
    NonFinite, as integrate_runs does.

    d_j sums N = C(k(a+b), ka) paths, each a product of ka values of -u,
    so with U the largest |u_j| each row of the Jacobian sums in absolute
    value to at most 2N(1 + ka)U^(ka), a bound on rho: the Jacobian and its
    eigenvalues are formed only when dt times that bound is above the limit.
    """
    u = _finite_sites(state)
    top, ka = float(np.abs(u).max()), k * state.a
    if len(u) > MAX_JACOBIAN_SITES or top == 0:  # a zero state has a zero Jacobian
        return None
    # dt times the bound, in logs: the path count alone can pass the float range
    paths = math.comb(k * (state.a + state.b), ka)
    if (math.log(dt * 2 * (1 + ka)) + math.log(paths) + ka * math.log(top)
            <= math.log(RK4_STABILITY_RADIUS)):
        return None
    rho = _spectral_radius(_flow_jacobian(state, k))
    return rho if dt * rho > RK4_STABILITY_RADIUS else None


def _traces(u: np.ndarray, a: int, b: int, kmax: int) -> list[list]:
    """H_1..H_kmax of each row of u, from one banded pass over all rows."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    n = u.shape[-1]
    total = sum if u.dtype == object else math.fsum
    columns = []
    with np.errstate(over="ignore", invalid="ignore"):  # callers check that each H_k is finite
        base = banded_power(lax_diagonals(u, a, b), a + b)
        for k in range(1, kmax + 1):
            power = base if k == 1 else banded_mul(power, base)
            rows = diagonal_of(power, n).tolist()
            try:
                columns.append([total(row) for row in rows])
            except OverflowError:  # fsum of finite terms past double range: plain sums, inf or nan
                columns.append([sum(row) for row in rows])
    return [list(h) for h in zip(*columns)]


def conserved_quantities(state: LatticeState, kmax: int = 3) -> list[float]:
    """Traces of the matrix powers to exponents k*(a+b), k = 1..kmax.

    Exactly invariant under every local flow; numeric drift therefore
    measures integrator error only.  Compensated summation for the traces.
    """
    return _traces(state.sites[None], state.a, state.b, kmax)[0]


@dataclass
class Trajectory:
    a: int
    b: int
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n_sites)


def _all_finite(u: np.ndarray, zeros: np.ndarray) -> bool:
    """np.isfinite(u).all() in one reduction: inf*0 and nan*0 are nan."""
    return not math.isnan(u.dot(zeros))


def _step_count(k: int, t_end: float, dt: float, record_every: int) -> int:
    """The number of steps of one run, once each of its inputs is checked."""
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} must be finite")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError(f"t_end = {t_end} must not be negative")
    if record_every < 1:
        raise ValueError(f"record_every = {record_every} must be >= 1")
    _require_flow(k)
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt = {t_end} / {dt} overflows: too many steps")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end = {t_end} is not a whole multiple of dt = {dt}")
    return n_steps


def step_counts(k: int, t_end: float, runs: list[tuple[float, int]]) -> list[int]:
    """The RK4 steps of each (dt, record_every) run of integrate_runs, whose
    input checks it makes first."""
    return [_step_count(k, t_end, dt, every) for dt, every in runs]


def integrate_runs(
    state: LatticeState, k: int, t_end: float, runs: list[tuple[float, int]]
) -> list[Trajectory]:
    """Fixed-step classical fourth-order Runge-Kutta runs of one state to
    t_end, one per (dt, record_every) in runs; deterministic.

    Returns one Trajectory per run, in argument order.  Each step rounds
    u + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4) and the stage arguments
    u + (0.5*dt)*k1, u + (0.5*dt)*k2, u + dt*k3 as written, into two
    buffers.  The runs share one loop and every numpy call in it: a copy
    of the n sites per run lies side by side with the others in one array,
    each periodic on its own block (path_plan's copies), and 0.5*dt, dt and
    dt/6 are arrays of each copy's own value.  An elementwise product
    rounds as the scalar one, so every run is bitwise equal to the run made
    alone.  The copies are ordered by descending step count, so the live
    ones are a prefix: when a run ends, the loop goes on with views of the
    prefix, copying nothing.

    Every input of every run is checked before the first step: t_end must
    be a finite nonnegative whole multiple of each dt, so a run never ends
    early.  A state that leaves double range raises NonFinite naming the
    step of the first run, in argument order, to leave it, as one call per
    run would.  The copies are independent (a copy's nans stay in its block),
    so a copy that fails while a run before it is still going is noted and
    the loop goes on until that run has ended or failed.
    """
    steps = [_step_count(k, t_end, dt, record_every) for dt, record_every in runs]
    u0 = _finite_sites(state)
    n, copies = len(u0), len(runs)
    order = sorted(range(copies), key=lambda r: -steps[r])  # copy c runs runs[order[c]]
    dt = np.repeat(np.array([runs[r][0] for r in order], dtype=float), n)
    plan = path_plan(state.a, state.b, k, n, copies)
    whole = (np.tile(u0, copies), _periodic_gather([-state.b], n, copies)[0],
             0.5 * dt, dt, dt / 6.0, np.empty_like(dt), np.empty_like(dt), np.zeros_like(dt))

    def prefix(live):
        m = live * n
        return [(idx[:, :m], *rows) for idx, *rows in plan], *(x[:m] for x in whole)

    live = copies
    live_plan, u, back, half, full, sixth, arg, acc, zeros = prefix(live)
    times = [[0.0] for _ in runs]
    states = [[u0.copy()] for _ in runs]
    # copy c records after step due[c]: its next multiple of record_every, or
    # its last step; inf once it has recorded its last state
    due = [min(runs[r][1], steps[r]) or math.inf for r in order]
    next_due = min(due, default=math.inf)
    failed: dict[int, int] = {}  # run -> the step at which its copy left double range
    add, mul = np.add, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(max(steps, default=0)):
            if steps[order[live - 1]] == step:  # the last live copy has ended
                live = sum(steps[r] > step for r in order)
                live_plan, u, back, half, full, sixth, arg, acc, zeros = prefix(live)
            k1 = _rhs(u, back, live_plan)
            k2 = _rhs(add(u, mul(half, k1, arg), arg), back, live_plan)
            add(k1, mul(2.0, k2, acc), acc)
            k3 = _rhs(add(u, mul(half, k2, arg), arg), back, live_plan)
            add(acc, mul(2.0, k3, arg), acc)
            k4 = _rhs(add(u, mul(full, k3, arg), arg), back, live_plan)
            add(acc, k4, acc)
            add(u, mul(sixth, acc, acc), u)
            done = step + 1
            if not _all_finite(u, zeros):
                for c in range(live):
                    if not np.isfinite(u[c * n:(c + 1) * n]).all():
                        failed.setdefault(order[c], done)
            if failed and all(steps[r] <= done for r in range(min(failed))):
                raise NonFinite(
                    f"state left double-precision range at step {failed[min(failed)]}")
            if done == next_due:
                for c in range(live):
                    if due[c] == done:
                        r = order[c]
                        times[r].append(done * runs[r][0])
                        states[r].append(u[c * n:(c + 1) * n].copy())
                        due[c] = min(done + runs[r][1], steps[r]) if done < steps[r] else math.inf
                next_due = min(due)
    return [Trajectory(state.a, state.b, np.array(t), np.array(s)) for t, s in zip(times, states)]


# The recorded states whose traces one banded pass forms: it bounds the
# arrays live at once in _traces.
TRACE_BLOCK = 512


def invariant_drift(traj: Trajectory, kmax: int = 3) -> tuple[list[float], list[list[float]]]:
    """Max relative drift per invariant: |H_k(t) - H_k(0)| / |H_k(0) + 1|, or
    the absolute change |H_k(t) - H_k(0)| where H_k(0) + 1 is exactly 0, with
    the traces of the recorded states formed TRACE_BLOCK states per banded
    pass."""
    blocks = range(0, len(traj.states), TRACE_BLOCK)
    series = [h for i in blocks
              for h in _traces(traj.states[i:i + TRACE_BLOCK], traj.a, traj.b, kmax)]
    base = series[0]
    drift = [
        max(abs(row[i] - base[i]) for row in series) / (abs(base[i] + 1.0) or 1.0)
        for i in range(kmax)
    ]
    return drift, series


# ---------------------------------------------------------------------------
# symbolic oracle and structure checks
# ---------------------------------------------------------------------------


def symbolic_lax(a: int, b: int, sign: int = 1) -> DiffOp:
    """The reduced Lax operator with an undetermined coefficient function."""
    p = SessionParams(a, b, sign)
    return DiffOp(p.step, {p.up_index: SitePoly.one(), p.down_index: -SitePoly.u(0)})


def symbolic_flow_stencil(a: int, b: int, k: int = 1) -> SitePoly:
    """The flow right-hand side extracted from the symbolic operator power.

    u(s) * ((L^k)_0 - (L^k)_0 at s - b/(a+b)), with (.)_0 the coefficient
    of the zeroth shift power of the (k*(a+b))-th power.  Only that one
    coefficient is formed: r = k*(a+b) - 1 products by the exact L narrow
    the start window [-a*r, b*r] to [0, 0], skipping every other term.
    """
    m = a + b
    lax = symbolic_lax(a, b, 1)
    r = k * m - 1
    power = lax.with_floor(-a * r).with_ceil(b * r)
    for _ in range(r):
        power = power * lax
    p0 = power.coeff(0)
    return SitePoly.u(0) * (p0 - p0.shift(Fraction(-b, m)))


def stencil_apply(stencil: SitePoly, u: np.ndarray, m: int) -> np.ndarray:
    """Evaluate a symbolic stencil on lattice data (offsets scale by m).

    The stencil's int offsets i on its grid g are the rational offsets
    i / g, so the site offset i * m / g is read in ints; an offset with
    i * m not a multiple of g is off the refined lattice.  Exact on integer
    arrays and object arrays of ints and Fractions, which give an object
    array of Fractions; a float array gets the correctly rounded value.
    u is scaled to integers by the lcm of its denominators, and each site
    sums per (degree, coefficient denominator).
    """
    n, grid = len(u), stencil.grid
    groups: dict[tuple[int, int], list] = {}
    for mono, c in stencil.coeffs.items():
        sites = []
        for i in mono:
            if i * m % grid:
                raise ValueError("stencil offset off the refined lattice")
            sites.append(i * m // grid % n)
        groups.setdefault((len(sites), c.denominator), []).append((c.numerator, sites))
    den = math.lcm(*(Fraction(x).denominator for x in u.tolist()))
    values = [int(Fraction(x) * den) for x in u.tolist()] * 2  # [j + o]: den * u[(j + o) % n]
    out = []
    for j in range(n):
        total = Fraction(0)
        for (deg, cden), terms in groups.items():
            acc = 0
            for c, sites in terms:
                for o in sites:
                    c *= values[j + o]
                acc += c
            total += Fraction(acc, cden * den**deg)
        out.append(total)
    return np.array(out, dtype=u.dtype if u.dtype.kind == "f" else object)


def stationarity_check(a: int, b: int, max_k: int = 3) -> dict:
    """Structure of the negative-parameter reduction (a > b >= 1 coprime).

    The operator comprises only positive shift powers; its (a-b)-th power
    spans the integer powers a down to b with no gaps, and commutes with
    all its own powers, so the corresponding flows are stationary.  All
    verified symbolically with an undetermined coefficient function.
    """
    params = SessionParams(a, b, -1)  # raises unless a > b >= 1 are coprime
    m = params.refinement
    lax = symbolic_lax(a, b, -1)
    power = lax.pow_int(m)
    # physical powers present: integers from b up to a, nothing else
    powers = sorted(power.indices())
    physical = [Fraction(n, m) for n in powers]
    expected = [Fraction(j) for j in range(b, a + 1)]
    checks = [check(
        "band_profile",
        physical == expected,
        f"shift powers of the (a-b)-th power: {[str(x) for x in physical]}",
    )]
    for k in range(1, max_k + 1):
        big = power.pow_int(k)
        comm = big * lax - lax * big
        checks.append(check(
            f"commutator_k{k}",
            comm.is_zero_on_window() and comm.is_exact(),
            "flow generator commutes exactly",
        ))
    band = {str(Fraction(n, m)): str(power.coeffs[n]) for n in powers}
    return make_report(checks, a=a, b=b, tau=str(params.tau), band=band)


def duality_check(state: LatticeState, k: int = 1) -> dict:
    """Exchange symmetry of the lattice type realized on the flow fields.

    The recorded relabeling is the site reflection-with-complement
    sigma(j) = (b - j) mod n together with time reversal: transporting the
    data through sigma negates the flow field (for a = b this is the
    self-duality of the lattice under site reflection).  The transpose
    realization -L^T carries the band profile of the swapped type (b, a);
    the flow transported there satisfies the dual-projection Lax equation
    d/dt(-L^T) = [Bhat, -L^T] with Bhat built from the nonpositive-power
    projection of (-L^T)^(k(a+b)), which is the dual system's generator
    shape.  All identities are checked in exact rational arithmetic.
    """
    a, b = state.a, state.b
    u = np.array([Fraction(x) for x in state.sites.tolist()], dtype=object)
    n = len(u)
    m = state.refinement
    exact = LatticeState(a, b, u)
    rhs = flow_rhs(exact, k)

    # reflection/complement relabeling with time reversal
    sigma = [(b - j) % n for j in range(n)]
    u_ref = np.array([u[sigma[j]] for j in range(n)], dtype=object)
    rhs_ref = flow_rhs(LatticeState(a, b, u_ref), k)
    expected = np.array([-rhs[sigma[j]] for j in range(n)], dtype=object)
    checks = [check(
        "reflection_time_reversal",
        bool(np.all(rhs_ref == expected)),
        "rhs[u o sigma] = -(rhs[u]) o sigma",
    )]

    # invariants are reflection-invariant
    h = conserved_quantities(exact, 2)
    h_ref = conserved_quantities(LatticeState(a, b, u_ref), 2)
    checks.append(check("invariants_under_relabeling", h == h_ref, f"H_1, H_2 = {h}"))

    # dual band realization: -L^T has the (b, a) band profile and satisfies
    # the Lax equation with the dual (nonpositive-power) generator
    lax = lax_diagonals(u, a, b)
    dual = {o: -v for o, v in banded_transpose(lax).items()}
    checks.append(check(
        "dual_band_profile",
        sorted(dual) == [-a, b],
        f"bands of -L^T: {sorted(dual)} (type ({b}, {a}) profile)",
    ))
    power = banded_power(dual, k * m)
    sign_pow = (-1) ** (k * m)
    bhat = {o: -sign_pow * v for o, v in power.items() if o <= 0}
    ldot_dual = {b: np.roll(rhs, -b)}  # -(d/dt L)^T
    checks.append(check(
        "dual_lax_equation",
        banded_equal(_commutator(bhat, dual), ldot_dual, n),
        "d/dt(-L^T) = [Bhat, -L^T] with the dual projection generator",
    ))
    relabeling = f"sigma(j) = ({b} - j) mod n; dual realization -L^T; sign -1"
    return make_report(checks, relabeling=relabeling)
