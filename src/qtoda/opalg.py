"""Truncated difference-operator algebra with exact coefficients.

Operators are finite windows of Laurent-type series sum_n a_n(s) * Lam^(n*step)
in the shift Lam, with a rational step quantum.  The defining relation is

    (a(s) Lam^x) (b(s) Lam^y) = a(s) b(s+x) Lam^(x+y).

Every operator carries the window on which its coefficients are certified:
`floor`/`ceil` are the lowest/highest known index, an extended integer that
is -inf/+inf where the series is exactly known in that direction (all
unstored coefficients zero), so window arithmetic is plain max and min.
None spells an exact edge only at the boundary: the constructor takes it and
`window()` returns it.
Products propagate windows conservatively, so an assertion quantified over
a window can never silently pass because of discarded terms.

Coefficients are QFieldElem for the dressing/Lax computations, or SitePoly
(polynomials in shifted samples u(s+r) of an undetermined lattice function)
for the symbolic reduction checks.  The algebra names neither ring: it sums
a product coefficient's terms with the ring's own one-pass `sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

from .errors import (
    IncompatibleStep,
    NonInvertibleLeading,
    RelationViolated,
    TruncationInsufficient,
)
from .partitions import (
    EMPTY,
    Partition,
    hook_height,
    hooks_of_size,
    is_vertical_strip,
    partitions_of,
)
from .qfield import QFieldElem, QPowerSum, qpow
from .report import check, make_report
from .sparse import SparsePoly
from .vertex import SessionParams, TauTable, VertexContext, tau_table

# ---------------------------------------------------------------------------
# symbolic lattice-function coefficients
# ---------------------------------------------------------------------------


def _merge_offsets(m1: tuple, m2: tuple) -> tuple:
    return tuple(sorted(m1 + m2))


class SitePoly(SparsePoly):
    """Polynomial in shifted samples u(s + r) with rational coefficients,
    ints where every input coefficient is an int (see `sparse`), so the
    exact flow stencils are formed in int arithmetic.

    A monomial is a sorted tuple of int offsets i (with multiplicity), each
    the rational offset r = i / grid on the polynomial's own grid, a
    positive int.  Rational offsets are only input (the constructor, `u`,
    `shift`) and `terms()` is the only rational read-out; the ring
    operations, `shift`, `==` and `str()` work on the int tuples.  Two
    operands are brought to the lcm of their grids, which is free when the
    grids agree, and `==` is polynomial equality whatever the grids.  The
    shift s -> s + beta translates every offset, refining the grid only
    when beta * grid is not an integer.  Displayed in ascending monomial
    order.
    """

    __slots__ = ("grid",)

    _mono_mul = staticmethod(_merge_offsets)

    def __init__(self, terms: dict | Iterable[tuple] = ()):
        """Sum of (rational offset tuple, coefficient) pairs, or of a dict's items."""
        if isinstance(terms, dict):
            terms = terms.items()
        terms = [(tuple(map(Fraction, m)), c) for m, c in terms]
        grid = math.lcm(*(r.denominator for m, _ in terms for r in m))
        super().__init__(
            (tuple(sorted(r.numerator * (grid // r.denominator) for r in m)), c) for m, c in terms
        )
        self.grid = grid

    @classmethod
    def _raw(cls, coeffs: dict, grid: int = 1) -> "SitePoly":
        new = object.__new__(cls)
        new.coeffs = coeffs
        new.grid = grid
        return new

    def _new(self, coeffs: dict) -> "SitePoly":
        return SitePoly._raw(coeffs, self.grid)

    def _on_grid(self, grid: int) -> "SitePoly":
        """The same polynomial on a multiple of its grid."""
        f = grid // self.grid
        if f == 1:
            return self
        return SitePoly._raw({tuple(i * f for i in m): c for m, c in self.coeffs.items()}, grid)

    def _aligned(self, other: "SitePoly") -> tuple["SitePoly", "SitePoly"]:
        """self and other on the lcm of their grids."""
        if self.grid == other.grid:
            return self, other
        grid = math.lcm(self.grid, other.grid)
        return self._on_grid(grid), other._on_grid(grid)

    def __eq__(self, other) -> bool:
        return type(other) is SitePoly and SparsePoly.__eq__(*self._aligned(other))

    @classmethod
    def sum(cls, polys) -> "SitePoly":
        """The sum of polys on the lcm of their nonzero operands' grids."""
        polys = [p for p in polys if p.coeffs]
        grid = math.lcm(*(p.grid for p in polys))
        return super().sum([p._on_grid(grid) for p in polys])

    def __mul__(self, other: "SitePoly") -> "SitePoly":
        return SparsePoly.__mul__(*self._aligned(other))

    def terms(self):
        """Every term as (tuple of rational offsets, coefficient), all Fractions."""
        grid = self.grid
        for m, c in self.coeffs.items():
            yield tuple(Fraction(i, grid) for i in m), Fraction(c)

    def _mono_str(self, m: tuple) -> str:
        return "*".join(f"u(s{_offset_str(i, self.grid)})" for i in m)

    @staticmethod
    def u(offset=0) -> "SitePoly":
        r = Fraction(offset)
        return SitePoly._raw({(r.numerator,): 1}, r.denominator)

    def shift(self, beta) -> "SitePoly":
        beta = Fraction(beta)
        if not beta:
            return self
        grid = math.lcm(self.grid, beta.denominator)
        f, t = grid // self.grid, beta.numerator * (grid // beta.denominator)
        return SitePoly._raw(
            {tuple(i * f + t for i in m): c for m, c in self.coeffs.items()}, grid
        )


def _offset_str(i: int, grid: int) -> str:
    """The signed text of the offset i / grid after "s", empty for 0."""
    if not i:
        return ""
    d = math.gcd(i, grid)
    n, d = i // d, grid // d
    return f"{'+' if n > 0 else ''}{n}" + (f"/{d}" if d != 1 else "")


# ---------------------------------------------------------------------------
# the operator algebra
# ---------------------------------------------------------------------------


def _product_edge(a: "DiffOp", b: "DiffOp", lower: bool) -> int | float:
    """Floor (lower) or ceil of a*b: a truncated edge of one factor plus the
    other factor's farthest nonzero index on the far side, the nearest such
    bound kept.  A far side that is itself truncated leaves no window."""
    edges = []
    for x, y in ((a, b), (b, a)):
        edge, far = (x.floor, y.ceil) if lower else (x.ceil, y.floor)
        if math.isinf(edge):
            continue
        if math.isfinite(far):
            raise TruncationInsufficient("product of opposite truncations has no window")
        if y.coeffs:
            edges.append(edge + (max(y.coeffs) if lower else min(y.coeffs)))
    return max(edges, default=-math.inf) if lower else min(edges, default=math.inf)


class DiffOp:
    """sum over n of coeffs[n] * Lam^(n*step), certified on [floor, ceil].

    floor and ceil are ints, or -inf and +inf for an exactly known side;
    the constructor also takes None for an exact side, and `window()` shows
    one as None.
    """

    __slots__ = ("step", "coeffs", "floor", "ceil", "zero_coeff")

    def __init__(self, step, coeffs: dict[int, object], floor=None, ceil=None, zero=None):
        if not isinstance(step, Fraction):
            step = Fraction(step)
        if step <= 0:
            raise ValueError("step must be positive")
        self.step = step
        if zero is None and coeffs:
            zero = type(next(iter(coeffs.values()))).zero()
        self.floor = floor = -math.inf if floor is None else floor
        self.ceil = ceil = math.inf if ceil is None else ceil
        self.coeffs = {
            int(n): c for n, c in coeffs.items() if floor <= n <= ceil and not c.is_zero()
        }
        self.zero_coeff = zero

    @staticmethod
    def monomial(step, index: int, coef) -> "DiffOp":
        return DiffOp(Fraction(step), {index: coef})

    def _like(self, coeffs: dict, floor, ceil, step=None, other=None) -> "DiffOp":
        """A result of an operation on self (and other): on self's step unless
        given, with self's coefficient-ring zero witness, else other's."""
        zero = self.zero_coeff
        if zero is None and other is not None:
            zero = other.zero_coeff
        return DiffOp(step or self.step, coeffs, floor, ceil, zero=zero)

    # -- structure ----------------------------------------------------------

    def indices(self) -> list[int]:
        return sorted(self.coeffs)

    def power_of(self, index: int) -> Fraction:
        return index * self.step

    def coeff(self, index: int):
        """Coefficient at an index inside the known window (zero if unstored)."""
        if not self.floor <= index <= self.ceil:
            raise TruncationInsufficient(
                f"coefficient index {index} outside known window {self.window()}"
            )
        got = self.coeffs.get(index)
        if got is not None:
            return got
        if self.zero_coeff is None:
            raise TruncationInsufficient("operator has no coefficient ring witness")
        return self.zero_coeff

    def window(self) -> tuple:
        """(floor, ceil), an exactly known side as None."""
        return tuple(None if math.isinf(e) else e for e in (self.floor, self.ceil))

    def is_zero_on_window(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.floor == -math.inf and self.ceil == math.inf

    # -- step refinement ------------------------------------------------------

    def with_step(self, new_step) -> "DiffOp":
        new_step = Fraction(new_step)
        ratio = self.step / new_step
        if ratio.denominator != 1 or ratio <= 0:
            raise IncompatibleStep(f"cannot reindex step {self.step} onto {new_step}")
        r = ratio.numerator
        if r == 1:
            return self
        return self._like(
            {n * r: c for n, c in self.coeffs.items()}, self.floor * r, self.ceil * r, step=new_step
        )

    @staticmethod
    def _same_step(a: "DiffOp", b: "DiffOp") -> None:
        if a.step != b.step:
            raise IncompatibleStep(
                f"steps {a.step} and {b.step} differ; reindex one with with_step"
            )

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        DiffOp._same_step(self, other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out[n] + c if n in out else c
        floor, ceil = max(self.floor, other.floor), min(self.ceil, other.ceil)
        return self._like(out, floor, ceil, other=other)

    def __neg__(self) -> "DiffOp":
        return self._like({n: -c for n, c in self.coeffs.items()}, self.floor, self.ceil)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        DiffOp._same_step(self, other)
        a, b = self, other
        step = a.step

        floor, ceil = _product_edge(a, b, lower=True), _product_edge(a, b, lower=False)

        pending: dict[int, list] = {}
        for n1, c1 in a.coeffs.items():
            shift_amount = n1 * step
            for n2, c2 in b.coeffs.items():
                n = n1 + n2
                if floor <= n <= ceil:
                    pending.setdefault(n, []).append(c1 * c2.shift(shift_amount))
        out = {
            n: terms[0] if len(terms) == 1 else type(terms[0]).sum(terms)
            for n, terms in pending.items()
        }
        return a._like(out, floor, ceil, other=b)

    def pow_int(self, k: int) -> "DiffOp":
        if k < 1:
            raise ValueError("pow_int needs k >= 1; invert first for negative powers")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- projections ---------------------------------------------------------------

    def proj_nonneg(self) -> "DiffOp":
        """Shift powers >= 0; the whole nonnegative range must be certified."""
        if self.floor > 0:
            raise TruncationInsufficient("nonnegative part not fully certified")
        kept = {n: c for n, c in self.coeffs.items() if n >= 0}
        return self._like(kept, None, max(self.ceil, -1))  # indices < 0 are known zeros

    def proj_neg(self) -> "DiffOp":
        """Shift powers < 0; the whole negative range must be certified."""
        if self.ceil < -1:
            raise TruncationInsufficient("negative part not fully certified")
        kept = {n: c for n, c in self.coeffs.items() if n < 0}
        return self._like(kept, min(self.floor, 0), None)  # indices >= 0 are known zeros

    def with_floor(self, floor) -> "DiffOp":
        return self._like(self.coeffs, max(self.floor, floor), self.ceil)

    def with_ceil(self, ceil) -> "DiffOp":
        return self._like(self.coeffs, self.floor, min(self.ceil, ceil))

    # -- formatting ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"[{c}]*Lam^({self.power_of(n)})"
            for n, c in sorted(self.coeffs.items(), reverse=True)
        )

    def __repr__(self) -> str:
        return f"DiffOp(step={self.step}, window={self.window()}, {self})"


def op_inverse(a: DiffOp, depth: int, side: str | None = None) -> DiffOp:
    """Two-sided inverse of a triangular operator by series expansion.

    The pivot is the extreme power with an invertible coefficient and all
    other powers strictly on one side: side="top" expands descending from
    the highest power, side="bot" ascending from the lowest.  When side is
    None it is inferred from which direction is exactly known.  The result
    is certified out to `depth` or to the operand's own truncation,
    whichever is nearer the pivot.

    Intermediate series terms are truncated at `depth`; this is sound
    because in a one-sided geometric series the coefficients beyond depth
    never feed back into the retained window.  The exact checks use
    closed-form inverses; this expansion is their test reference.
    """
    if not a.coeffs:
        raise NonInvertibleLeading("cannot invert an operator with empty window")
    idxs = a.indices()
    if side is None:
        if a.ceil == math.inf:
            side = "top"
        elif a.floor == -math.inf:
            side = "bot"
        else:
            raise NonInvertibleLeading("both directions truncated; no certified pivot")
    if side == "top":
        if a.ceil != math.inf:
            raise NonInvertibleLeading("unknown terms above the candidate top pivot")
        pivot = idxs[-1]
        if depth > -pivot:
            raise TruncationInsufficient("depth does not reach the pivot term")
    elif side == "bot":
        if a.floor != -math.inf:
            raise NonInvertibleLeading("unknown terms below the candidate bottom pivot")
        pivot = idxs[0]
        if depth < -pivot:
            raise TruncationInsufficient("depth does not reach the pivot term")
    else:
        raise ValueError("side must be 'top', 'bot', or None")
    pivot_coef = a.coeffs[pivot]
    try:
        inv_coef = pivot_coef.shift(-pivot * a.step).inv()
    except ZeroDivisionError as exc:
        raise NonInvertibleLeading(str(exc)) from exc
    except AttributeError as exc:
        raise NonInvertibleLeading("coefficient ring lacks inversion") from exc
    d_inv = DiffOp.monomial(a.step, -pivot, inv_coef)
    rest = a._like({n: c for n, c in a.coeffs.items() if n != pivot}, a.floor, a.ceil)
    if rest.is_zero_on_window() and rest.is_exact():
        return d_inv
    n_op = d_inv * rest  # strictly one-sided series generator
    clamp = (lambda op: op.with_floor(depth)) if side == "top" else (
        lambda op: op.with_ceil(depth)
    )
    n_op = clamp(n_op)
    total = clamp(d_inv)
    term = total
    while True:
        term = clamp((-n_op) * term)
        if term.is_zero_on_window():
            break
        total = total + term
    return total


def monomial_pow(op: DiffOp, k: int) -> DiffOp:
    """Exact integer power of a single-term operator (k may be negative)."""
    if len(op.coeffs) != 1 or not op.is_exact():
        raise ValueError("monomial_pow needs an exact single-term operator")
    ((idx, coef),) = op.coeffs.items()
    if k == 0:
        return DiffOp.monomial(op.step, 0, coef * coef.inv())
    if k < 0:
        inv = DiffOp.monomial(op.step, -idx, coef.shift(-idx * op.step).inv())
        return inv.pow_int(-k)
    return op.pow_int(k)


def _offence(residual: DiffOp) -> tuple | None:
    """(power, coefficient text, message) of the lowest nonzero coefficient of a
    residual that should vanish, or None; an empty window offends at power None."""
    if residual.floor > residual.ceil:
        return None, None, f"empty window {residual.window()}"
    if not residual.coeffs:
        return None
    n = min(residual.coeffs)
    power, c = n * residual.step, residual.coeffs[n]
    return power, str(c), f"first offending coefficient at power {power}: {c}"


def vanishing_check(name: str, residual: DiffOp, show_window: bool = False) -> dict:
    """The check that `residual` is zero on its certified window, which must be non-empty."""
    offence = _offence(residual)
    shown = [offence[2]] if offence else []
    if show_window and not (offence and offence[0] is None):
        shown.insert(0, f"window {residual.window()}")
    return check(name, offence is None, "; ".join(shown))


def require_vanishing(label: str, residual: DiffOp) -> None:
    """Raise RelationViolated unless `residual` is zero on its non-empty certified window."""
    offence = _offence(residual)
    if offence:
        raise RelationViolated(f"{label}: {offence[2]}", power=offence[0], residual=offence[1])


def _require_inverse(label: str, w: DiffOp, w_inv: DiffOp) -> None:
    """Raise RelationViolated unless w * w_inv - 1 vanishes on its certified window."""
    require_vanishing(label, w * w_inv - DiffOp.monomial(w.step, 0, QFieldElem.one()))


# ---------------------------------------------------------------------------
# initial-value dressing operators from the factorization problem
# ---------------------------------------------------------------------------


def _q_factorial_den(n: int) -> QPowerSum:
    """prod_{k=1}^{n} (1 - q^k) as a QPowerSum, multiplied out in ints."""
    P = {0: 1}
    for k in range(1, n + 1):
        for e, v in list(P.items()):
            P[e + k] = P.get(e + k, 0) - v
    return QPowerSum.laurent(P)


def complete_geometric(n: int) -> QFieldElem:
    """h_n of the alphabet {q^(1/2), q^(3/2), ...}: q^(n/2) / prod(1-q^k)."""
    num = QPowerSum.monomial(Fraction(n, 2))
    return QFieldElem(num, _q_factorial_den(n))


def _gauge_exponent(tau: Fraction) -> QFieldElem:
    """The monomial q^((tau+1)(s-1/2)^2/2)."""
    half = (tau + 1) / 2
    return qpow(c0=half * Fraction(1, 4), c1=-half, c2=half)


def conjugated_series(left: QFieldElem, right: QFieldElem,
                      coef: Callable[[int], QFieldElem], lower: bool, T: int) -> DiffOp:
    """left(s) * sum_{n=0..T} coef(n) Lam^k * right(s), k = -n if lower else n,
    for two monomials left and right.

    The Lam^k coefficient is left(s) right(s+k) coef(n); floor -T or ceil T.
    """
    coeffs = {}
    for n in range(T + 1):
        k = -n if lower else n
        coeffs[k] = left * right.shift(k) * coef(n)
    return DiffOp(Fraction(1), coeffs, floor=-T if lower else None, ceil=None if lower else T)


class LaxSession:
    """The time-zero operators of one session, each computed once.

    W0 = q^E1 prod_i(1 - q^(i-1/2) Lam^-1) q^-E1 and
    W0bar = q^E1 prod_i(1 - q^(i-1/2) Lam)^-1 q^E2 and their closed-form
    inverses are built once on the integer grid from one h_n and one e_n
    per n, each inverse certified by an exact product.  The fractional Lax
    powers reindex them onto the refined grid, and the Orlov-type closed
    forms are verified against the same inverses.  A session lives for one
    suite call and never mutates an operator it has handed out.
    """

    def __init__(self, params: SessionParams):
        T = params.T
        if T < 2:
            raise TruncationInsufficient("need T >= 2 for the initial Lax and Orlov operators")
        self.params = params
        E1, E2 = _gauge_exponent(params.tau), _gauge_exponent(1 / params.tau)
        E1_inv = E1.inv()
        self._gauges = E1, E1_inv, E2
        self._h: list[QFieldElem] = []
        self._signed_e: list[QFieldElem] = []
        h, signed_e = self._coefficients(T + 1)
        # W0, W0bar and their inverses: Euler's q-exponential identities
        # invert both middle products in closed form
        self.w0, self.wbar0 = self._series(T)
        self.w0_inv = conjugated_series(E1, E1_inv, h, True, T + 1)
        self.wbar0_inv = conjugated_series(E2.inv(), E1_inv, signed_e, False, T + 1)
        _require_inverse("W0 inverse", self.w0, self.w0_inv)
        _require_inverse("W0bar inverse", self.wbar0, self.wbar0_inv)

    def _coefficients(self, top: int) -> tuple[Callable, Callable]:
        """h_n and (-1)^n e_n for n <= top, as lookups; each is formed once
        per session, so each prod(1-q^k) is multiplied out once."""
        h, signed_e = self._h, self._signed_e
        for n in range(len(h), top + 1):
            h.append(complete_geometric(n))
            # e_n = q^(n(n-1)/2) h_n: the two share prod(1-q^k)
            signed_e.append((h[n] * qpow(Fraction(n * (n - 1), 2))).scale((-1) ** n))
        return h.__getitem__, signed_e.__getitem__

    def _series(self, degree: int) -> tuple[DiffOp, DiffOp]:
        E1, E1_inv, E2 = self._gauges
        h, signed_e = self._coefficients(degree)
        return (conjugated_series(E1, E1_inv, signed_e, True, degree),
                conjugated_series(E1, E2, h, False, degree))

    def dressing_to(self, degree: int) -> tuple[DiffOp, DiffOp]:
        """W0 and W0bar through Lam^-degree and Lam^degree: the session's own
        when its T covers the degree (their coefficients up to T do not
        depend on it), else formed to the degree from the same h_n."""
        if degree <= self.params.T:
            return self.w0, self.wbar0
        return self._series(degree)

    @cached_property
    def lax(self) -> tuple[DiffOp, DiffOp]:
        """Fractional powers of the two Lax operators at time zero, via dressing."""
        params = self.params
        return (
            _dressed_power(self.w0, self.w0_inv, params.step, params.up_index),
            _dressed_power(self.wbar0, self.wbar0_inv, params.step, params.down_index),
        )

    @cached_property
    def orlov(self) -> tuple[DiffOp, DiffOp]:
        """q^(M0) and q^(M0bar), computed from first principles by conjugating
        q^s with the dressing operators, verified against the two-term closed
        forms; the exact closed forms are returned.
        """
        tau = self.params.tau
        q_s = qpow(c1=1)
        qs = DiffOp.monomial(Fraction(1), 0, q_s)
        closed = DiffOp(
            Fraction(1),
            {0: q_s, -1: -qpow(c0=-tau - Fraction(3, 2), c1=tau + 2)},
        )
        closed_bar = DiffOp(
            Fraction(1), {0: q_s, 1: -qpow(c0=Fraction(1, 2), c1=-tau)}
        )
        for label, w, w_inv, expected in (
            ("q^M0 closed form", self.w0, self.w0_inv, closed),
            ("q^M0bar closed form", self.wbar0, self.wbar0_inv, closed_bar),
        ):
            require_vanishing(label, w * qs * w_inv - expected)
        return closed, closed_bar


def _dressed_power(w: DiffOp, w_inv: DiffOp, step, index: int) -> DiffOp:
    """w Lam^(index*step) w^-1 on the refined grid, from integer-grid w and w^-1."""
    mono = DiffOp.monomial(step, index, QFieldElem.one())
    return w.with_step(step) * mono * w_inv.with_step(step)


def initial_lax(session: LaxSession) -> tuple[DiffOp, DiffOp]:
    """Fractional powers of the two Lax operators at time zero, via dressing."""
    return session.lax


def expected_initial_lax(params: SessionParams) -> DiffOp:
    """(1 - q^((tau+1)s - tau - 1/2) Lam^-1) Lam^(1/(tau+1)), exact."""
    tau = params.tau
    u0 = qpow(c0=-tau - Fraction(1, 2), c1=tau + 1)
    return DiffOp(
        params.step,
        {params.up_index: QFieldElem.one(), params.down_index: -u0},
    )


def initial_M(session: LaxSession) -> tuple[DiffOp, DiffOp]:
    """The verified closed forms of q^(M0) and q^(M0bar) (see LaxSession.orlov)."""
    return session.orlov


def check_LM_relation(session: LaxSession) -> dict:
    """Verify the supplementary Lax/Orlov monomial identities at time zero.

    Checks that (1) q^(-M0) L0^(1/(tau+1)) collapses to the monomial
    q^(-s) Lam^(1/(tau+1)); (2) the barred analogue collapses to
    q^(tau*s - tau - 1/2) Lam^(-tau/(tau+1)); (3) the scalar identity tying
    the two monomials, with the fractional power realized through integral
    powers only (the (-sign*b)-th power of the refinement-step monomial
    against the a*(a + sign*b)-th power of the right side).  The collapses
    are checked by multiplying back, L0^(1/(tau+1)) = q^(M0) * monomial,
    so q^(M0) is never inverted.
    """
    params = session.params
    tau = params.tau
    step = params.step
    try:
        qm0, qm0bar = session.orlov
    except RelationViolated as exc:
        return make_report([check("initial_orlov_closed_forms", False, str(exc))])
    checks = [check("initial_orlov_closed_forms", True)]

    lfrac, lbarfrac = session.lax
    target = DiffOp.monomial(step, params.up_index, qpow(c1=-1))
    target_bar = DiffOp.monomial(
        step,
        params.down_index,
        qpow(c0=-tau - Fraction(1, 2), c1=tau),
    )
    for name, lax, qm, mono in (
        ("orlov_monomial_collapse", lfrac, qm0, target),
        ("orlov_monomial_collapse_bar", lbarfrac, qm0bar, target_bar),
    ):
        checks.append(vanishing_check(name, lax - qm.with_step(step) * mono))

    m = params.refinement
    big = monomial_pow(target, m)  # integral-power realization of the step monomial
    lhs = monomial_pow(big, -params.sign * params.b)
    rhs_base = DiffOp.monomial(
        step,
        params.down_index,
        qpow(Fraction(tau + 1, 2))
        * target_bar.coeffs[params.down_index],
    )
    rhs = monomial_pow(rhs_base, params.a * m)
    checks.append(vanishing_check("integerized_power_identity", lhs - rhs))
    return make_report(checks)


# ---------------------------------------------------------------------------
# dressing operators from tau quotients
# ---------------------------------------------------------------------------


@dataclass
class TauDressing:
    """Initial-time dressing data extracted from a tau coefficient table."""

    W: DiffOp
    W_inv: DiffOp
    dW: DiffOp
    Wbar: DiffOp
    Wbar_inv: DiffOp


def _column(n: int) -> Partition:
    return Partition((1,) * n)


def _row(n: int) -> Partition:
    return Partition((n,)) if n else EMPTY


def _hook_sign_sum(table: TauTable, k: int) -> QFieldElem:
    """sum over hooks eta of size k of (-1)^height * entry(eta, empty)."""
    total = QFieldElem.zero()
    for eta in hooks_of_size(k):
        total = total + table.entry(eta, EMPTY).scale((-1) ** hook_height(eta))
    return total


def dressing_from_tau(table: TauTable, flow_k: int = 1) -> TauDressing:
    """Dressing coefficients at time zero, to the table's degree, their
    inverses, and the flow_k time derivative of W.

    The quotient of shifted tau functions is expanded by the one-variable
    substitution t_j -> t_j - z^(-j)/j (and its barred mirror); at time zero
    only single-column and single-row entries contribute.  The inverses are
    the adjoint wave functions, tau quotients too.  The Lam^(-n) (W, W^-1)
    and Lam^n (Wbar, Wbar^-1) coefficients are

        W:       (-1)^n * entry((1^n), empty)(s-1)
        W^-1:    entry((n), empty)(s-n)
        Wbar:    q^(P(s)-P(s-1)) * entry(empty, (n))(s) =: wbar_n(s)
        Wbar^-1: (-1)^n * entry(empty, (1^n))(s+n-1) / wbar_0(s+n)

    where P is the recorded partition-independent cubic prefactor.  Each
    inverse is certified by an exact product; a wrong table entry raises
    RelationViolated.  The time derivative along the flow of index flow_k
    follows from the degree-flow_k part of the table (hook shapes only).
    """
    if flow_k < 1 or flow_k > table.max_deg:
        raise TruncationInsufficient("flow index outside the table degree")
    k = flow_k
    order = table.max_deg
    ns = range(order + 1)

    w = {-n: table.entry(_column(n), EMPTY).shift(-1).scale((-1) ** n) for n in ns}
    W = DiffOp(Fraction(1), w, floor=-order)
    w_inv = {-n: table.entry(_row(n), EMPTY).shift(-n) for n in ns}
    W_inv = DiffOp(Fraction(1), w_inv, floor=-order)
    _require_inverse("tau-route W inverse", W, W_inv)

    # d/dt_k of the tau-quotient coefficients at t = 0
    dk_den = _hook_sign_sum(table, k).shift(-1)
    dw: dict[int, QFieldElem] = {}
    dw_order = order - k
    for n in range(dw_order + 1):
        acc = QFieldElem.zero()
        for nu in partitions_of(n + k):
            coef = 0
            for eta in hooks_of_size(k):
                if nu.contains(eta) and is_vertical_strip(nu, eta):
                    coef += (-1) ** hook_height(eta)
            if coef:
                acc = acc + table.entry(nu, EMPTY).shift(-1).scale(coef)
        dw[-n] = acc.scale((-1) ** n) - w[-n] * dk_den
    dW = DiffOp(Fraction(1), dw, floor=-dw_order, ceil=None)

    gauge = table.cubic_delta(0, -1)
    wbar = {n: gauge * table.entry(EMPTY, _row(n)) for n in ns}
    Wbar = DiffOp(Fraction(1), wbar, ceil=order)
    wbar_inv = {
        n: table.entry(EMPTY, _column(n)).shift(n - 1).scale((-1) ** n) / wbar[0].shift(n)
        for n in ns
    }
    Wbar_inv = DiffOp(Fraction(1), wbar_inv, ceil=order)
    _require_inverse("tau-route Wbar inverse", Wbar, Wbar_inv)
    return TauDressing(W=W, W_inv=W_inv, dW=dW, Wbar=Wbar, Wbar_inv=Wbar_inv)


def cross_check_initial(session: LaxSession, max_deg: int, flow_k: int = 1) -> dict:
    """Cross-check the tau-quotient route against the factorization route,
    for the type (a, b, sign) of the session's parameters.

    W0 and W0bar through max_deg come from the session (LaxSession.dressing_to).

    (i) the tau-derived dressing coefficients match the closed factorization
    forms (the second operator up to a recorded diagonal gauge);
    (ii) the two fractional Lax powers cancel coefficientwise and the
    surviving pair of coefficients satisfies the expected relations;
    (iii) the flow_k Lax equation holds at time zero, with the dressing
    derivative taken from the degree-flow_k part of the table.
    """
    if max_deg < flow_k + 2:
        raise TruncationInsufficient("table degree too small for the flow check")

    params = session.params
    ctx = VertexContext(max_deg)
    table = tau_table(params.a, params.b, params.sign, 0, max_deg, ctx)
    dressing = dressing_from_tau(table, flow_k)

    # truncation stability: a smaller table must reproduce the same coefficients
    table_prev = tau_table(params.a, params.b, params.sign, 0, max_deg - 1, ctx)
    dressing_prev = dressing_from_tau(table_prev, flow_k)
    stable = all(
        dressing.W.coeff(-n) == dressing_prev.W.coeff(-n) for n in range(max_deg)
    ) and all(
        dressing.Wbar.coeff(n) == dressing_prev.Wbar.coeff(n) for n in range(max_deg)
    )
    checks = [check("truncation_stability", stable)]

    # (i) dressing coefficients against the factorization closed forms
    w0, wbar0 = session.dressing_to(max_deg)
    bad = [n for n in range(max_deg + 1) if dressing.W.coeff(-n) != w0.coeff(-n)]
    checks.append(check(
        "dressing_agreement",
        not bad,
        f"first mismatch at Lam^-{bad[0]}" if bad else f"coefficients 0..{max_deg} equal",
    ))
    gauge = dressing.Wbar.coeff(0) / wbar0.coeff(0)
    bad_bar = [
        n for n in range(max_deg + 1) if dressing.Wbar.coeff(n) != gauge * wbar0.coeff(n)
    ]
    checks.append(check(
        "dressing_agreement_bar",
        not bad_bar,
        f"recorded diagonal gauge: {gauge}"
        + ("" if not bad_bar else f"; first mismatch at Lam^{bad_bar[0]}"),
    ))

    # (ii) the fractional powers from the tau route cancel coefficientwise
    step = params.step
    m = params.refinement
    one = QFieldElem.one()
    W, W_inv = dressing.W, dressing.W_inv
    lfrac = _dressed_power(W, W_inv, step, params.up_index)
    lbarfrac = _dressed_power(dressing.Wbar, dressing.Wbar_inv, step, params.down_index)
    checks.append(vanishing_check("fractional_powers_cancel", lfrac + lbarfrac, show_window=True))

    surviving = sorted(lfrac.coeffs)
    checks.append(check(
        "two_surviving_powers",
        surviving == sorted([params.up_index, params.down_index]),
        f"nonzero powers: {[str(n * step) for n in surviving]} on window {lfrac.window()}",
    ))
    # lbarfrac is (pbar_0 + pbar_1 Lam + ...) Lam^(-tau/(tau+1)) itself
    p1 = lfrac.coeff(params.down_index)
    pbar0 = lbarfrac.coeff(params.down_index)
    pbar1 = lbarfrac.coeff(params.up_index)
    checks.append(check("coefficient_relation_pbar1", pbar1 == -one, f"pbar_1 = {pbar1}"))
    checks.append(check("coefficient_relation_pbar0", pbar0 == -p1, f"pbar_0 = {pbar0}"))

    alpha = Fraction(params.a, m)
    w1 = dressing.W.coeff(-1)
    checks.append(check(
        "p1_from_w1",
        p1 == w1 - w1.shift(alpha),
        "p_1 = w_1(s) - w_1(s + 1/(tau+1))",
    ))
    alphabar = Fraction(params.down_index, m)
    w0bar_c = dressing.Wbar.coeff(0)
    checks.append(check(
        "pbar0_from_wbar0",
        pbar0 == w0bar_c / w0bar_c.shift(alphabar),
        "pbar_0 = wbar_0(s) / wbar_0(s - tau/(tau+1))",
    ))

    # (iii) the Lax equation for the flow_k time at t = 0, on the integer grid
    k = flow_k
    L = W * DiffOp.monomial(Fraction(1), 1, one) * W_inv
    Lk = L.pow_int(k)
    Bk = Lk.proj_nonneg()
    X = dressing.dW * W_inv
    lhs = X * L - L * X
    rhs = Bk * L - L * Bk
    checks.append(vanishing_check("lax_equation_flow", lhs - rhs, show_window=True))
    sato = dressing.dW + Lk.proj_neg() * W
    checks.append(vanishing_check("sato_equation_flow", sato, show_window=True))
    return make_report(checks, gauge=str(gauge))
