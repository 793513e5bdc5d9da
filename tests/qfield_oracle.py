"""Exact references for the q-field, independent of the QPowerSum core.

`evaluate` is the evaluation homomorphism: at an integer s and q = t^L,
with t a rational other than 1 and L a grid that makes every exponent an
integer, a QFieldElem is an exact Fraction.  `expand` turns a QPowerSum
into a plain {(c2, c1, c0): coefficient} dict of Fractions, and the `ref_*`
functions are the ring operations on such dicts, and `ref_str` the text
form.  All of them read an element only through `QPowerSum.terms()`, so
they share no polynomial arithmetic or formatting with the code they
check.
"""

from fractions import Fraction
from math import lcm


def value(p, s: int, t: Fraction, L: int) -> Fraction:
    """The QPowerSum p at s and q = t^L."""
    total = Fraction(0)
    for c0, c1, c2, coef in p.terms():
        e = L * (c0 + c1 * s + c2 * s * s)
        if e.denominator != 1:
            raise ValueError(f"L*E(s) = {e} is not an integer at s = {s}, L = {L}")
        total += coef * Fraction(t) ** int(e)
    return total


def evaluate(x, s: int, t: Fraction, L: int) -> Fraction:
    """The QFieldElem x at s and q = t^L; ZeroDivisionError if its
    denominator vanishes there."""
    if t == 1:
        raise ValueError("t must not be 1")
    den = value(x.den, s, t, L)
    if den == 0:
        raise ZeroDivisionError(f"the denominator vanishes at s = {s}, q = ({t})^{L}")
    return value(x.num, s, t, L) / den


def grid(*sums) -> int:
    """The smallest L for which L*E(s) is an integer at every integer s, for
    every exponent E of the given QPowerSums."""
    return lcm(1, *(c.denominator for p in sums for term in p.terms() for c in term[:3]))


def expand(p) -> dict:
    return {(c2, c1, c0): coef for c0, c1, c2, coef in p.terms()}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_shift(a: dict, beta: Fraction) -> dict:
    """s -> s + beta in c2*s^2 + c1*s + c0."""
    return {
        (c2, c1 + 2 * c2 * beta, c0 + c1 * beta + c2 * beta * beta): c
        for (c2, c1, c0), c in a.items()
    }


def _exponent_text(c2: Fraction, c1: Fraction, c0: Fraction) -> str:
    text = ""
    for c, sym in ((c2, "s^2"), (c1, "s"), (c0, "")):
        if c:
            coef = str(c)
            if sym:
                coef = {"1": "", "-1": "-"}.get(coef, coef + "*")
            text += ("+" if text and c > 0 else "") + coef + sym
    return text


def ref_str(p) -> str:
    """The text of a QPowerSum: its terms by descending (c2, c1, c0), each as
    "c*q^(E)", "q^(E)", "-q^(E)" or, for E = 0, "c", joined by " + " and
    " - "; "0" for the zero sum."""
    text = ""
    for c0, c1, c2, coef in sorted(p.terms(), key=lambda t: (t[2], t[1], t[0]), reverse=True):
        if not (c0 or c1 or c2):
            term = str(coef)
        else:
            mono = f"q^({_exponent_text(c2, c1, c0)})"
            term = {1: mono, -1: "-" + mono}.get(coef, f"{coef}*{mono}")
        if not text:
            text = term
        else:
            text += " - " + term[1:] if term.startswith("-") else " + " + term
    return text or "0"

