"""Command-line front end.

Subcommands: schur, vertex, tau, identities, laxcheck, simulate.
Reports are JSON with a "schema" field; the generation timestamp is kept
on its own line at the top of the document (and as a comment line in CSV)
so byte-identical comparison of two runs only has to skip that line.
Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import QTodaError
from .partitions import Partition
from .schur import PowerSumRing
from .suites import identity_suite, laxcheck_suite
from .vertex import SessionParams, VertexContext, tau_table
from .volterra import (
    RK4_STABILITY_RADIUS,
    TRACE_BLOCK,
    conserved_quantities,
    integrate_runs,
    invariant_drift,
    perturbed_constant_state,
    rk4_unstable_rate,
    step_counts,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# The most refined sites x RK4 steps one simulate run may take, its dt/2
# rerun included: some minutes of RK4 on a small lattice, a few seconds on
# thousands of sites.  A larger run is refused before it starts.
MAX_SITE_STEPS = 10**8
# The most values one simulate run may record, refined sites x recorded
# states over all its runs: 80 MB as float64, before the CSV text.  A
# larger trajectory is refused before it starts.
MAX_RECORDED_VALUES = 10**7
# The most trace work one simulate run may take: H_1..H_kmax of a recorded
# state take about kmax^2 (a+b)^2 multiply-adds per refined site, in as many
# numpy calls per banded pass of TRACE_BLOCK states whether or not the pass
# is full, so a pass counts as full: some seconds on any lattice.  A larger
# run is refused before it starts.
MAX_TRACE_WORK = 10**9


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _render_json(payload: dict) -> str:
    # generated_at first so it occupies its own (skippable) line
    doc = {"generated_at": _timestamp(), "schema": 1, **payload}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _emit(outputs: list[tuple[str | None, str]]):
    """Write each (path, text), no path meaning stdout; a failure removes the files opened here."""
    opened = []
    try:
        for path, text in outputs:
            if not path:
                print(text, end="")
                continue
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                fh.write(text)
    except OSError:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise


def _emit_json(payload: dict, out: str | None):
    _emit([(out, _render_json(payload))])


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_schur(args) -> int:
    ring = PowerSumRing(max(args.mu.weight, 1))
    poly = ring.schur(args.mu) if args.nu is None else ring.skew_schur(args.mu, args.nu)
    if args.json or args.out:
        _emit_json({"mu": str(args.mu), "nu": str(args.nu) if args.nu is not None else None,
                    "polynomial": str(poly)}, args.out)
    else:
        print(poly)
    return EXIT_OK


def cmd_vertex(args) -> int:
    ctx = VertexContext(args.nu.weight + args.nubar.weight)
    lhs = ctx.vertex_def(args.nu, args.nubar)
    rhs = ctx.vertex_hook(args.nu, args.nubar)
    diff = lhs - rhs
    payload = {
        "nu": str(args.nu),
        "nubar": str(args.nubar),
        "defining_form": str(lhs),
        "hook_sum_form": str(rhs),
        "difference": str(diff),
        "equal": diff.is_zero(),
    }
    if args.json or args.out:
        _emit_json(payload, args.out)
    else:
        print("defining form:", payload["defining_form"])
        print("hook-sum form:", payload["hook_sum_form"])
        print("difference:   ", payload["difference"])
    return EXIT_OK if diff.is_zero() else EXIT_CHECK_FAILED


def _require_sizes(*options: tuple[str, int]) -> None:
    """Refuse a negative size, naming its option."""
    for flag, value in options:
        if value < 0:
            raise ValueError(f"{flag} {value} must be >= 0")


def cmd_tau(args) -> int:
    _require_sizes(("--deg", args.deg))
    table = tau_table(args.a, args.b, args.sign, args.shift, args.deg, VertexContext(args.deg))
    entries = {f"{nu}|{nubar}": str(table.entry(nu, nubar))
               for nu, nubar in sorted(table.prefactors)}
    payload = {
        "a": args.a,
        "b": args.b,
        "sign": args.sign,
        "tau": str(table.tau),
        "shift": str(table.shift),
        "degree": args.deg,
        "cubic_prefactor_exponent": [str(c) for c in table.cubic],
        "entries": entries,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_identities(args) -> int:
    _require_sizes(("--weight", args.weight), ("--weight-sym", args.weight_sym),
                   ("--weight-schur", args.weight_schur))
    report = identity_suite(
        weight_equality=args.weight,
        weight_symmetry=args.weight_sym,
        weight_schur=args.weight_schur,
        corrupt=args.self_test_corrupt,
        shift_check=args.shift_check,
    )
    _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_laxcheck(args) -> int:
    if args.flow < 1:
        raise ValueError(f"--flow {args.flow} must be >= 1")
    if args.flow != 1 and not args.deg:
        raise ValueError(f"--flow {args.flow} needs --deg: only the tau cross-check "
                         "runs a flow other than the first")
    if args.deg < 0:
        raise ValueError(f"--deg {args.deg} must be >= 0 (0 skips the cross-check)")
    if 0 < args.deg < args.flow + 2:
        raise ValueError(f"--deg {args.deg} must be 0 or >= {args.flow + 2} for --flow {args.flow}")
    params = SessionParams(args.a, args.b, args.sign, T=args.T)
    if args.flow > 1:
        print("note: the cost grows quickly with --deg", file=sys.stderr)
    report = laxcheck_suite(params, tau_degree=args.deg, flow_k=args.flow)
    _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _require_finite_invariants(*columns: list[float]) -> None:
    """Refuse, before any file is written, an invariant H_k whose figures
    (the k-th of each column) are not all finite."""
    for k, values in enumerate(zip(*columns), start=1):
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"invariant H_{k} is not finite: lower --base or --amplitude")


def cmd_simulate(args) -> int:
    if args.invariants < 1:
        raise ValueError(f"--invariants {args.invariants} must be >= 1")
    csv_path = args.out_csv or f"simulate_a{args.a}_b{args.b}.csv"
    if args.out and Path(args.out).resolve() == Path(csv_path).resolve():
        raise ValueError(f"--out {args.out} and the CSV path {csv_path} are the same file")
    state = perturbed_constant_state(
        args.a, args.b, args.sites, base=args.base, amplitude=args.amplitude,
        wavelength=args.wavelength,
    )
    runs = [(args.dt, args.record_every)]
    if args.order_check:  # the dt/2 run shares the dt run's loop
        if args.dt > 0 and not args.dt / 2:
            raise ValueError(f"--dt {args.dt}: its half step for --order-check underflows to 0")
        runs.append((args.dt / 2, 2 * args.record_every))
    steps, sites = step_counts(args.flows, args.t_end, runs), len(state.sites)
    work = sites * sum(steps)
    if work > MAX_SITE_STEPS:
        raise ValueError(
            f"--t-end {args.t_end} at --dt {args.dt} takes {work:.3g} site steps on "
            f"{sites} refined sites, more than {MAX_SITE_STEPS:.0e}: "
            "raise --dt or lower --t-end"
        )
    # a run records its first state, every record_every-th and its last
    states = [-(-n // every) + 1 for n, (_, every) in zip(steps, runs)]
    recorded = sites * sum(states)
    if recorded > MAX_RECORDED_VALUES:
        raise ValueError(
            f"--record-every {args.record_every} records {recorded:.3g} values on "
            f"{sites} refined sites, more than {MAX_RECORDED_VALUES:.0e}: "
            "raise --record-every or lower --t-end"
        )
    passes = sum(-(-n // TRACE_BLOCK) for n in states)
    traces = passes * TRACE_BLOCK * sites * args.invariants**2 * (args.a + args.b) ** 2
    if traces > MAX_TRACE_WORK:
        raise ValueError(
            f"--invariants {args.invariants} takes {traces:.3g} trace steps on {sites} "
            f"refined sites, more than {MAX_TRACE_WORK:.0e}: lower --invariants"
        )
    # refused before the first step: a start that is not finite, then
    # invariants that already overflow, then a step above RK4's stability limit
    rho = rk4_unstable_rate(state, args.flows, args.dt)
    _require_finite_invariants(conserved_quantities(state, args.invariants))
    if rho is not None:
        raise ValueError(
            f"--dt {args.dt} is above RK4's stability limit 2*sqrt(2)/rho = "
            f"{RK4_STABILITY_RADIUS / rho:.4g}, rho = {rho:.4g} being the spectral radius of "
            "the flow's Jacobian at the initial state: lower --dt"
        )
    traj, *half = integrate_runs(state, args.flows, args.t_end, runs)
    drift, series = invariant_drift(traj, args.invariants)
    drift_half = invariant_drift(half[0], args.invariants)[0] if half else None
    _require_finite_invariants(drift, drift_half or drift)

    n = traj.states.shape[1]
    head = ["time", *(f"u_{j}" for j in range(n)),
            *(f"H_{k}" for k in range(1, args.invariants + 1))]
    lines = [f"# generated_at={_timestamp()}", ",".join(head)]
    for t, state, values in zip(traj.times, traj.states, series):
        lines.append(",".join(repr(float(x)) for x in (t, *state, *values)))

    payload = {
        "a": args.a,
        "b": args.b,
        "coarse_sites": args.sites,
        "refined_sites": n,
        "dt": args.dt,
        "t_end": args.t_end,
        "flow": args.flows,
        "invariants": series[0],
        "max_relative_drift": max(drift),
        "relative_drift": drift,
        "csv": csv_path,
    }
    if drift_half is not None:
        # the ratio is null, not Infinity (which is not JSON), when the half-step drift is 0
        ratio = max(drift) / max(drift_half) if max(drift_half) > 0 else None
        payload["half_step_max_relative_drift"] = max(drift_half)
        payload["order_check_ratio"] = ratio
    # both texts are rendered before any file is opened; a failed write leaves neither file
    _emit([(csv_path, "\n".join(lines) + "\n"), (args.out, _render_json(payload))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common_output(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoda",
        description="Exact vertex/tau-function identities and Volterra-type lattice flows",
    )
    parser.add_argument("--version", action="version", version=f"qtoda {__version__}")
    parser.add_argument(
        "--config",
        help="INI file with one section per subcommand; command-line flags override",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="print a (skew) Schur polynomial in power sums")
    p.add_argument("--mu", type=_parse_partition, required=True, help='partition, e.g. "[2,1]"')
    p.add_argument("--nu", type=_parse_partition, default=None, help="inner partition (skew)")
    _add_common_output(p)
    p.add_argument("--json", action="store_true", help="JSON on stdout instead of text")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("vertex", help="evaluate both vertex forms and their difference")
    p.add_argument("--nu", type=_parse_partition, required=True)
    p.add_argument("--nubar", type=_parse_partition, required=True)
    _add_common_output(p)
    p.add_argument("--json", action="store_true", help="JSON on stdout instead of text")
    p.set_defaults(func=cmd_vertex)

    p = sub.add_parser("tau", help="dump the tau coefficient table as JSON")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--shift", type=_parse_fraction, default=Fraction(0))
    p.add_argument("--deg", type=int, default=4)
    _add_common_output(p)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("identities", help="run the combinatorial identity suite")
    p.add_argument("--weight", type=int, default=6, help="total weight for vertex equality")
    p.add_argument("--weight-sym", type=int, default=5, help="total weight for symmetries")
    p.add_argument("--weight-schur", type=int, default=5)
    p.add_argument("--shift-check", action="store_true",
                   help="also verify the tau-table coordinate-shift identity")
    p.add_argument("--self-test-corrupt", action="store_true", help=argparse.SUPPRESS)
    _add_common_output(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("laxcheck", help="verify the operator relations at time zero")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--T", type=int, default=6, help="truncation order")
    p.add_argument("--deg", type=int, default=0,
                   help="tau-table degree for the dressing cross-check (0 skips it)")
    p.add_argument("--flow", type=int, default=1, help="flow index for the Lax-equation check")
    _add_common_output(p)
    p.set_defaults(func=cmd_laxcheck)

    p = sub.add_parser("simulate", help="integrate a reduced lattice flow")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--sites", type=int, default=12, help="coarse lattice circumference")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--flows", type=int, default=1, help="local flow index k (time t_{ka})")
    p.add_argument("--invariants", type=int, default=3)
    p.add_argument("--base", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--wavelength", type=int, default=12)
    p.add_argument("--record-every", type=int, default=100)
    p.add_argument("--order-check", action="store_true",
                   help="rerun at dt/2 and report the drift ratio")
    p.add_argument("--out-csv", help="trajectory CSV path")
    _add_common_output(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend defaults from the INI section of the chosen subcommand.

    The file is applied here, before argparse, so every spelling argparse
    would take for --config is settled here: "--config FILE" and
    "--config=FILE" are applied, an abbreviation such as --conf is refused.
    """
    flags = [tok.split("=", 1)[0] for tok in argv]
    hits = [i for i, flag in enumerate(flags) if len(flag) > 2 and "--config".startswith(flag)]
    if not hits:
        return argv
    if len(hits) > 1:
        parser.error("--config given more than once")
    idx = hits[0]
    flag, eq, path = argv[idx].partition("=")
    if flag != "--config":
        parser.error(f"{flag} is not read as a config file: spell it --config")
    if not eq:
        if idx + 1 == len(argv):
            parser.error("--config needs a path")
        path = argv[idx + 1]
    import configparser  # here, so that a run with no --config never imports it

    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        parser.error(f"cannot read config file {path}")
    rest = argv[:idx] + argv[idx + (1 if eq else 2) :]
    command = next((tok for tok in rest if not tok.startswith("-")), None)
    if command is None or not cfg.has_section(command):
        return rest
    injected = []
    for key, value in cfg.items(command):
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            injected.append(flag)
        elif value.lower() in ("false", "no", "off"):
            continue
        else:
            injected.extend([flag, value])
    pos = rest.index(command) + 1
    return rest[:pos] + injected + rest[pos:]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config(parser, argv)
    args = parser.parse_args(argv)
    # The commands build no reference cycles, so reference counting frees
    # all they drop and the cyclic collector would only search in vain.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (QTodaError, ValueError, ZeroDivisionError, OSError) as exc:
        # an unwritable output path is a usage error too, not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
