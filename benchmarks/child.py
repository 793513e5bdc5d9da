"""Run one benchmark job in this fresh interpreter and write its result.

Usage (by run.py only): python child.py SPEC_JSON

SPEC_JSON holds: "src" (the directory qtoda must be imported from),
"kind" ("cli" or "oracle"), "argv" (the qtoda command line), "seed",
"trace" (bool), "setup_only" (bool) and "result" (path of the result file).

Set-up is everything before the job starts: interpreter start,
`import qtoda.cli`, input generation and, when tracing, installing the
wrappers.  The job is timed from the call of `qtoda.cli.main` (or of the
oracle comparison) until it returns.  Times are CLOCK_MONOTONIC, which the
parent reads too, so the parent can take set-up time as the difference
between its spawn time and the job's start time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

# The oracle job: the third flow of type (2, 3), whose exact stencil has
# 2,136 monomials, on a rational state of this many coarse sites.
ORACLE_TYPE = (2, 3, 3)
ORACLE_COARSE_SITES = 3


def oracle_state(seed: int):
    """A rational lattice state sampled from the workload seed."""
    import numpy as np

    from qtoda.volterra import LatticeState

    a, b, _ = ORACLE_TYPE
    rng = np.random.default_rng(seed)
    values = [Fraction(x).limit_denominator(64)
              for x in rng.uniform(0.5, 1.5, ORACLE_COARSE_SITES * (a + b))]
    return LatticeState(a, b, np.array(values, dtype=object))


def run_oracle(state) -> bool:
    """Numeric flow right-hand side against the symbolic stencil, exactly."""
    from qtoda.volterra import flow_rhs, stencil_apply, symbolic_flow_stencil

    a, b, k = ORACLE_TYPE
    numeric = flow_rhs(state, k)
    symbolic = stencil_apply(symbolic_flow_stencil(a, b, k), state.sites, a + b)
    if not len(numeric) == len(symbolic) == len(state.sites):
        return False
    return all(isinstance(x, Fraction) and x == y for x, y in zip(numeric, symbolic))


def main() -> int:
    spec = json.loads(sys.argv[1])
    import qtoda
    import qtoda.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(qtoda.__file__).resolve().parents:
        print(f"qtoda was imported from {qtoda.__file__}, not from {src}", file=sys.stderr)
        return 3
    state = oracle_state(spec["seed"]) if spec["kind"] == "oracle" else None
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()

    result = {"start": time.monotonic()}
    if not spec["setup_only"]:
        oracle_equal = None
        try:
            if spec["kind"] == "oracle":
                oracle_equal = run_oracle(state)
                code = 0
            else:
                code = qtoda.cli.main(list(spec["argv"]))
        except SystemExit as exc:  # argparse usage errors exit with 2
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        result["end"] = time.monotonic()
        result["exit_code"] = code
        result["oracle_equal"] = oracle_equal
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
