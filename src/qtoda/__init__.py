"""Exact q-series algebra for the two-leg topological vertex, lattice tau
functions with their dressing operators, and Volterra-type reduced flows."""

from .errors import (
    DegreeBoundExceeded,
    DenominatorVanishes,
    IncompatibleStep,
    InvalidTau,
    NonCoprime,
    NonFinite,
    NonInvertibleLeading,
    QTodaError,
    RelationViolated,
    TruncationInsufficient,
    UnsupportedFlow,
)
from .qfield import ExponentPoly, QFieldElem, QPowerSum, evaluate, qpow, shift_s
from .partitions import (
    Partition,
    comb_factor,
    conjugate,
    enumerate_partitions,
    kappa,
    z_factor,
)
from .schur import (
    PowerSumPoly,
    PowerSumRing,
    Specialization,
    negate_p,
    specialize_nu_rho,
    specialize_rho,
)
from .vertex import TauTable, VertexContext, tau_table
from .opalg import (
    DiffOp,
    LaxSession,
    SessionParams,
    SitePoly,
    TauDressing,
    build_W0,
    build_W0bar,
    check_LM_relation,
    cross_check_initial,
    dressing_from_tau,
    initial_M,
    initial_lax,
    op_inverse,
)
from .volterra import (
    LatticeState,
    Trajectory,
    conserved_quantities,
    duality_check,
    flow_rhs,
    integrate,
    invariant_drift,
    perturbed_constant_state,
    stationarity_check,
    symbolic_flow_stencil,
)

__version__ = "0.1.0"
