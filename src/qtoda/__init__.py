"""Exact q-series algebra for the two-leg topological vertex, lattice tau
functions with their dressing operators, and Volterra-type reduced flows.

Names are imported from their modules, e.g. `from qtoda.opalg import DiffOp`.
"""

__version__ = "0.1.0"
