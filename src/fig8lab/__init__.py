"""fig8lab: numerics for the colored Jones polynomial of the figure-eight knot
at exponential evaluation points, with quantum-dilogarithm, saddle-point and
quantum-modularity verification suites.

The package exports a small surface:

- the errors DomainError (bad input; BranchCutError is one kind) and
  QuadratureError (no convergence), and the evaluation triple EvalContext;
- the layers the benchmark warms: jones_exp, t_n, li2, saddle_data and
  cusp_volume;
- one entry point per experiment: jones_at_cusp (jones), asymptotic_ratio
  (theorem), identity_residuals (lemmas), grid_scan (region's grid files;
  region counts the components of D_m on the boundary of E_m instead, and
  label_components labels the grid's regions for the tests), and
  estimate_c with its ModularMatrix argument (modularity).

Everything else is imported from its module: numkernel, qdilog, jones,
saddle, region, modularity and cli.
"""

from .numkernel import BranchCutError, DomainError, QuadratureError, li2
from .qdilog import EvalContext, identity_residuals, t_n
from .jones import jones_at_cusp, jones_exp
from .saddle import asymptotic_ratio, saddle_data
from .region import grid_scan, label_components
from .modularity import ModularMatrix, cusp_volume, estimate_c

__version__ = "0.1.0"
