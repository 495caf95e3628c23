"""Self-affinity testing toolkit: simulation, estimation and Monte Carlo tests
for long-range dependent and Levy-stable return series.

The top level holds the API that README's "Library" section documents; every
other name is imported from its module (`selfaffine.scaling`, ...)."""

__version__ = "0.1.0"

from .errors import SelfAffineError
from .methods import estimate_point
from .montecarlo import (
    build_critical_values,
    build_tables,
    power_function,
    replicate,
    run_replications,
)
from .simulate import arfima_spec, generate, niid_spec

__all__ = [
    "__version__", "SelfAffineError", "arfima_spec", "build_critical_values",
    "build_tables", "estimate_point", "generate", "niid_spec", "power_function",
    "replicate", "run_replications",
]
