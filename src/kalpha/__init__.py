"""Numerical laboratory for a family of heavy-tailed Levy processes whose
jump magnitudes have logarithmic (log-Pareto) tails.

Simulates their sample paths in overflow-proof log-domain arithmetic and
verifies, at desk scale, the analytic facts that drive their support:
no positive moments, vanishing growth index, and exponential or
power-exponential upper envelopes.
"""

__version__ = "0.1.0"

from .diagnostics import (ExceedanceReport, MomentScan, PruittSlopeReport,
                          build_exceedance_report, envelope_exceedances,
                          growth_scan, moment_scan, pruitt_slope)
from .measure import (ConsistencyError, EnvelopeSpec, KAlphaParams,
                      SupportVerdict, UpperFunctionResult, classify_support,
                      inverse_tail, laplace_exponent, levy_density,
                      pruitt_index, pruitt_indices, tail_one_sided,
                      truncated_moment, truncated_moments,
                      upper_function_integral)
from .numerics import (LN2, QuadratureError, QuadResult, SignedLogValue,
                       SLV_ZERO, SubdivisionLimitError, adaptive_quad,
                       quad_partition, slv_sum)
from .paths import (EventPath, load_event_file, read_event_path, running_sup,
                    save_event_files, simulate_large_jumps, simulate_many,
                    write_event_path)
from .spaces import (Bump, ExpPoly, Gaussian, PairingResult, TestFunction,
                     log_k_norm, log_kbeta_norm, log_s_norm, pair_white_noise,
                     parse_descriptor, parse_test_function)

__all__ = [
    "__version__",
    "LN2", "SignedLogValue", "SLV_ZERO", "QuadResult", "QuadratureError",
    "SubdivisionLimitError", "adaptive_quad", "quad_partition", "slv_sum",
    "KAlphaParams", "EnvelopeSpec", "SupportVerdict", "UpperFunctionResult",
    "ConsistencyError", "levy_density", "tail_one_sided", "inverse_tail",
    "truncated_moment", "truncated_moments", "pruitt_index", "pruitt_indices",
    "laplace_exponent", "upper_function_integral", "classify_support",
    "EventPath", "simulate_large_jumps", "simulate_many", "running_sup",
    "write_event_path", "read_event_path", "save_event_files",
    "load_event_file",
    "ExceedanceReport", "MomentScan", "PruittSlopeReport",
    "envelope_exceedances", "build_exceedance_report", "growth_scan",
    "moment_scan", "pruitt_slope",
    "TestFunction", "Gaussian", "Bump", "ExpPoly", "PairingResult",
    "log_s_norm", "log_k_norm", "log_kbeta_norm", "pair_white_noise",
    "parse_descriptor", "parse_test_function",
]
