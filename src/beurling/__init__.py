"""Multiplicative convolution calculus for Beurling generalized number
systems on a logarithmic lattice.

Measures on [1, inf) are represented by coefficient vectors at the points
u_k = e^{kh}; multiplicative convolution is exact truncated sequence
convolution.  The exponential of a measure runs an FFT Newton iteration
where the input is well conditioned and the exact lattice recurrence
elsewhere; the logarithm and inverse are lattice recurrences.  On top of
the algebra sit the stock prime measures (logarithmic integral, sieved
rational primes, Kahane's example), the checkpoint asymptotics toolkit, and
end-to-end experiment pipelines.
"""

from .asymptotics import (CheckpointSeries, EULER_GAMMA, FitReport, Verdict,
                          check_decay, check_growth, fit_de_haan,
                          fit_loglog_model, fit_mellin_expansion)
from .density import DensitySpec, discretize
from .errors import (BeurlingError, ConfigError, ConstructionError, FitError,
                     GridMismatchError, ParameterError, RangeError)
from .grid import LogGrid
from .measure import (Measure, add, apply_log, checkpoint_sums, convolve,
                      delta_one, exp_star, exp_star_pair, exp_star_pairs,
                      invert, load_measure, log_star, mellin, negate,
                      primitive, relative_gap, save_measure, scale, tilt,
                      variation, zero)
from .pipelines import (KahaneReport, de_haan_experiment, kahane_pipeline,
                        mellin_alpha_experiment)
from .selfcheck import SuiteResult, exp_series_oracle, run_identity_suite
from .sieve import iter_primes, prime_count, prime_power_mass, prime_powers
from .systems import (DEFAULT_CHECKPOINTS, HypothesisReport, NumberSystem,
                      SystemSpec, assemble_pi, build_classical_pi,
                      build_kahane_pi, build_li_pi, build_system,
                      hypothesis_report, kahane_tail)
from .config import load_spec, parse_density, spec_from_text

__version__ = "0.1.0"
