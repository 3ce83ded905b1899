"""Multiplicative convolution calculus for Beurling generalized number
systems on a logarithmic lattice.

Measures on [1, inf) are represented by coefficient vectors at the points
u_k = e^{kh}; multiplicative convolution is exact truncated sequence
convolution, and the exponential/logarithm/inverse of measures are exact
lattice recurrences.  On top of the algebra sit the stock prime measures
(logarithmic integral, sieved rational primes, Kahane's example), the
checkpoint asymptotics toolkit, and end-to-end experiment pipelines.
"""

from .asymptotics import (CheckpointSeries, DecayReport, EULER_GAMMA,
                          FitReport, GrowthReport, check_decay, check_growth,
                          fit_de_haan, fit_loglog_model, fit_mellin_expansion,
                          sample_ratio)
from .density import DensitySpec, discretize
from .errors import (BeurlingError, ConfigError, ConstructionError, FitError,
                     GridMismatchError, ParameterError, RangeError)
from .grid import LogGrid
from .measure import (Measure, add, apply_log, cancellation_envelope,
                      convolve, delta_one, exp_star, exp_star_pair,
                      harmonic_primitive, invert, load_measure, log_star,
                      mellin, negate, primitive, relative_gap, save_measure,
                      scale, subtract, tilt, variation, zero)
from .pipelines import (GrowthDiagnostics, KahaneReport, de_haan_experiment,
                        growth_diagnostics, kahane_pipeline,
                        mellin_alpha_experiment)
from .selfcheck import (SuiteResult, benchmark_exp, exp_series_oracle,
                        fft_scaling_exponent, run_identity_suite)
from .sieve import iter_primes, prime_count, prime_power_mass, prime_powers
from .systems import (DEFAULT_CHECKPOINTS, HypothesisReport, NumberSystem,
                      SystemSpec, assemble_pi, build_classical_pi,
                      build_kahane_pi, build_li_pi, build_system,
                      hypothesis_report, kahane_tail, kahane_tail_exp,
                      li_density, kahane_tail_density)
from .config import load_spec, parse_density, spec_from_text

__version__ = "0.1.0"
