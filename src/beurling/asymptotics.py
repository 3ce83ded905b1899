"""Checkpoint series, decay proxies, and asymptotic-model fitting.

Little-o statements have no finite-sample content, so every decay claim is
tested through an explicit proxy: over the last tail_k checkpoints the
series must strictly decrease in absolute value, and its final value must
be below half of the overall maximum.  The proxy is scale invariant and is
reported as such; passing it proves nothing, failing it is a red flag.

Two asymptotic models are fitted by linear least squares:

  mellin expansion   F(sigma) ~ alpha * loglog(1/(sigma-1)) + c1
                                + c2 / log(1/(sigma-1))
  slow-variation law I(x) ~ b1 * loglog x + beta, cross-checked against a
                     mellin-side fit b1 * log(1/(sigma-1)) + b2; the two
                     intercepts must differ by b1 * gamma (Euler constant)

Transforms truncated at the grid end drop a tail ~ e^{-(sigma-1) n h}; sigma
values whose tail bound exceeds 1e-6 are clipped from the fit and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FitError, ParameterError
from .kernels import _halves
from .measure import Measure, mellin

EULER_GAMMA = float(np.euler_gamma)
TAIL_RULE = 14.0  # (sigma - 1) * n * h >= 14 keeps e^{-(sigma-1) n h} < 1e-6
DECAY_BOUND = 0.5  # the decay proxy's bound on final |value| / max |value|


@dataclass(frozen=True)
class Verdict:
    """One check, decided where its numbers are computed: whether it passed,
    and the measured numbers and thresholds it compared, by name."""
    name: str
    passed: bool
    values: dict


class Checked:
    """A report that passes when all of its verdicts pass."""

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


@dataclass(frozen=True)
class CheckpointSeries:
    log_points: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        lp = np.asarray(self.log_points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if lp.shape != vals.shape or lp.ndim != 1:
            raise ValueError("log_points and values must be 1-d and matching")
        if len(lp) > 1 and not np.all(np.diff(lp) > 0):
            raise ValueError("log_points must be strictly increasing")
        object.__setattr__(self, "log_points", lp)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FitReport(Checked):
    model_name: str
    constants: dict
    residual_rms: float
    verdicts: tuple
    criterion: str
    details: dict = field(default_factory=dict)


def check_ladder(log_points, tail_k: int = 5) -> np.ndarray:
    """The one rule for a checkpoint ladder in log x: at least tail_k
    points, the decay proxy's tail, each finite and positive, none
    repeated.  Returns the ladder as a sorted float array, or raises
    ParameterError; pipelines call it before any exponential runs."""
    ts = np.sort(np.asarray(log_points, dtype=float))
    if not (3 <= tail_k <= ts.size):
        raise ParameterError(f"{ts.size} checkpoints cannot carry a decay tail of "
                             f"tail_k={tail_k}: need 3 <= tail_k <= {ts.size}")
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ParameterError(f"checkpoints must be finite and positive, got {ts.tolist()}")
    if np.any(np.diff(ts) <= 0):
        raise ParameterError(f"checkpoints must be distinct, got {ts.tolist()}")
    return ts


def check_decay(series: CheckpointSeries, tail_k: int = 5,
                name: str = "decay") -> Verdict:
    """The decay proxy: |values| strictly decreasing over the last tail_k
    checkpoints and final |value| < 0.5 * max |value|, as a verdict.

    The halving half only means something when the checkpoints span the
    series' decay scale.  For S(x) ~ 1/loglog x, log t must about double:
    from t = 10 the Kahane S(x) reaches half its value only near t = 300,
    so a ladder ending at t = 50 fails the proxy on correct values.
    """
    vals = np.abs(series.values)
    check_ladder(series.log_points, tail_k)
    decreasing = bool(np.all(np.diff(vals[-tail_k:]) < 0))
    top = float(vals.max())
    ratio = float(vals[-1] / top) if top > 0 else 0.0
    return Verdict(name, decreasing and ratio < DECAY_BOUND,
                   {"final_over_max": ratio, "bound": DECAY_BOUND,
                    "tail_decreasing": decreasing})


def check_growth(series: CheckpointSeries, min_gain: float = 1.5,
                 baseline_t: float | None = None,
                 name: str = "growth") -> Verdict:
    """Strict increase over all checkpoints plus a minimum gain of the final
    value over the value at baseline_t (default: the first checkpoint), as
    a verdict."""
    vals = series.values
    increasing = bool(np.all(np.diff(vals) > 0))
    if baseline_t is None:
        base = float(vals[0])
    else:
        idx = int(np.argmin(np.abs(series.log_points - baseline_t)))
        base = float(vals[idx])
    gain = float(vals[-1] / base) if base != 0 else math.inf
    return Verdict(name, increasing and gain > min_gain,
                   {"gain": gain, "min_gain": min_gain,
                    "strictly_increasing": increasing})


def _tail_estimates(coeffs: np.ndarray, h: float, decays) -> list[float]:
    # geometric continuation of the last decade of weighted terms
    # t_k = |c_k| e^{-d h k}, one estimate per decay d: the step is the
    # ratio of the maxima of t over the decade's two halves, taken per
    # term.  log|c_k| is taken once; per d only maxima of log t_k enter,
    # so no d pays an exp over the decade.
    n = len(coeffs)
    lo = max(1, int(0.9 * n))
    half = (n - lo) // 2
    if half < 1:
        return [0.0] * len(decays)
    with np.errstate(divide="ignore"):
        log_c = np.log(np.abs(coeffs[lo:]))
    kh = h * np.arange(lo, n)
    out = [0.0] * len(decays)
    # log t = log_c + (-d) kh, which rounds as log_c - d kh does, in one
    # row per part of the split, allocated here: a row allocated on the
    # worker would stay in its own malloc arena, outside this thread's reach
    rows = np.empty((2, n - lo))

    def estimates(first, stop):  # the decays [first, stop)
        log_t = rows[0 if first == 0 else 1]
        for i in range(first, stop):
            np.multiply(kh, -decays[i], out=log_t)
            log_t += log_c
            l1 = float(log_t[:half].max())
            l2 = float(log_t[half:].max())
            if l1 == -math.inf or l2 == -math.inf:
                out[i] = 0.0
            elif l2 >= l1:
                out[i] = math.inf
            else:
                # last * step / (1 - step) with step = e^{(l2 - l1) / half}
                out[i] = math.exp(float(log_t[-1])) / math.expm1((l1 - l2) / half)

    _halves(estimates, len(decays), points=len(decays) * (n - lo))
    return out


def fit_mellin_expansion(a: Measure, sigma_grid, weight_sigma: float = 0.0,
                         alpha_tol: float | None = None) -> FitReport:
    """Least-squares fit of the truncated Mellin transform of dA against
    alpha * loglog(1/(sigma-1)) + c1 + c2 / log(1/(sigma-1)).

    weight_sigma declares that the stored coefficients already carry a
    u^{-weight_sigma} weight, so the transform of the underlying measure at
    sigma is evaluated as the stored transform at sigma - weight_sigma;
    this is how grids too long for raw coefficients are handled.  Sigma
    values failing the truncation-tail rule are clipped and reported.

    The kept sigma values are evaluated by one call of measure.mellin with
    the whole array: one blocked matrix-product pass over the coefficients,
    within ~1e-15 relative of a long-double direct sum.
    """
    sigmas = np.asarray(sorted(sigma_grid, reverse=True), dtype=float)
    if np.any(sigmas <= 1.0) or np.any(sigmas >= 2.0):  # fit_loglog_model's domain
        raise FitError("sigma grid must lie in (1, 2)")
    ok = (sigmas - 1.0) * a.grid.log_end >= TAIL_RULE
    ok[ok] = np.asarray(_tail_estimates(a.coeffs, a.grid.h,
                                        sigmas[ok] - weight_sigma)) <= 1e-6
    keep = sigmas[ok]
    clipped = sigmas[~ok].tolist()
    if len(keep) < 4:
        raise FitError(f"only {len(keep)} usable sigma values after tail clipping")
    report = fit_loglog_model(keep, mellin(a, keep - weight_sigma), alpha_tol=alpha_tol)
    return replace(report, details={**report.details, "sigma_clipped": clipped})


def _least_squares(design, values, name: str):
    # (coefficients, residual, residual RMS), or a FitError naming the fit
    # when its design matrix is rank deficient
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < design.shape[1]:
        raise FitError(f"{name} design matrix is rank deficient")
    resid = values - design @ coef
    return coef, resid, float(np.sqrt(np.mean(resid ** 2)))


def fit_loglog_model(sigmas, values, alpha_tol: float | None = None) -> FitReport:
    """Fit transform values on a sigma grid (no truncation-tail handling;
    fit_mellin_expansion wraps this with the clipping rule)."""
    sig = np.asarray(sigmas, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(sig <= 1.0):
        raise FitError("sigma values must exceed 1")
    if np.any(sig >= 2.0):
        # ell = 0 at sigma = 2: log(ell) and 1/ell are singular there, and
        # lstsq on a non-finite design does not terminate usefully
        raise FitError("sigma must lie strictly below 2 for the loglog model")
    ell = np.log(1.0 / (sig - 1.0))
    design = np.column_stack([np.log(ell), np.ones_like(ell), 1.0 / ell])
    coef, resid, rms = _least_squares(design, values, "mellin fit")
    constants = {"alpha": float(coef[0]), "c1": float(coef[1]), "c2": float(coef[2])}
    if alpha_tol is None:
        verdicts, criterion = (), "least-squares solve"
    else:
        verdicts = (Verdict("mellin_alpha",
                            abs(constants["alpha"] - 1.0) <= alpha_tol,
                            {"alpha": constants["alpha"], "tol": alpha_tol}),)
        criterion = f"|alpha - 1| <= {alpha_tol}"
    return FitReport("mellin-loglog-expansion", constants, rms, verdicts, criterion,
                     details={"sigma_used": sig.tolist(),
                              "max_abs_residual": float(np.max(np.abs(resid)))})


def fit_de_haan(series: CheckpointSeries, mellin_sigmas=None,
                mellin_values=None) -> FitReport:
    """Fit I(x) = b1 loglog x + beta at checkpoints; optionally cross-check
    against mellin data fitted to b1 log(1/(sigma-1)) + b2.

    The slow-variation framework predicts beta - b2 = b1 * gamma; the fit
    passes when the two b1 estimates agree within 5% and the intercept
    difference matches b1 * gamma within 10%.
    """
    ts = series.log_points
    design = np.column_stack([np.log(ts), np.ones_like(ts)])
    coef, _, rms = _least_squares(design, series.values, "checkpoint fit")
    b1_chk, beta = float(coef[0]), float(coef[1])
    constants = {"b1_checkpoint": b1_chk, "beta": beta}

    if mellin_sigmas is None:
        return FitReport("de-haan-checkpoint", constants, rms, (),
                         "checkpoint fit only")

    sig = np.asarray(mellin_sigmas, dtype=float)
    mv = np.asarray(mellin_values, dtype=float)
    if np.any(sig <= 1.0):
        raise FitError("mellin sigma values must exceed 1")
    ell = np.log(1.0 / (sig - 1.0))
    design2 = np.column_stack([ell, np.ones_like(ell)])
    b1_mell, b2 = map(float, _least_squares(design2, mv, "mellin-side")[0])
    constants.update({"b1_mellin": b1_mell, "b2": b2})

    b1_tol, intercept_tol = 0.05, 0.10
    b1_dev = abs(b1_chk / b1_mell - 1.0) if b1_mell != 0 else math.inf
    predicted = b1_mell * EULER_GAMMA
    gamma_dev = abs((beta - b2) / predicted - 1.0) if predicted != 0 else math.inf
    constants.update({"b1_relative_deviation": b1_dev,
                      "intercept_gap": beta - b2,
                      "intercept_gap_predicted": predicted})
    verdicts = (Verdict("de_haan_b1", b1_dev <= b1_tol,
                        {"deviation": b1_dev, "tol": b1_tol}),
                Verdict("de_haan_intercept", gamma_dev <= intercept_tol,
                        {"deviation": gamma_dev, "tol": intercept_tol}))
    criterion = f"b1 agreement within {b1_tol}, intercept gap b1*gamma within {intercept_tol}"
    return FitReport("de-haan-consistency", constants, rms, verdicts, criterion,
                     details={"b1_deviation": b1_dev, "gamma_deviation": gamma_dev})
