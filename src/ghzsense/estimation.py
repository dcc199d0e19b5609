"""Fisher information, bounds, fringe fitting, and grouped MLE.

The outcome distribution of a product of GHZ groups factorizes over
groups, so the classical Fisher matrix is the sum of per-group fringe
terms::

    F = sum_g f(V_g, phase_g) * c_g c_g^T = C^T diag(f) C,
    f(V, phi) = V^2 sin^2(phi) / (1 - V^2 cos^2(phi)),

where c_g, row g of the group x mode pass-count matrix C, is the
gradient of the group phase with respect to the mode phases.  The
denominator is evaluated as (1 - V^2) + V^2 sin^2(phi), which is exact
and avoids cancellation near |cos| = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (
    DegenerateFitError,
    FlatLikelihoodError,
    InsufficientDataError,
    LayoutMismatchError,
    SingularMatrixError,
    SingularPointError,
    UnsupportedLayoutError,
)
from .evolution import apply_phases, as_phase_vector
from .measurement import CountRecord, draw_counts
from .probes import ModeLayout, Strategy, weights
from .states import ProductState

#: Group parity probabilities below this raise SingularPointError.
_SINGULAR_PROB = 1e-12

#: Two-sided 90% standard-normal quantile, for confidence half-widths.
_Z90 = 1.6448536269514722


@dataclass(frozen=True)
class FisherMatrix:
    """Classical Fisher matrix per trial, with its evaluation point."""

    matrix: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("Fisher matrix must be square")
        if np.max(np.abs(mat - mat.T)) > 1e-10:
            raise ValueError("Fisher matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(mat)) < -1e-9:
            raise ValueError("Fisher matrix must be positive semidefinite")


@dataclass(frozen=True)
class FringeModel:
    """Binary parity model P(+/-) = (1 +/- V cos(c*theta_hat + offset))/2."""

    visibility: float
    multiplier: float
    offset: float = 0.0

    def p_plus(self, theta_hat):
        u = self.multiplier * np.asarray(theta_hat, dtype=float) + self.offset
        return 0.5 * (1.0 + self.visibility * np.cos(u))

    def fisher(self, theta_hat):
        return fi_curve(self.visibility, self.multiplier, theta_hat, self.offset)


@dataclass(frozen=True)
class FitResult:
    """Fringe-fit output: visibilities, offset, 90% half-widths."""

    v_plus: float
    v_minus: float
    offset: float
    conf90: tuple[float, float, float]
    residual: float


@dataclass(frozen=True)
class EstimationResult:
    """Grouped maximum-likelihood estimation summary."""

    theta_hat: float
    std_dev: float
    std_dev_error: float
    groups: int
    shots_per_group: int
    effective_fi: float
    crb: float
    v_plus: float | None = None
    v_minus: float | None = None
    offset: float | None = None
    estimates: tuple[float, ...] = ()


def _fringe_fisher(visibility: float, phase) -> np.ndarray:
    """f(V, phi) with the cancellation-free denominator."""
    s = visibility * np.sin(phase)
    return s * s / ((1.0 - visibility * visibility) + s * s)


def fisher_matrix(probe: ProductState, layout: ModeLayout, theta) -> FisherMatrix:
    """Analytic Fisher matrix of the sigma_x outcome model at ``theta``.

    The probe is evolved internally, so ``probe`` is the prepared state
    with phases as built (normally zero).
    """
    values = as_phase_vector(theta, layout.num_modes)
    if probe.total_photons != layout.num_photons:
        raise LayoutMismatchError(
            f"probe has {probe.total_photons} photons, layout {layout.num_photons}"
        )
    evolved = apply_phases(probe, values)
    coherence, phase = evolved.coherence, evolved.phase
    singular = 0.5 * (1.0 - np.abs(coherence * np.cos(phase))) < _SINGULAR_PROB
    if singular.any():
        raise SingularPointError(
            f"group parity probability ~ 0 at phase {float(phase[singular][0])!r}"
        )
    coeff = evolved.coefficients
    k = coeff.shape[1]
    fisher = np.zeros((layout.num_modes, layout.num_modes))
    fisher[:k, :k] = (coeff.T * _fringe_fisher(coherence, phase)) @ coeff
    return FisherMatrix(fisher, values)


def _as_matrix(fisher) -> np.ndarray:
    if isinstance(fisher, FisherMatrix):
        return fisher.matrix
    return np.asarray(fisher, dtype=float)


def effective_fi(fisher, alpha) -> float:
    """Scalar information alpha^T F alpha / (alpha^T alpha)^2 for theta_hat."""
    mat = _as_matrix(fisher)
    a = np.asarray(alpha, dtype=float)
    return float(a @ mat @ a / (a @ a) ** 2)


def effective_fi_crb(fisher, alpha) -> float:
    """Matrix-bound alternative 1 / (alpha^T F^{-1} alpha).

    Coincides with :func:`effective_fi` for equal weights but differs
    for unequal ones; both conventions are exposed because the
    literature mixes them.
    """
    mat = _as_matrix(fisher)
    a = np.asarray(alpha, dtype=float)
    if np.linalg.cond(mat) > 1e12:
        raise SingularMatrixError("Fisher matrix is singular or near-singular")
    solved = np.linalg.solve(mat, a)
    return float(1.0 / (a @ solved))


def crb(effective_fi: float, trials: int) -> float:
    """Cramer-Rao lower bound 1 / sqrt(trials * effective_fi)."""
    if effective_fi <= 0.0:
        raise ValueError("effective Fisher information must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    return 1.0 / sqrt(trials * effective_fi)


def fi_curve(visibility: float, multiplier: float, theta_hat, offset: float = 0.0):
    """Closed-form fringe information V^2 c^2 sin^2(u) / (1 - V^2 cos^2(u)).

    ``u = multiplier * theta_hat + offset``.  Accepts scalars or arrays;
    the peak value V^2 c^2 sits wherever cos(u) = 0.  At V = 1 the
    curve is exactly c^2 away from the singular points sin(u) = 0,
    where the information is undefined and NaN is returned.
    """
    if not (0.0 <= visibility <= 1.0):
        raise ValueError("visibility must lie in [0, 1]")
    u = np.asarray(theta_hat, dtype=float) * multiplier + offset
    c2 = multiplier * multiplier
    with np.errstate(invalid="ignore"):
        out = c2 * _fringe_fisher(visibility, u)
    if np.ndim(theta_hat) == 0:
        return float(out)
    return out


def fringe_multiplier(strategy: Strategy, layout: ModeLayout) -> float:
    """Fringe multiplier c of the full-probe parity signal versus theta_hat."""
    strategy = Strategy(strategy)
    n = layout.num_photons
    if strategy in (Strategy.MEPE,):
        return float(n)
    if strategy is Strategy.MEPS:
        return float(layout.num_modes)
    if strategy in (Strategy.MSPE, Strategy.INDIVIDUAL):
        counts = layout.mode_photons()
        if np.ptp(counts) != 0:
            raise UnsupportedLayoutError("unequal per-mode photon counts")
        return float(counts[0])
    if strategy is Strategy.MSPS:
        return 1.0
    if strategy is Strategy.MEPC:
        return float(layout.total_passes)
    if strategy is Strategy.MSPC:
        raise UnsupportedLayoutError("mspc fringes are per mode: c = passes in mode k")
    raise UnsupportedLayoutError(f"no fringe multiplier for {strategy}")


def theoretical_limits(strategy: Strategy, layout: ModeLayout) -> dict:
    """Noise-free information limits for a named strategy on ``layout``.

    Returns ``{"fi", "rmse", "snl_fi", "snl_rmse"}`` where the
    shot-noise reference always equals the total number of passes n
    (single-pass separable probes reach fi = n).  Closed forms:

    ======== =======================
    mepe     N**2
    meps     M * N   (equal weights)
    mspe     sum_k N_k**2
    msps     N
    individual  N_k**2 (per mode, equal N_k)
    mepc     n**2
    mspc     sum_k n_k**2
    ======== =======================
    """
    strategy = Strategy(strategy)
    n_photons = layout.num_photons
    n_passes = layout.total_passes
    mode_photons = layout.mode_photons()
    mode_passes = layout.mode_passes()
    if strategy is Strategy.MEPE:
        fi = float(n_photons**2)
    elif strategy is Strategy.MEPS:
        fi = float(layout.num_modes * n_photons)
    elif strategy is Strategy.MSPE:
        fi = float(np.sum(mode_photons.astype(float) ** 2))
    elif strategy is Strategy.MSPS:
        fi = float(n_photons)
    elif strategy is Strategy.INDIVIDUAL:
        if np.ptp(mode_photons) != 0:
            raise UnsupportedLayoutError(
                "per-mode limit needs equal photon counts in every mode"
            )
        fi = float(mode_photons[0] ** 2)
    elif strategy is Strategy.MEPC:
        fi = float(n_passes**2)
    elif strategy is Strategy.MSPC:
        fi = float(np.sum(mode_passes.astype(float) ** 2))
    else:
        raise UnsupportedLayoutError(f"no closed-form limit for {strategy}")
    if strategy is Strategy.INDIVIDUAL:
        snl = float(mode_photons[0])
    else:
        snl = float(n_passes)
    return {
        "fi": fi,
        "rmse": 1.0 / sqrt(fi),
        "snl_fi": snl,
        "snl_rmse": 1.0 / sqrt(snl),
    }


def db_reduction(fi: float, fi_ref: float) -> float:
    """RMSE improvement over a reference, in dB: 5 log10(fi / fi_ref)."""
    if fi <= 0.0 or fi_ref <= 0.0:
        raise ValueError("Fisher informations must be positive")
    return 5.0 * np.log10(fi / fi_ref)


def fit_fringe(
    theta_hat,
    p_plus,
    p_minus,
    multiplier: float,
    weights=None,
) -> FitResult:
    """Weighted least-squares fit of P_± = (1 ± V_± cos(c θ̂ + δ)) / 2.

    ``theta_hat`` is the estimand grid, ``p_plus``/``p_minus`` the
    observed outcome fractions, ``weights`` optional per-point inverse
    variances (shared by both branches).  The two visibilities are fit
    independently, the phase offset δ is shared.  Confidence half-widths
    are 90% two-sided values from the fit covariance.
    """
    x = np.asarray(theta_hat, dtype=float)
    yp = np.asarray(p_plus, dtype=float)
    ym = np.asarray(p_minus, dtype=float)
    if x.shape != yp.shape or x.shape != ym.shape:
        raise InsufficientDataError("grid and probability arrays differ in length")
    if x.size < 5:
        raise InsufficientDataError(f"need at least 5 grid points, got {x.size}")
    span = float(np.max(x) - np.min(x))
    half_period = np.pi / abs(multiplier)
    if span < half_period * (1.0 - 1e-9):
        raise InsufficientDataError(
            f"grid spans {span:.4g}, need at least half a period {half_period:.4g}"
        )
    if weights is None:
        w = np.ones_like(x)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != x.shape or np.any(w < 0.0):
            raise InsufficientDataError("weights must be non-negative, one per point")
    sw = np.sqrt(w)

    # Linear initialization: 2P_+ - 1 = a cos(cx) - b sin(cx) with
    # a = V cos(delta), b = V sin(delta).
    design = np.column_stack([np.cos(multiplier * x), -np.sin(multiplier * x)])
    rank = np.linalg.matrix_rank(design * sw[:, None])
    if rank < 2:
        raise DegenerateFitError("grid does not constrain amplitude and offset")
    ap, bp = np.linalg.lstsq(design * sw[:, None], (2 * yp - 1) * sw, rcond=None)[0]
    am, bm = np.linalg.lstsq(design * sw[:, None], (1 - 2 * ym) * sw, rcond=None)[0]
    v0p = float(np.hypot(ap, bp))
    v0m = float(np.hypot(am, bm))
    delta0 = float(np.arctan2(bp + bm, ap + am))

    def residuals(params):
        vp, vm, delta = params
        u = np.cos(multiplier * x + delta)
        rp = (0.5 * (1 + vp * u) - yp) * sw
        rm = (0.5 * (1 - vm * u) - ym) * sw
        return np.concatenate([rp, rm])

    import scipy.optimize  # deferred: about 0.6 s to import, needed only here

    start = [min(max(v0p, 1e-6), 2.0), min(max(v0m, 1e-6), 2.0), delta0]
    sol = scipy.optimize.least_squares(
        residuals,
        start,
        bounds=([0.0, 0.0, -2 * np.pi], [2.0, 2.0, 2 * np.pi]),
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    if not sol.success:
        raise DegenerateFitError(f"fringe fit failed: {sol.message}")
    vp, vm, delta = sol.x
    delta = float(np.arctan2(np.sin(delta), np.cos(delta)))

    dof = max(2 * x.size - 3, 1)
    jac = sol.jac
    try:
        cov = np.linalg.inv(jac.T @ jac) * (2.0 * sol.cost / dof)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular fit covariance") from exc
    half_widths = _Z90 * np.sqrt(np.clip(np.diag(cov), 0.0, None))
    residual = float(np.sqrt(2.0 * sol.cost / x.size))
    return FitResult(
        v_plus=float(vp),
        v_minus=float(vm),
        offset=delta,
        conf90=tuple(float(h) for h in half_widths),
        residual=residual,
    )


def infer_multiplier(theta_hat, p_plus, p_minus, candidates=None) -> int:
    """Integer fringe multiplier minimizing the fit residual."""
    if candidates is None:
        candidates = range(1, 33)
    best = None
    for c in candidates:
        try:
            fit = fit_fringe(theta_hat, p_plus, p_minus, float(c))
        except (InsufficientDataError, DegenerateFitError):
            continue
        if best is None or fit.residual < best[1]:
            best = (int(c), fit.residual)
    if best is None:
        raise DegenerateFitError("no candidate multiplier fits the data")
    return best[0]


def _parity_pair(counts: CountRecord) -> tuple[int, int]:
    values = np.asarray(counts.counts)
    if values.shape != (2,):
        raise ValueError(
            "mle counts must be a 2-bin parity record; see parity_counts()"
        )
    return int(values[0]), int(values[1])


def mle_estimate(
    counts: CountRecord,
    model: FringeModel,
    prior_center: float = 0.0,
) -> float:
    """Maximum-likelihood theta_hat from parity counts, in closed form.

    The binomial likelihood depends on theta only through p+(theta), so
    by MLE invariance the estimate inverts the fringe at the observed
    fraction: theta_hat = (±arccos(r) - offset + 2 pi k) / c with
    r = (2 n+/n - 1) / V.  Of the two mirror branches and their period
    shifts, the one nearest ``prior_center`` wins, so the estimate lies
    within half a fringe period of the prior.  A saturated record,
    |2 n+/n - 1| > V, has r clipped to ±1: its estimate sits at the
    fringe extreme cos(c theta + offset) = ±1 nearest the prior, where
    the likelihood peaks.
    """
    n_plus, n_minus = _parity_pair(counts)
    total = n_plus + n_minus
    if total == 0 or model.visibility <= 0.0:
        raise FlatLikelihoodError("counts carry no phase information")
    if model.multiplier == 0.0:
        raise FlatLikelihoodError("zero fringe multiplier")

    ratio = (2.0 * n_plus / total - 1.0) / model.visibility
    base = np.arccos(np.clip(ratio, -1.0, 1.0))
    period = 2.0 * np.pi / abs(model.multiplier)
    branches = (np.array([base, -base]) - model.offset) / model.multiplier
    branches += period * np.round((prior_center - branches) / period)
    return float(branches[np.argmin(np.abs(branches - prior_center))])


def repeat_estimation(
    model: FringeModel,
    theta_true: float,
    groups: int,
    shots_per_group: int,
    seed: int,
) -> EstimationResult:
    """Sample ``groups`` independent parity records and MLE each one.

    ``std_dev`` is the sample standard deviation of the per-group
    estimates; its error bar follows the std_dev / sqrt(2 (s - 1))
    approximation with s = shots per group.  Group seeds are spawned
    deterministically from ``seed``, so results do not depend on
    evaluation order.
    """
    if groups < 2:
        raise ValueError("need at least 2 groups")
    if shots_per_group < 2:
        raise ValueError("need at least 2 shots per group")
    p_plus = float(model.p_plus(theta_true))
    probs = np.array([p_plus, 1.0 - p_plus])
    estimates = []
    for child in np.random.SeedSequence(seed).spawn(groups):
        rng = np.random.Generator(np.random.PCG64(child))
        counts = draw_counts(probs, shots_per_group, rng)
        record = CountRecord(shots_per_group, counts)
        estimates.append(mle_estimate(record, model, prior_center=theta_true))
    estimates = np.asarray(estimates)
    std_dev = float(np.std(estimates, ddof=1))
    fi = float(model.fisher(theta_true))
    return EstimationResult(
        theta_hat=float(np.mean(estimates)),
        std_dev=std_dev,
        std_dev_error=std_dev / sqrt(2.0 * (shots_per_group - 1)),
        groups=groups,
        shots_per_group=shots_per_group,
        effective_fi=fi,
        crb=crb(fi, shots_per_group) if fi > 0 else float("inf"),
        estimates=tuple(float(e) for e in estimates),
    )
