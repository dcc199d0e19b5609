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

from dataclasses import asdict, dataclass
from functools import cached_property
from math import isfinite, pi, sqrt

import numpy as np

from . import _checks
from .errors import (
    DegenerateFitError,
    FlatLikelihoodError,
    InsufficientDataError,
    LayoutMismatchError,
    NonFinitePhaseError,
    SingularMatrixError,
    SingularPointError,
    UnsupportedLayoutError,
)
from .evolution import apply_phases
from .measurement import CountRecord, draw_counts
from .probes import _KINDS, ModeLayout, Strategy, _check_single_pass, _groups
from .states import ProductState, _Structure

#: Group parity probabilities below this raise SingularPointError.
_SINGULAR_PROB = 1e-12

#: Fisher matrices with max|lambda| / min|lambda| above this are near-singular.
_MAX_CONDITION = 1e12

#: Two-sided 90% standard-normal quantile, for confidence half-widths.
_Z90 = 1.6448536269514722


@dataclass(frozen=True, eq=False)
class FisherMatrix:
    """Classical Fisher matrix per trial.

    A matrix given from outside is checked finite, square, symmetric
    (to 1e-10) and positive semidefinite when it is built.  One built by
    :func:`fisher_matrix` is PSD by construction, F = C^T diag(f) C with
    f >= 0, so no spectrum is taken for it, and symmetric up to rounding,
    every |F - F^T| entry at most 2 gamma_{G+2} (sum_g max_k C_gk^2) max(f)
    (docs/formulas.md), so no symmetry check is run on it either.  It
    carries its probe's structure, whose facts about C (a rank bound,
    whether F is diagonal) :func:`effective_fi_crb` reads.

    ``eigenvalues`` (read-only, ascending) is ``np.linalg.eigvalsh`` of
    the matrix, computed on first read and kept.
    """

    matrix: np.ndarray

    #: The probe's structure for a matrix from :func:`fisher_matrix`;
    #: None for one given from outside, which proves nothing.
    _structure = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if not np.isfinite(mat).all():
            raise ValueError("Fisher matrix entries must be finite")
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("Fisher matrix must be square")
        if np.max(np.abs(mat - mat.T)) > 1e-10:
            raise ValueError("Fisher matrix must be symmetric")
        if np.min(self.eigenvalues) < -1e-9:
            raise ValueError("Fisher matrix must be positive semidefinite")

    @classmethod
    def _from_terms(cls, structure: _Structure, f: np.ndarray) -> "FisherMatrix":
        """C^T diag(f) C for the group rows C of ``structure``; PSD since
        every f >= 0, and symmetric to within the rounding bound of any
        summation order (docs/formulas.md), so unchecked.

        Where each group sits in one mode and each mode holds at most one
        group, entry (k, k) is the single product (c f_g) c of its group
        and every other entry is 0, exactly as the matrix product gives
        them, so those products are written onto a zero matrix.  With a
        single group, entry (i, j) is the one product (c_i f) c_j, so the
        matrix is the outer product of c f and c.
        """
        if not (f >= 0.0).all():
            raise ValueError("Fisher matrix must be positive semidefinite")
        fisher = object.__new__(cls)
        coeff = structure.coefficients
        placed = structure.one_group_per_mode
        if placed is not None:
            groups, modes = placed
            c = coeff[groups, modes]
            mat = np.zeros((coeff.shape[1], coeff.shape[1]))
            mat[modes, modes] = (c * f[groups]) * c
        elif len(coeff) == 1:
            mat = np.multiply.outer(coeff[0] * f[0], coeff[0])
        else:
            mat = (coeff.T * f) @ coeff
        object.__setattr__(fisher, "matrix", mat)
        object.__setattr__(fisher, "_structure", structure)
        return fisher

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        eigenvalues.flags.writeable = False
        return eigenvalues


@dataclass(frozen=True)
class FringeModel:
    """Binary parity model P(+/-) = (1 +/- V cos(c*theta_hat))/2.

    The visibility V must lie in [0, 1] and the multiplier c be finite
    and non-zero; ``ValueError`` otherwise, and for a boolean in either.
    """

    visibility: float
    multiplier: float

    def __post_init__(self):
        visibility = _checks.unit_interval(self.visibility, "visibility")
        object.__setattr__(self, "visibility", visibility)
        object.__setattr__(self, "multiplier", _multiplier(self.multiplier, ValueError))

    def p_plus(self, theta_hat):
        u = self.multiplier * np.asarray(theta_hat, dtype=float)
        return 0.5 * (1.0 + self.visibility * np.cos(u))

    def fisher(self, theta_hat):
        """The fringe information at ``theta_hat``; see :func:`fi_curve`."""
        c = self.multiplier
        u = np.asarray(theta_hat, dtype=float) * c
        with np.errstate(invalid="ignore"):
            out = (c * c) * _fringe_fisher(self.visibility, u)
        if np.ndim(theta_hat) == 0:
            return float(out)
        return out


def _multiplier(value, error) -> float:
    """A fringe multiplier: a finite, non-zero number."""
    c = _checks.finite(value, "multiplier", error)
    if c == 0.0:
        raise error(f"multiplier must be non-zero, got {value!r}")
    return c


@dataclass(frozen=True)
class FitResult:
    """Fringe-fit output: visibilities, offset, 90% half-widths."""

    v_plus: float
    v_minus: float
    offset: float
    conf90: tuple[float, float, float]
    residual: float

    @property
    def visibility(self) -> float:
        """Mean fitted visibility sqrt((V+^2 + V-^2)/2); not a field, so
        :meth:`to_dict` leaves it out."""
        return sqrt((self.v_plus**2 + self.v_minus**2) / 2.0)

    def to_dict(self) -> dict:
        return {**asdict(self), "conf90": list(self.conf90)}


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
    estimates: tuple[float, ...] = ()


def _fringe_fisher(visibility: float, phase) -> np.ndarray:
    """f(V, phi) with the cancellation-free denominator."""
    s = visibility * np.sin(phase)
    return s * s / ((1.0 - visibility * visibility) + s * s)


def fisher_matrix(probe: ProductState, layout: ModeLayout, theta) -> FisherMatrix:
    """Analytic Fisher matrix of the sigma_x outcome model at ``theta``.

    The probe is evolved internally, so ``probe`` is the prepared state
    with phases as built (normally zero).  Where no group spans two
    modes and no mode holds two groups, F is diagonal and its entries
    are written onto a zero matrix, and a one-group probe's F is the
    outer product of c f and c, each bit for bit the matrix product's;
    every other layout takes the product.  The result carries the
    probe's structure, shared with its evolved copies, so the facts of
    C that :func:`effective_fi_crb` reads are worked out once per probe.
    """
    if (probe.total_photons, probe.num_modes) != (layout.num_photons, layout.num_modes):
        raise LayoutMismatchError(
            f"probe has {probe.total_photons} photons in {probe.num_modes} modes, "
            f"layout {layout.num_photons} in {layout.num_modes}"
        )
    evolved = apply_phases(probe, theta)
    coherence, phase = evolved.coherence, evolved.phase
    singular = 0.5 * (1.0 - np.abs(coherence * np.cos(phase))) < _SINGULAR_PROB
    if singular.any():
        raise SingularPointError(
            f"group parity probability ~ 0 at phase {float(phase[singular][0])!r}"
        )
    return FisherMatrix._from_terms(evolved._structure, _fringe_fisher(coherence, phase))


def effective_fi(fisher, alpha) -> float:
    """Scalar information alpha^T F alpha / (alpha^T alpha)^2 for theta_hat.

    A raw array is wrapped in a :class:`FisherMatrix`, as in
    :func:`effective_fi_crb`, so a non-square, non-symmetric or
    indefinite one raises ``ValueError``.
    """
    if not isinstance(fisher, FisherMatrix):
        fisher = FisherMatrix(fisher)
    a = np.asarray(alpha, dtype=float)
    return float(a @ fisher.matrix @ a / (a @ a) ** 2)


def effective_fi_crb(fisher, alpha) -> float:
    """Matrix-bound alternative 1 / (alpha^T F^{-1} alpha).

    Coincides with :func:`effective_fi` for equal weights but differs
    for unequal ones; both conventions are exposed because the
    literature mixes them.

    A raw array is wrapped in a :class:`FisherMatrix`, so a non-symmetric
    or indefinite one raises ``ValueError``.  SingularMatrixError is
    raised unless ``0 < max|lambda| <= 1e12 * min|lambda|``, the rule
    ``np.linalg.cond(F) > 1e12`` applies, the zero matrix included.

    A matrix from :func:`fisher_matrix` carries its probe's structure,
    read in this order.  Fewer distinct group rows than modes bound the
    rank below the size, so F is singular without a spectrum: its
    computed smallest |lambda| would be rounding error, far below the
    1e-12 the rule allows.  No group in more than one mode makes F
    diagonal, so its spectrum is the exact diagonal and F^{-1} alpha is
    ``alpha / diag(F)``, bit for bit ``np.linalg.solve`` with numpy's
    bundled OpenBLAS (a test keeps solve as the oracle); where a tiny
    entry makes the quotient overflow, the bound is 0.0, with no
    warning, the true value lying below about 5.6e-309.  Any other
    matrix takes ``eigvalsh`` and ``solve``, whose verdict is cond's
    except within about ``n * eps * 1e12`` relative of the threshold,
    where the eigenvalue and SVD routines resolve the smallest |lambda|
    apart.
    """
    if not isinstance(fisher, FisherMatrix):
        fisher = FisherMatrix(fisher)
    structure = fisher._structure
    if structure is not None and structure.rank_bound < len(fisher.matrix):
        raise SingularMatrixError("Fisher matrix is singular or near-singular")
    diagonal = structure is not None and structure.diagonal
    sigma = fisher.matrix.diagonal() if diagonal else np.abs(fisher.eigenvalues)
    if not 0.0 < sigma.max() <= _MAX_CONDITION * sigma.min():
        raise SingularMatrixError("Fisher matrix is singular or near-singular")
    a = np.asarray(alpha, dtype=float)
    if diagonal:
        with np.errstate(over="ignore"):
            return float(1.0 / (a @ (a / sigma)))
    return float(1.0 / (a @ np.linalg.solve(fisher.matrix, a)))


def crb(effective_fi: float, trials: int) -> float:
    """Cramer-Rao lower bound 1 / sqrt(trials * effective_fi)."""
    effective_fi = _checks.positive(effective_fi, "effective_fi")
    return 1.0 / sqrt(_checks.integer(trials, "trials", 1) * effective_fi)


def fi_curve(visibility: float, multiplier: float, theta_hat):
    """Closed-form fringe information V^2 c^2 sin^2(u) / (1 - V^2 cos^2(u)).

    ``u = multiplier * theta_hat``.  Accepts scalars or arrays;
    the peak value V^2 c^2 sits wherever cos(u) = 0.  At V = 1 the
    curve is exactly c^2 away from the singular points sin(u) = 0,
    where the information is undefined and NaN is returned.  V and c
    are checked as :class:`FringeModel` checks them.
    """
    return FringeModel(visibility, multiplier).fisher(theta_hat)


def theoretical_limits(strategy: Strategy, layout: ModeLayout) -> dict:
    """Noise-free information limits for a named strategy on ``layout``.

    Returns ``{"fi", "rmse", "snl_fi", "snl_rmse"}``.  The strategy
    groups the layout's photons as :func:`standard_layout` does (the
    whole mode x rank grid, its rows, its columns or its cells), and a
    product of GHZ groups reaches ``fi = sum_g w_g**2``, where w_g sums
    the group's pass counts for a coherent strategy and counts its
    photons otherwise.  The shot-noise reference is the total number of
    passes n (single-pass separable probes reach fi = n).  Individual is
    the exception: its per-mode limit is N_k**2 against N_k, for equal
    photon counts N_k in every mode.  A strategy that is not coherent
    refuses a multi-pass photon with InvalidLayoutError, as
    :func:`make_probe` does, so that no limit reads below its reference.
    """
    strategy = Strategy(strategy)
    kind = _KINDS.get(strategy)
    if kind is None:
        raise UnsupportedLayoutError(f"no closed-form limit for {strategy}")
    if not kind.coherent:
        _check_single_pass(strategy, layout)
    if strategy is Strategy.INDIVIDUAL:
        mode_photons = layout.mode_photons()
        if np.ptp(mode_photons) != 0:
            raise UnsupportedLayoutError(
                "per-mode limit needs equal photon counts in every mode"
            )
        snl = float(mode_photons[0])
        fi = snl**2
    else:
        rows = [[] for _ in range(layout.num_modes)]
        for mode, passes in layout.assignments:
            rows[mode - 1].append(passes if kind.coherent else 1)
        grid = [w for row in rows for w in row]
        fi = float(sum(sum(g) ** 2 for g in _groups(kind, grid, rows)))
        snl = float(layout.total_passes)
    return {
        "fi": fi,
        "rmse": 1.0 / sqrt(fi),
        "snl_fi": snl,
        "snl_rmse": 1.0 / sqrt(snl),
    }


def db_reduction(fi: float, fi_ref: float) -> float:
    """RMSE improvement over a reference, in dB: 5 log10(fi / fi_ref)."""
    ratio = _checks.positive(fi, "fi") / _checks.positive(fi_ref, "fi_ref")
    return float(5.0 * np.log10(ratio))


def _fringe_data(theta_hat, p_plus, p_minus):
    """Grid and outcome fractions as float arrays of one shape, all finite,
    with at least 5 grid points."""
    x = np.asarray(theta_hat, dtype=float)
    yp = np.asarray(p_plus, dtype=float)
    ym = np.asarray(p_minus, dtype=float)
    if x.shape != yp.shape or x.shape != ym.shape:
        raise InsufficientDataError("grid and probability arrays differ in length")
    if not (np.isfinite(x).all() and np.isfinite(yp).all() and np.isfinite(ym).all()):
        raise InsufficientDataError("grid and probabilities must be finite numbers")
    if x.size < 5:
        raise InsufficientDataError(f"need at least 5 grid points, got {x.size}")
    return x, yp, ym


def fit_fringe(theta_hat, p_plus, p_minus, multiplier: float) -> FitResult:
    """Least-squares fit of P_± = (1 ± V_± cos(c θ̂ + δ)) / 2.

    ``theta_hat`` is the estimand grid, ``p_plus``/``p_minus`` the
    observed outcome fractions; every point counts equally.  The two
    visibilities are fit independently, the phase offset δ is shared.
    Confidence half-widths are 90% two-sided values from the fit
    covariance.
    """
    multiplier = _multiplier(multiplier, InsufficientDataError)
    x, yp, ym = _fringe_data(theta_hat, p_plus, p_minus)
    span = float(np.max(x) - np.min(x))
    half_period = np.pi / abs(multiplier)
    if span < half_period * (1.0 - 1e-9):
        raise InsufficientDataError(
            f"grid spans {span:.4g}, need at least half a period {half_period:.4g}"
        )

    with np.errstate(over="ignore"):
        phase = multiplier * x
    if not np.isfinite(phase).all():
        raise InsufficientDataError(f"multiplier {multiplier:g} times the grid overflows")

    # Linear initialization: 2P_+ - 1 = a cos(cx) - b sin(cx) with
    # a = V cos(delta), b = V sin(delta).
    design = np.column_stack([np.cos(phase), -np.sin(phase)])
    if np.linalg.matrix_rank(design) < 2:
        raise DegenerateFitError("grid does not constrain amplitude and offset")
    ap, bp = np.linalg.lstsq(design, 2 * yp - 1, rcond=None)[0]
    am, bm = np.linalg.lstsq(design, 1 - 2 * ym, rcond=None)[0]
    v0p = float(np.hypot(ap, bp))
    v0m = float(np.hypot(am, bm))
    delta0 = float(np.arctan2(bp + bm, ap + am))

    def residuals(params):
        vp, vm, delta = params
        u = np.cos(phase + delta)
        rp = 0.5 * (1 + vp * u) - yp
        rm = 0.5 * (1 - vm * u) - ym
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


def infer_multiplier(theta_hat, p_plus, p_minus) -> int:
    """Integer fringe multiplier in 1..32 minimizing the fit residual.

    Each of c = 1..32 is fit with :func:`fit_fringe`; the smallest c
    wins a tie.  Candidates that cannot be fit are skipped; data that
    none could fit (non-finite, of mismatched lengths, or of fewer than
    5 grid points) raise InsufficientDataError.
    """
    theta_hat, p_plus, p_minus = _fringe_data(theta_hat, p_plus, p_minus)
    best = None
    for c in range(1, 33):
        try:
            fit = fit_fringe(theta_hat, p_plus, p_minus, float(c))
        except (InsufficientDataError, DegenerateFitError):
            continue
        if best is None or fit.residual < best[1]:
            best = (c, fit.residual)
    if best is None:
        raise DegenerateFitError("no candidate multiplier fits the data")
    return best[0]


def _parity_pair(counts: CountRecord) -> tuple[int, int]:
    values = counts.counts
    if values.shape != (2,):
        raise ValueError(
            "mle counts must be a 2-bin parity record; see parity_counts()"
        )
    n_plus, n_minus = values.tolist()
    return n_plus, n_minus


def mle_estimate(
    counts: CountRecord,
    model: FringeModel,
    prior_center: float = 0.0,
) -> float:
    """Maximum-likelihood theta_hat from parity counts, in closed form.

    The binomial likelihood depends on theta only through p+(theta), so
    by MLE invariance the estimate inverts the fringe at the observed
    fraction: theta_hat = (±arccos(r) + 2 pi k) / c with
    r = (2 n+/n - 1) / V.  Of the two mirror branches and their period
    shifts, the one nearest ``prior_center`` wins, the +arccos branch on
    a tie, so the estimate lies within half a fringe period of the
    prior.  A saturated record, |2 n+/n - 1| > V, has r clipped to ±1:
    its estimate sits at the fringe extreme cos(c theta) = ±1 nearest
    the prior, where the likelihood peaks.  A non-finite
    ``prior_center`` raises ValueError.

    The arithmetic is on Python floats, which round each operation as
    numpy's float64 arrays do; ``round(x, 0)`` rounds half to even and
    keeps the sign of a zero, as ``np.round`` does, where the integer
    ``round(x)`` would turn an estimate of -0.0 into 0.0.
    """
    prior = _checks.finite(prior_center, "prior_center")
    n_plus, n_minus = _parity_pair(counts)
    total = n_plus + n_minus
    if total == 0 or model.visibility <= 0.0:
        raise FlatLikelihoodError("counts carry no phase information")

    ratio = (2.0 * n_plus / total - 1.0) / model.visibility
    base = float(np.arccos(min(max(ratio, -1.0), 1.0)))
    c = model.multiplier
    period = 2.0 * pi / abs(c)
    plus = base / c
    minus = -base / c
    plus += period * round((prior - plus) / period, 0)
    minus += period * round((prior - minus) / period, 0)
    return plus if abs(plus - prior) <= abs(minus - prior) else minus


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
    deterministically from ``seed`` (a non-negative integer or a
    ``numpy.random.SeedSequence``), so results do not depend on
    evaluation order.  A non-finite ``theta_true``, or one whose phase
    ``multiplier * theta_true`` overflows, raises ValueError.
    """
    theta_true = _checks.finite(theta_true, "theta_true")
    if not isfinite(model.multiplier * theta_true):
        raise NonFinitePhaseError(
            f"multiplier * theta_true overflows: theta_true = {theta_true!r}"
        )
    groups = _checks.integer(groups, "groups", 2)
    shots_per_group = _checks.integer(shots_per_group, "shots_per_group", 2)
    p_plus = float(model.p_plus(theta_true))
    probs = np.array([p_plus, 1.0 - p_plus])
    estimates = []
    for child in _checks.seed_sequence(seed).spawn(groups):
        rng = np.random.Generator(np.random.PCG64(child))
        record = CountRecord._drawn(draw_counts(probs, shots_per_group, rng))
        estimates.append(mle_estimate(record, model, prior_center=theta_true))
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
        estimates=tuple(estimates),
    )
