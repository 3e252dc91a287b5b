"""Lyapunov spectra, attractor classification, and eigenvalue stability tests.

The spectrum computation is Benettin-style: integrate the base trajectory
once, then drive an orthonormal tangent frame through the linearized
(variational) dynamics D^alpha dx = Df(x(t)) dx with the same binomial
history-sum scheme used for trajectories.  Every ``renorm_every`` steps the
frame is re-orthonormalized by QR and the log stretch factors accumulate
into exponent estimates.

``tangent_history`` names the convention the exponents are measured in:

- ``"restart"`` (the default) restarts the Caputo convolution history of
  the tangent frame at every QR, with the orthonormal frame as a fresh
  initial condition.  It gives finite-time exponents over the block
  length T = ``renorm_every`` * h, and for alpha < 1 they depend on T.
  With one step per block a restart multiplies the frame by
  I + h^alpha * Df, so the exponent is about h^(alpha - 1) * Re(mu) for an
  eigenvalue mu of Df, which has no limit as h -> 0.
- ``"exact"`` solves the linear variational equation itself.  Because
  that flow is linear, each QR factor is pushed through the stored
  history exactly (every stored deviation and the Caputo anchor are
  right-multiplied by the inverse triangular factor), so the exponents do
  not depend on T.  The push-through rescales every stored row, which
  costs O(N^2) over an N-step run, and the anchor grows like the inverse
  of the accumulated contraction, so a long run of strong contraction
  loses digits to cancellation.

At alpha = 1 the history is the one lag of a first-order step, so a
restart is exact and both conventions give the same bits.

For chain lifts of scalar equations (``system.observables`` set) the frame
holds one tangent column per observable and the QR acts on the observable
rows only, so exponents are reported for the physical coordinates.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .solvers import SolverConfig, SystemSpec, Trajectory, gl_history, solve
from .systems import Equilibrium, find_equilibria

# lambda_1 counts as converged when its last-quarter drift is below this
_DRIFT_TOL = 5e-2
TANGENT_HISTORIES = ("restart", "exact")

__all__ = [
    "LyapunovResult",
    "MatignonResult",
    "SpectralChaosResult",
    "EquilibriumAssessment",
    "StabilityReport",
    "lyapunov_spectrum",
    "kaplan_yorke",
    "classify_attractor",
    "matignon_stability",
    "spectral_chaos_criterion",
    "dimension_instability_check",
    "stability_report",
]


@dataclass(frozen=True)
class LyapunovResult:
    """Converged (or not) exponent estimates from one tangent-frame run."""

    exponents: np.ndarray        # sorted descending, units 1/time
    history: np.ndarray          # (n_renorms, m) running estimates
    d_ky: float
    transient_discarded: float   # time units dropped before accumulation
    converged: bool              # last-quarter drift of lambda_1 below tol
    drift: float
    alpha: float
    system_name: str


def kaplan_yorke(exponents) -> float:
    """Interpolated dimension j + (sum of first j exponents)/|exponent j+1|.

    ``exponents`` must be sorted descending.  j is the largest count of
    leading exponents with non-negative partial sum; 0 if the largest
    exponent is negative, the full length if every partial sum is
    non-negative.
    """
    lam = np.asarray(exponents, dtype=float)
    if lam.size == 0:
        raise ValueError("empty exponent vector")
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("exponents must be sorted descending")
    sums = np.cumsum(lam)
    if sums[0] < 0.0:
        return 0.0
    nonneg = np.nonzero(sums >= 0.0)[0]
    j = int(nonneg[-1]) + 1
    if j == lam.size:
        return float(lam.size)
    return j + float(sums[j - 1]) / abs(float(lam[j]))


def classify_attractor(result, zero_tol: float = 0.01) -> str:
    """Sign-pattern classification of a Lyapunov spectrum.

    strange: expansion plus contraction; limit_cycle: leading exponent
    neutral, the rest contracting; fixed_point: everything contracting.
    """
    lam = np.asarray(getattr(result, "exponents", result), dtype=float)
    if lam.size == 0:
        raise ValueError("empty exponent vector")
    if zero_tol <= 0.0:
        raise ValueError("zero_tol must be positive")
    if lam[0] > zero_tol and np.any(lam < -zero_tol):
        return "strange"
    if np.all(lam < -zero_tol):
        return "fixed_point"
    if abs(lam[0]) <= zero_tol and np.all(lam[1:] < -zero_tol):
        return "limit_cycle"
    return "undetermined"


@dataclass(frozen=True)
class MatignonResult:
    """Sector test |arg(lambda)| > alpha*pi/2 applied to a spectrum."""

    margins: np.ndarray          # |arg lambda_i| - alpha*pi/2
    stable: bool                 # all non-marginal margins positive
    marginal: tuple              # indices of exactly-zero eigenvalues


def matignon_stability(eigenvalues, alpha: float) -> MatignonResult:
    """Fractional-order linear stability of a spectrum.

    An equilibrium of a commensurate order-``alpha`` system is
    asymptotically stable iff every Jacobian eigenvalue lies outside the
    closed sector |arg z| <= alpha*pi/2.  Zero eigenvalues are marginal:
    they are excluded from the verdict and reported with a warning.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    threshold = 0.5 * alpha * math.pi
    margins = np.abs(np.angle(lam)) - threshold
    marginal = tuple(int(i) for i in np.nonzero(lam == 0.0)[0])
    if marginal:
        warnings.warn(
            f"{len(marginal)} zero eigenvalue(s) excluded from the sector "
            "test as marginal", stacklevel=2)
    active = np.ones(lam.size, dtype=bool)
    active[list(marginal)] = False
    stable = bool(np.all(margins[active] > 0.0)) if active.any() else False
    return MatignonResult(margins=margins, stable=stable, marginal=marginal)


@dataclass(frozen=True)
class SpectralChaosResult:
    """Eigenvalues exceeding the alpha-dependent expansion threshold."""

    witnesses: np.ndarray        # eigenvalues with Re > alpha*pi/2
    flag: bool                   # witnesses non-empty
    sign_split: bool             # some eigenvalue also has Re < 0
    threshold: float


def spectral_chaos_criterion(equilibrium, alpha: float) -> SpectralChaosResult:
    """Expansion test Re(lambda) > alpha*pi/2 on an equilibrium spectrum.

    Returns the witness subset and whether the spectrum also contains a
    contracting direction (a sign split), the configuration this criterion
    associates with chaotic dynamics.  Accepts an ``Equilibrium`` or a bare
    eigenvalue vector.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    lam = np.atleast_1d(np.asarray(
        getattr(equilibrium, "eigenvalues", equilibrium), dtype=complex))
    threshold = 0.5 * alpha * math.pi
    mask = lam.real > threshold
    return SpectralChaosResult(
        witnesses=lam[mask],
        flag=bool(mask.any()),
        sign_split=bool(np.any(lam.real < 0.0)),
        threshold=threshold,
    )


def dimension_instability_check(dimension_estimate: float, n: int) -> bool:
    """True iff an attractor dimension estimate exceeds n - 1.

    The estimate (box-counting or Kaplan-Yorke) stands in for the Hausdorff
    dimension; the comparison is strict.
    """
    if dimension_estimate < 0.0:
        raise ValueError("dimension_estimate must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return dimension_estimate > n - 1


@dataclass(frozen=True)
class EquilibriumAssessment:
    equilibrium: Equilibrium
    margins: np.ndarray
    spectral: SpectralChaosResult
    classification: str          # "stable" | "unstable"


@dataclass(frozen=True)
class StabilityReport:
    alpha: float
    equilibria: tuple            # of EquilibriumAssessment


def stability_report(system: SystemSpec, alpha: float, guesses=None,
                     t: float = 0.0) -> StabilityReport:
    """Equilibrium search plus both eigenvalue criteria at one order."""
    assessments = []
    for eq in find_equilibria(system, guesses=guesses, t=t):
        mat = matignon_stability(eq.eigenvalues, alpha)
        spec = spectral_chaos_criterion(eq, alpha)
        assessments.append(EquilibriumAssessment(
            equilibrium=eq,
            margins=mat.margins,
            spectral=spec,
            classification="stable" if mat.stable else "unstable",
        ))
    return StabilityReport(alpha=alpha, equilibria=tuple(assessments))


def lyapunov_spectrum(system: SystemSpec, config: SolverConfig,
                      renorm_every: int = 10,
                      transient: Optional[float] = None,
                      tangent_seed: Optional[np.ndarray] = None,
                      tangent_history: str = "restart",
                      base_trajectory: Optional[Trajectory] = None,
                      ) -> LyapunovResult:
    """Lyapunov exponents of a fractional system by tangent-frame QR.

    The base trajectory is integrated with ``config.scheme``; the tangent
    frame always runs through the binomial history-sum discretization of
    the variational equation, so the classical limit alpha = 1 collapses
    to the standard map-Jacobian product.  ``transient`` (default 20% of
    the horizon) is integrated but excluded from exponent accumulation.

    ``tangent_history`` is the convention (see the module docstring):
    ``"restart"`` restarts the tangent convolution history at every QR and
    gives finite-time exponents over T = ``renorm_every`` * h, which depend
    on T for alpha < 1; ``"exact"`` pushes every QR factor through the
    stored history, solving the variational equation exactly at O(N^2)
    cost, with exponents that do not depend on T.  At alpha = 1 a restart
    is exact, so both give the same bits.

    For systems with ``observables`` set, one tangent column is seeded per
    observable coordinate and QR normalization acts on the observable rows,
    yielding the exponents of the physical (non-chain) dynamics.
    """
    if system.jacobian is None:
        raise ConfigError(f"system {system.name!r} has no Jacobian")
    if renorm_every < 1:
        raise ConfigError(f"renorm_every must be >= 1, got {renorm_every}")
    if tangent_history not in TANGENT_HISTORIES:
        raise ConfigError(
            f"tangent_history must be 'restart' or 'exact', "
            f"got {tangent_history!r}")
    n_steps = config.n_steps
    if transient is None:
        transient = 0.2 * (config.t_end - config.t0)
    if not (0.0 <= transient < config.t_end - config.t0):
        raise ConfigError(
            f"transient must lie in [0, t_end - t0), got {transient}")

    traj = base_trajectory if base_trajectory is not None else solve(
        system, config)
    if traj.x.shape != (n_steps + 1, system.dim):
        raise ConfigError("base trajectory does not match config/system")

    dim = system.dim
    rows = list(system.observables) if system.observables else list(range(dim))
    m = len(rows)
    # seed frame: unit vectors along the observable rows
    v0 = np.eye(dim)[:, rows] if tangent_seed is None else tangent_seed
    if v0.shape != (dim, m):
        raise ConfigError(f"tangent_seed must have shape ({dim}, {m})")

    alpha, h = config.alpha, config.h
    # number of whole renormalization blocks and how many are transient
    n_blocks = n_steps // renorm_every
    if n_blocks < 4:
        raise ConfigError("horizon too short: fewer than 4 renormalizations")
    skip_blocks = min(int(math.ceil(transient / (h * renorm_every))),
                      n_blocks - 1)
    transient_discarded = skip_blocks * renorm_every * h
    # at alpha = 1 the history is the one lag c_1 = -1, so a restart is
    # exact; the history spans one block, or the whole run when exact
    exact = tangent_history == "exact" and alpha != 1.0
    span = n_blocks * renorm_every if exact else renorm_every
    dev = np.zeros((span + 1, dim, m))
    hist = gl_history(alpha, span if config.memory_window is None
                      else min(config.memory_window, span), dev)
    ha = h ** alpha

    jac = system.jacobian
    x = traj.x
    t = traj.t
    v_base = v_prev = v0             # v_base: Caputo anchor of the history
    logs = np.zeros(m)
    history = []
    step = 0                         # base-trajectory index of v_prev
    i = 0                            # rows in the stored tangent history

    for block in range(n_blocks):
        for _ in range(renorm_every):
            d = ha * (np.asarray(jac(t[step], x[step])) @ v_prev)
            step += 1
            i += 1
            d -= hist(i)
            dev[i] = d
            v_prev = v_base + d
        obs = v_prev[rows, :]
        q, r = np.linalg.qr(obs)
        diag = np.diag(r).copy()
        if np.any(np.abs(diag) < 1e-300) or not np.all(np.isfinite(diag)):
            raise NonConvergenceError(
                f"tangent frame collapsed at t = {t[step]:.6g}")
        sign = np.sign(diag)
        r *= sign[:, None]           # positive diagonal convention
        rinv = np.linalg.inv(r)
        v_prev = v_prev @ rinv
        if exact:
            # push-through: rescale the anchor and the history by the
            # same triangular factor
            v_base = v_base @ rinv
            hist.rescale(i, rinv)
        else:
            # restart the convolution history from the orthonormal frame
            v_base = v_prev
            i = 0
            hist.reset()
        if block >= skip_blocks:
            logs += np.log(np.abs(diag))
            elapsed = (block - skip_blocks + 1) * renorm_every * h
            history.append(logs / elapsed)

    history = np.array(history)
    exponents = np.sort(history[-1])[::-1]
    quarter = max(1, len(history) // 4)
    lam1 = history[:, np.argmax(history[-1])]
    drift = float(np.max(np.abs(lam1[-quarter:] - lam1[-1])))
    return LyapunovResult(
        exponents=exponents,
        history=history,
        d_ky=kaplan_yorke(exponents),
        transient_discarded=transient_discarded,
        converged=bool(drift < _DRIFT_TOL),
        drift=drift,
        alpha=alpha,
        system_name=system.name,
    )
