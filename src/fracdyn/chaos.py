"""Lyapunov spectra, attractor classification, and eigenvalue stability tests.

The spectrum computation is Benettin-style: integrate the base trajectory
once, then drive an orthonormal tangent frame through the linearized
(variational) dynamics D^alpha dx = Df(x(t)) dx with the same binomial
history-sum scheme used for trajectories.  Every ``renorm_every`` steps the
frame is re-orthonormalized by QR and the log stretch factors accumulate
into exponent estimates.

Because the variational flow is linear, a QR renormalization can be pushed
through the stored convolution history exactly (every stored deviation and
the initial frame are right-multiplied by the inverse triangular factor).
That exact propagation is float-limited: the rescaled initial frame grows
like the inverse of the accumulated contraction, so after enough e-folds
the tangent drowns in cancellation.  ``history_reset_blocks`` bounds the
damage by restarting the convolution history every so many blocks with the
current orthonormal frame as a fresh initial condition.  The default of
one block per reset is the classical Benettin restart, exact at alpha = 1
(one-step memory), where it is always used; systems with weak contraction
and long-memory orders benefit from much longer stretches between resets.

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
                      drift_tol: float = 5e-2,
                      history_reset_blocks: Optional[int] = 1,
                      base_trajectory: Optional[Trajectory] = None,
                      ) -> LyapunovResult:
    """Lyapunov exponents of a fractional system by tangent-frame QR.

    The base trajectory is integrated with ``config.scheme``; the tangent
    frame always runs through the binomial history-sum discretization of
    the variational equation, so the classical limit alpha = 1 collapses
    to the standard map-Jacobian product.  ``transient`` (default 20% of
    the horizon) is integrated but excluded from exponent accumulation.

    ``history_reset_blocks`` sets how many renormalization blocks the
    tangent convolution history survives before being restarted from the
    current frame (None: never).  Within a stretch the QR factors are
    pushed through the stored history exactly; see the module docstring
    for the conditioning trade-off.  At alpha = 1 the history is the one
    lag c_1 = -1 and a restart is exact, so it runs at every block: every
    ``history_reset_blocks`` gives the one-block result bit for bit.

    For systems with ``observables`` set, one tangent column is seeded per
    observable coordinate and QR normalization acts on the observable rows,
    yielding the exponents of the physical (non-chain) dynamics.
    """
    if system.jacobian is None:
        raise ConfigError(f"system {system.name!r} has no Jacobian")
    if renorm_every < 1:
        raise ConfigError(f"renorm_every must be >= 1, got {renorm_every}")
    if history_reset_blocks is not None and history_reset_blocks < 1:
        raise ConfigError("history_reset_blocks must be >= 1 or None")
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
    # at alpha = 1 the history is the one lag c_1 = -1, so a restart at
    # every block is exact
    reset_blocks = 1 if alpha == 1.0 else history_reset_blocks or n_blocks
    stretch_steps = min(reset_blocks * renorm_every, n_steps)
    dev = np.zeros((stretch_steps + 1, dim, m))  # history within a stretch
    hist = gl_history(alpha, stretch_steps if config.memory_window is None
                      else min(config.memory_window, stretch_steps), dev)
    ha = h ** alpha

    jac = system.jacobian
    x = traj.x
    t = traj.t
    v_base = v_prev = v0             # v_base: Caputo anchor of the stretch
    logs = np.zeros(m)
    history = []
    step = 0                         # base-trajectory index of v_prev
    i = 0                            # steps since the last history reset

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
        if (block + 1) % reset_blocks == 0 or block == n_blocks - 1:
            # restart the convolution history from the orthonormal frame
            v_base = v_prev
            i = 0
            hist.reset()
        else:
            # exact push-through: rescale the anchor and the history by
            # the same triangular factor
            v_base = v_base @ rinv
            hist.rescale(i, rinv)
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
        converged=bool(drift < drift_tol),
        drift=drift,
        alpha=alpha,
        system_name=system.name,
    )
