"""Lyapunov spectra, attractor classification, and eigenvalue stability tests.

The spectrum computation is Benettin-style: integrate the base trajectory
once, then drive an orthonormal tangent frame through the linearized
(variational) dynamics D^alpha dx = Df(x(t)) dx with the GL scheme, whose
map it linearizes, so a base trajectory of another scheme is refused.  Every
``renorm_every`` steps the frame is re-orthonormalized by QR and the log
stretch factors accumulate into exponent estimates.

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

The restart convention is computed as block transfer matrices.  A
restarted block maps its start frame linearly to its end frame,
v_end = Phi_b @ v_start, and Phi_b depends only on the Jacobians along
block b.  The blocks are grouped into chunks of max(1, ROWS //
``renorm_every``) blocks, about ``ROWS`` steps; every Phi_b of a chunk is
stepped from the identity at once, through one ``HistoryKernel`` whose
rows hold the (n_blocks, dim, dim) batch of deviations, and only the small
QR chain over the blocks runs block by block.  The chunk's Jacobians and
transfer matrices take O(max(ROWS, ``renorm_every``) * dim^2) floats.  The
exact-flow convention steps the frame itself, one step at a time, with the
Jacobians of about ``ROWS`` steps at a time.  Either way
``system.jacobian`` is called once per chunk, on a batch of states (see
``SystemSpec``).

At alpha = 1 the history is the one lag of a first-order step, so a
restart is exact; both conventions then take the restart path and give
the same bits.

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

# lambda_1 counts as converged when its drift over the last quarter of its
# estimates, and at least the last two, is below this
_DRIFT_TOL = 5e-2
# classify_attractor counts an exponent within this of 0 as neutral
_ZERO_TOL = 0.01
TANGENT_HISTORIES = ("restart", "exact")
# steps per chunk of the restart convention: its Jacobians and transfer
# matrices are held for max(1, ROWS // renorm_every) blocks at a time
ROWS = 4096

__all__ = [
    "LyapunovResult",
    "MatignonResult",
    "EquilibriumAssessment",
    "lyapunov_spectrum",
    "kaplan_yorke",
    "classify_attractor",
    "matignon_stability",
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
    converged: bool              # drift below tol, over two or more estimates
    drift: float                 # max |lambda_1 - its last estimate| over
                                 # the last max(2, n_renorms // 4) estimates


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


def classify_attractor(result) -> str:
    """Sign-pattern classification of a Lyapunov spectrum.

    strange: expansion plus contraction; limit_cycle: leading exponent
    neutral, the rest contracting; fixed_point: everything contracting.
    An exponent within ``_ZERO_TOL`` of 0 is neutral.
    """
    lam = np.asarray(getattr(result, "exponents", result), dtype=float)
    if lam.size == 0:
        raise ValueError("empty exponent vector")
    if lam[0] > _ZERO_TOL and np.any(lam < -_ZERO_TOL):
        return "strange"
    if np.all(lam < -_ZERO_TOL):
        return "fixed_point"
    if abs(lam[0]) <= _ZERO_TOL and np.all(lam[1:] < -_ZERO_TOL):
        return "limit_cycle"
    return "undetermined"


@dataclass(frozen=True)
class MatignonResult:
    """Sector test |arg(lambda)| > alpha*pi/2 applied to a spectrum."""

    margins: np.ndarray          # |arg lambda_i| - alpha*pi/2
    stable: bool                 # all non-marginal margins positive


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
    active = lam != 0.0
    if not active.all():
        warnings.warn(
            f"{int(lam.size - active.sum())} zero eigenvalue(s) excluded from "
            "the sector test as marginal", stacklevel=2)
    stable = bool(np.all(margins[active] > 0.0)) if active.any() else False
    return MatignonResult(margins=margins, stable=stable)


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
    classification: str          # "stable" | "unstable"
    alpha_star: float            # stable at order alpha iff alpha < alpha_star
    saddle_focus: bool           # unstable eigenvalues: one complex pair


def stability_report(system: SystemSpec, alpha: float,
                     t: float = 0.0) -> tuple:
    """Equilibrium search plus the sector test at one order: a tuple with
    one ``EquilibriumAssessment`` per equilibrium that ``find_equilibria``
    returns, in its order.

    Each equilibrium also gets its critical order alpha* = (2/pi) *
    min|arg mu| over its nonzero eigenvalues (0 if none), below which it
    is stable, and whether it is an index-2 saddle-focus: exactly two
    eigenvalues with Re > 0, a complex pair.  Neither depends on the time
    unit.  A scroll around such a focus needs alpha > alpha* (Tavazoei &
    Haeri, Phys. Lett. A 367, 2007): necessary for chaos, not a verdict.
    """
    assessments = []
    for eq in find_equilibria(system, t=t):
        lam = eq.eigenvalues
        mat = matignon_stability(lam, alpha)
        args = np.abs(np.angle(lam[lam != 0.0]))
        unstable = lam[lam.real > 0.0]
        assessments.append(EquilibriumAssessment(
            equilibrium=eq,
            margins=mat.margins,
            classification="stable" if mat.stable else "unstable",
            alpha_star=2.0 / math.pi * float(args.min()) if args.size else 0.0,
            # a real Jacobian's nonreal roots come in conjugate pairs
            saddle_focus=bool(unstable.size == 2 and unstable[0].imag != 0.0),
        ))
    return tuple(assessments)


class _QRChain:
    """Benettin bookkeeping shared by both conventions.

    Called once per block, in block order, with the block's end frame: QR
    of the observable rows, the collapse check, the positive-diagonal
    convention, and the diagonal of R (the signed stretch factors) of the
    blocks past the transient.  Returns the renormalized frame and the
    inverse triangular factor.  ``history`` turns the stored stretches into
    the running exponent estimates.
    """

    def __init__(self, rows, skip_blocks, renorm_every, h):
        self.rows = np.array(rows)
        self.skip_blocks = skip_blocks
        self.renorm_every = renorm_every
        self.h = h
        self.block = 0
        self.stretches = []
        self._below = np.tril_indices(len(rows), -1)

    def __call__(self, v, t):
        # mode "raw" skips forming Q; the upper triangle of its transposed
        # h is the R of mode "r", bit for bit, with reflectors below it
        r = np.linalg.qr(v[self.rows], mode="raw")[0].T
        diag = r.diagonal().copy()
        # NaN fails the comparison as well
        if not all(1e-300 <= abs(d) < math.inf for d in diag.tolist()):
            raise NonConvergenceError(
                f"tangent frame collapsed at t = {t:.6g}")
        r[self._below] = 0.0
        r *= np.sign(diag)[:, None]  # positive diagonal convention
        rinv = np.linalg.inv(r)
        if self.block >= self.skip_blocks:
            self.stretches.append(diag)
        self.block += 1
        return v @ rinv, rinv

    @property
    def history(self):
        """(n, m) running estimates: the summed log stretches of the first
        k blocks past the transient over their elapsed time, k = 1 .. n."""
        # cumsum adds block by block, as a running sum would
        logs = np.cumsum(np.log(np.abs(np.array(self.stretches))), axis=0)
        elapsed = np.arange(1, len(logs) + 1) * self.renorm_every * self.h
        return logs / elapsed[:, None]


def _jacobians(system, traj, steps):
    """The Jacobians along the base trajectory at ``steps`` (a slice), from
    one batch call, as a contiguous (n, dim, dim) array."""
    t, x = traj.t[steps], traj.x[steps]
    shape = (len(t), system.dim, system.dim)
    jac = np.asarray(system.jacobian(t, x), dtype=float)
    try:
        return np.ascontiguousarray(np.broadcast_to(jac, shape))
    except ValueError:
        raise ConfigError(
            f"jacobian of system {system.name!r} returned shape {jac.shape} "
            f"for a batch of {len(t)} states; expected {shape}") from None


def _exact_flow(system, config, traj, renorm_every, n_blocks, v0, chain):
    """Step the frame through the whole run, pushing every QR factor
    through the stored history and the Caputo anchor ``v_base``.

    The Jacobians come ``ROWS`` steps at a time."""
    span = n_blocks * renorm_every
    dev = np.zeros((span + 1,) + v0.shape)
    hist = gl_history(config.alpha, span, dev)
    ha = config.h ** config.alpha
    v_base = v_prev = v0
    step = 0                         # base-trajectory index of v_prev
    for first in range(0, span, ROWS):
        for jac in _jacobians(system, traj,
                              slice(first, min(first + ROWS, span))):
            step += 1
            d = dev[step]
            np.subtract(ha * (jac @ v_prev), hist(step), out=d)
            v_prev = v_base + d
            if step % renorm_every == 0:
                v_prev, rinv = chain(v_prev, traj.t[step])
                # push-through: rescale the anchor and the history by the
                # same triangular factor
                v_base = v_base @ rinv
                hist.rescale(step, rinv)


def _restart_blocks(system, config, traj, renorm_every, n_blocks, v0, chain):
    """Restart convention as block transfer matrices.

    A restarted block maps its start frame linearly to its end frame,
    v_end = Phi_b @ v_start, and Phi_b depends only on the Jacobians along
    block b.  With Phi_0 = I the GL tangent step gives
    D_j = h^alpha J_{j-1} Phi_{j-1} - sum_k c_k D_{j-k} and
    Phi_j = I + D_j.  The blocks of a chunk of about ``ROWS`` steps step
    together: row j of the history buffer holds D_j of every block, so one
    ``HistoryKernel`` call per j sums all their histories, and the step
    subtracts that sum into row j, as ``solve_gl`` does.  Only the QR chain
    over the blocks stays sequential.
    """
    dim, R = system.dim, renorm_every
    ha = config.h ** config.alpha
    eye = np.eye(dim)
    per_chunk = max(1, ROWS // R)
    v = v0
    for first in range(0, n_blocks, per_chunk):
        count = min(per_chunk, n_blocks - first)
        dev = np.zeros((R + 1, count, dim, dim))
        hist = gl_history(config.alpha, R, dev)
        start = first * R
        hj = ha * _jacobians(system, traj, slice(start, start + count * R))
        # (R, count, dim, dim): row j holds step j of every block
        hj = hj.reshape(count, R, dim, dim).swapaxes(0, 1)
        for j in range(1, R + 1):
            np.subtract(hj[j - 1] @ (eye + dev[j - 1]), hist(j), out=dev[j])
        phi = eye + dev[R]
        for b in range(count):
            v, _ = chain(phi[b] @ v, traj.t[start + (b + 1) * R])


def lyapunov_spectrum(system: SystemSpec, config: SolverConfig,
                      renorm_every: int = 10,
                      transient: Optional[float] = None,
                      tangent_seed: Optional[np.ndarray] = None,
                      tangent_history: str = "restart",
                      base_trajectory: Optional[Trajectory] = None,
                      ) -> LyapunovResult:
    """Lyapunov exponents of a fractional system by tangent-frame QR.

    The base trajectory is integrated by GL, and the tangent frame steps
    the GL discretization of the variational equation, the derivative of
    that map, so alpha = 1 collapses to the map-Jacobian product.  Another
    scheme's config or ``base_trajectory`` raises ``ConfigError`` before
    any solve: the frame would report the spectrum of a map it never
    linearized.  So does a ``memory_window``: a windowed base under a
    full-memory tangent flow would be inconsistent.  ``transient`` (default
    20% of the horizon) is integrated but excluded from exponent sums.

    ``tangent_history`` is the convention (see the module docstring):
    ``"restart"`` restarts the tangent convolution history at every QR and
    gives finite-time exponents over T = ``renorm_every`` * h, which depend
    on T for alpha < 1; ``"exact"`` pushes every QR factor through the
    stored history, solving the variational equation exactly at O(N^2)
    cost, with exponents that do not depend on T.  At alpha = 1 a restart
    is exact, so both give the same bits.

    The restart convention steps the transfer matrices of a chunk of about
    ``ROWS`` steps' blocks together (see the module docstring), which
    holds O(max(ROWS, renorm_every) * dim^2) floats at a time; the exact
    convention holds the whole (N + 1, dim, m) tangent history.  Either
    way ``system.jacobian`` is called once per chunk, on a batch.

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
    if config.memory_window is not None:
        raise ConfigError("lyapunov_spectrum needs a full-memory config, "
                          f"got memory_window={config.memory_window}")
    for source in (config, base_trajectory):
        if source is not None and source.scheme != "gl":
            raise ConfigError("lyapunov_spectrum linearizes the GL map "
                              f"only; got scheme {source.scheme!r}")
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
    chain = _QRChain(rows, skip_blocks, renorm_every, h)
    # at alpha = 1 the history is the one lag c_1 = -1, so a restart is
    # exact and both conventions take the restart path
    if tangent_history == "exact" and alpha != 1.0:
        _exact_flow(system, config, traj, renorm_every, n_blocks, v0, chain)
    else:
        _restart_blocks(system, config, traj, renorm_every, n_blocks, v0,
                        chain)

    history = chain.history
    exponents = np.sort(history[-1])[::-1]
    last = max(2, len(history) // 4)
    lam1 = history[:, np.argmax(history[-1])]
    drift = float(np.max(np.abs(lam1[-last:] - lam1[-1])))
    return LyapunovResult(
        exponents=exponents,
        history=history,
        d_ky=kaplan_yorke(exponents),
        transient_discarded=transient_discarded,
        # one estimate has no drift to measure
        converged=len(history) > 1 and drift < _DRIFT_TOL,
        drift=drift,
    )
