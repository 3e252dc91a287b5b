"""Time-steppers for Caputo fractional initial value problems.

Two schemes over the commensurate system D^alpha x = f(t, x), 0 < alpha <= 1:

* ``solve_gl``  -- explicit Grunwald-Letnikov scheme applied to x - x0 (the
  shift makes it a Caputo discretization), first-order accurate;
* ``solve_abm`` -- Adams-Bashforth-Moulton PECE scheme (one corrector
  evaluation per step) on the Volterra integral form, order ~ 1 + alpha.

``SolverConfig.memory_window`` drops the history lags past a window (the
short-memory principle) in these two steppers and nowhere else.  It exists
only for the error study of the ``relaxation-oracle`` benchmark, which
measures how far a windowed run strays from the Caputo solution; no other
layer accepts a windowed config, and trajectory files do not record it.

Both reduce to their classical counterparts (Euler, Heun/trapezoid) at
alpha = 1.  ``multi_term_to_system`` rewrites a scalar equation with several
derivative orders as a commensurate first-order-in-D^alpha chain.

Per-step cost is one call of the shared history kernel ``HistoryKernel``
(for ABM, one call with two weight rows, which returns the predictor and
the corrector sum together): a direct dot over the last ``BASE`` - 1 lags,
plus FFT tiles for the longer lags that run once per completed block of
history, so a full-memory run over N steps costs O(N log^2 N * dim) flops.
A kernel is bound to the buffer it sums: ``hist(end)`` needs
``end <= len(buf) - 1`` and returns the history sum in the kernel's own
row ``hist.sum``; rows below ``end`` change only through ``hist.rescale``.

Memory: the GL stepper's deviation array is its kernel's ``pending``, so
the tiles add their far sums into its rows ahead of the step, and the
step subtracts ``hist.sum`` into row m; the result is that array shifted
by x0 in place.  A full-memory GL solve over N steps then holds the
(N + 1, dim) trajectory, its time grid, the tiles' weight spectra (at
most 32 bytes per step) and, while the largest tile runs, one column's
transform pair (at most 32 bytes per step again): at N = 10^5 in 3-d, a
traced peak of 7.9 MB for a 2.4 MB trajectory.  ABM keeps separate
(N + 1, 2, dim) pending rows for x0 and f_0's terms.

Both steppers check divergence once per block of ``BASE`` steps (and once
for the final partial block): the first row of the block whose max|x|
exceeds ``DIVERGE_BOUND``, or is not finite, ends the run in
``DivergenceError`` with that row's step and time, as a per-step check
would.  The rows past it still run, so the stepping keeps numpy's overflow
and invalid-value warnings off.  When the field raises inside a block, the
rows already written are checked first, so a diverged state still ends in
``DivergenceError`` at its own step rather than in the field's error.
"""

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gamma, gcd, isfinite
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DivergenceError, IncommensurableOrdersError


@dataclass(frozen=True)
class SystemSpec:
    """A first-order (in D^alpha) autonomous-or-forced vector field.

    ``field(t, x)`` is called on one state: x of shape (dim,), t a float,
    returning the (dim,) derivative.  ``jacobian(t, x)`` serves batches: x
    of shape (..., dim) and t of shape (...), returning (..., dim, dim),
    or anything that broadcasts to it (a constant (dim, dim) matrix for a
    linear field).  The tangent steppers of ``chaos`` call it once per
    chunk of steps, and a result that does not broadcast to (n, dim, dim)
    for n states ends in ``ConfigError``.
    """

    name: str
    dim: int
    field: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    params: dict = None
    # coordinates carrying the physical state when the system is a
    # commensurate lift of a higher-order equation (None: all of them)
    observables: Optional[tuple] = None

    def __post_init__(self):
        if self.params is None:
            object.__setattr__(self, "params", {})
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    h: float
    t_end: float
    x0: np.ndarray
    t0: float = 0.0
    scheme: str = "gl"      # or "abm": one corrector evaluation per step
    memory_window: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.h > 0.0 and isfinite(self.h)):
            raise ConfigError(f"h must be positive and finite, got {self.h}")
        if not (isfinite(self.t0) and isfinite(self.t_end)):
            raise ConfigError(
                f"t0 and t_end must be finite, got {self.t0} and {self.t_end}")
        if not (self.t_end > self.t0):
            raise ConfigError(
                f"t_end ({self.t_end}) must exceed t0 ({self.t0})")
        if not isfinite((self.t_end - self.t0) / self.h):
            raise ConfigError(
                f"(t_end - t0) / h must be finite, got ({self.t_end} - "
                f"{self.t0}) / {self.h}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise ConfigError("x0 must be a finite 1-d array")
        object.__setattr__(self, "x0", x0)
        if self.scheme not in ("gl", "abm"):
            raise ConfigError(
                f"scheme must be 'gl' or 'abm', got {self.scheme!r}")
        if self.memory_window is not None and self.memory_window < 1:
            raise ConfigError(
                f"memory_window must be >= 1, got {self.memory_window}")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t0) / self.h))


@dataclass
class Trajectory:
    t: np.ndarray           # (N+1,)
    x: np.ndarray           # (N+1, dim)
    alpha: float
    h: float
    system_name: str
    scheme: str


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First `count` history weights c_k = (-1)^k binom(alpha, k).

    Computed by the stable recurrence c_0 = 1,
    c_k = c_{k-1} * (1 - (alpha + 1)/k).
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    c = np.empty(count)
    c[0] = 1.0
    if count == 1:
        return c
    k = np.arange(1, count, dtype=float)
    np.cumprod(1.0 - (alpha + 1.0) / k, out=c[1:])
    return c


# Lags below BASE are summed by a direct dot; longer ones by FFT tiles of
# BASE * 2^l rows.
BASE = 64
# the steppers' trust region: a state with max|x| past it has diverged
DIVERGE_BOUND = 1e10


class HistoryKernel:
    """Streaming history convolution for the GL, ABM and tangent steppers.

    Bound to the history buffer ``buf`` (one state per row: a vector for
    GL and ABM, a (dim, m) block for the exact-flow tangent frame, a
    (n_blocks, dim, dim) batch of transfer-matrix deviations for the
    restart convention, so one call sums every block's history) and called
    once per step with ``end`` = 1, 2, ... <= len(buf) - 1, ``hist(end)``
    writes sum_{k=1}^{min(end, window)} w_k * buf[end - k] + pending[end]
    into its own C-contiguous array ``hist.sum`` and returns it, with
    ``weights[k - 1]`` = w_k.  Rows below ``end`` must be final: the caller
    finishes row ``end`` after the call and changes earlier rows only
    through ``rescale``.  A restart at ``end`` = 1 takes a fresh kernel.
    Trailing zero weights are dropped, so ``window`` is the longest
    contributing lag (one lag for GL at alpha = 1).

    ``weights`` of shape (K, n) holds K weight rows over the same buffer:
    ``sum`` then has shape (K,) + a row's shape, and its entry j is the
    sum with the weights ``weights[j]``, all K from one pass over ``buf``
    (ABM's predictor and corrector).  ``pending``, of shape (len(buf),) +
    ``sum``'s shape, holds the kernel's far rows: the tiles add into it,
    and any term it starts with (ABM's x0 and f_0 terms) costs nothing
    per step.  It is ``buf`` itself for the GL steppers, whose rows from
    ``end`` on are zero until the caller writes them, so the kernel holds
    no far rows beside the buffer.

    The sum is split by lag.  Lags below ``BASE`` are the *near* part: one
    BLAS dot of the reversed weights against ``buf[end - n:end]`` (rows of
    rank two or more through flat views), so a window shorter than
    ``BASE`` is summed exactly as a plain direct dot.  Lags in [s, 2s), for
    each tile size s = BASE * 2^l <= window, are the *far* part: when an
    aligned input block ``buf[end - s:end]`` is complete (``end`` % s == 0),
    one FFT tile convolves it with w_s .. w_{2s-1} (one forward transform
    shared by the K weight rows) and adds the result into the far rows of
    the 2s - 1 outputs it reaches.  Every (row, lag >= BASE) pair falls
    into exactly one tile, which runs before its output is asked for.
    Over N steps this costs O(N log^2 N) instead of O(N * window).  A tile
    transforms one column of the flattened row at a time, through views
    that need ``buf`` and ``pending`` C-contiguous, so its transient is one
    column's transform pair rather than the whole block's.
    """

    __slots__ = ("window", "sum", "_buf", "_rows", "_flat", "_near", "_rev",
                 "_tiles", "_far", "_reach")

    def __init__(self, weights, buf, pending):
        w = np.asarray(weights, dtype=float)
        nz = np.nonzero(np.atleast_2d(w).any(axis=0))[0]
        self.window = int(nz[-1]) + 1 if len(nz) else 0
        self._buf = buf
        self._rows = buf if buf.ndim <= 2 else np.reshape(
            buf, (len(buf), -1), copy=False)
        self.sum = np.empty(w.shape[:-1] + buf.shape[1:])
        # ``sum`` as the near dot's output: a row's axes flattened as in
        # ``_rows``
        self._flat = self.sum if self._rows is buf else self.sum.reshape(
            w.shape[:-1] + (-1,))
        self._near = min(self.window, BASE - 1)
        self._rev = np.ascontiguousarray(w[..., :self._near][..., ::-1])
        self._tiles = []
        s = BASE
        while s <= min(self.window, len(buf) - 1):
            part = w[..., s - 1:min(2 * s - 1, self.window)]  # w_s .. w_{2s-1}
            # (s + 1,), or (s + 1, K) for K weight rows
            spectrum = np.moveaxis(np.fft.rfft(part, n=2 * s), -1, 0)
            self._tiles.append((s, spectrum))
            s *= 2
        top = self._tiles[-1][0] if self._tiles else 0
        # outputs a tile of the largest size can still owe: end .. end+2s-2
        self._reach = 2 * top - 1
        # with no tile, buf's rows ahead of ``end`` stay zero: nothing to add
        self._far = None if pending is buf and not top else pending

    def __call__(self, end):
        near = self._near
        if end >= near:
            np.dot(self._rev, self._rows[end - near:end], out=self._flat)
        else:
            np.dot(self._rev[..., near - end:], self._rows[:end],
                   out=self._flat)
        far = self._far
        if far is not None:
            if end % BASE == 0 and self._tiles:
                self._run_tiles(end)
            self.sum += far[end]
        return self.sum

    def _run_tiles(self, end):
        # the buffer's and the far rows' columns, one per flattened entry
        buf, far = self._buf, self._far
        rows = np.reshape(buf, (len(buf), -1), copy=False)
        # (len, columns), or (len, K, columns) for K weight rows
        far = np.reshape(far, far.shape[:1 + far.ndim - buf.ndim] + (-1,),
                         copy=False)
        for s, spectrum in self._tiles:
            if end % s:
                break
            stop = min(end + 2 * s - 1, len(far))
            # one column's transform pair, reused by every column
            spec = np.empty(s + 1, dtype=complex)
            if spectrum.ndim == 1:
                lhs = prod = spec
            else:
                # one input spectrum against each of the K weight spectra
                lhs, prod = spec[:, None], np.empty(spectrum.shape,
                                                    dtype=complex)
            out = np.empty((2 * s,) + spectrum.shape[1:])
            for col in range(rows.shape[1]):
                np.fft.rfft(rows[end - s:end, col], n=2 * s, out=spec)
                np.multiply(lhs, spectrum, out=prod)
                np.fft.irfft(prod, n=2 * s, axis=0, out=out)
                far[end:stop, ..., col] += out[:stop - end]

    def rescale(self, end, matrix):
        """Right-multiply by ``matrix`` every row a later call reads: the
        stored rows back to lag ``window`` and the far rows the tiles have
        started (for a kernel with ``buf`` as its ``pending``)."""
        rows = self._buf[max(0, end - self.window):end + 1]
        rows[...] = rows @ matrix
        if self._tiles:
            rows = self._far[end + 1:end + self._reach]
            rows[...] = rows @ matrix


def gl_history(alpha: float, window: int, buf) -> HistoryKernel:
    """GL kernel on ``buf``, its own ``pending``, with lag weights
    c_1 .. c_window."""
    return HistoryKernel(gl_weights(alpha, window + 1)[1:], buf, buf)


def _check_rows(x, first, t):
    """Raise ``DivergenceError`` at the first row of ``x`` (the states of
    steps ``first``, ``first`` + 1, ...) with not max|x| <= DIVERGE_BOUND."""
    # NaN compares False, so NaN and +-inf fail the one test as well
    ok = np.abs(x).max(axis=1) <= DIVERGE_BOUND
    if not ok.all():
        step = first + int(np.argmin(ok))
        raise DivergenceError(
            f"state left the trust region at step {step} "
            f"(t = {t[step]:.6g})", step=step, t=t[step])


def _check_dims(system, config):
    if config.x0.shape[0] != system.dim:
        raise ConfigError(
            f"x0 has dim {config.x0.shape[0]}, "
            f"system {system.name!r} has {system.dim}")
    n_steps = config.n_steps
    if n_steps < 1:
        raise ConfigError("t_end - t0 must cover at least one step")
    return n_steps


def _field_value(system, t, x):
    """``system.field(t, x)`` as floats; ``ConfigError`` unless it has
    shape (dim,), which the steppers would otherwise broadcast."""
    value = np.asarray(system.field(t, x), dtype=float)
    if value.shape != (system.dim,):
        raise ConfigError(
            f"field of system {system.name!r} returned shape {value.shape}; "
            f"expected ({system.dim},)")
    return value


def _step_arrays(config, n_steps, *shapes):
    """The time grid and one zero array of shape (n_steps + 1,) + s per
    ``s`` in ``shapes``; a refused allocation raises ``ConfigError`` naming
    the step count."""
    try:
        t = config.t0 + config.h * np.arange(n_steps + 1)
        return (t,) + tuple(np.zeros((n_steps + 1,) + s) for s in shapes)
    except (MemoryError, ValueError):
        raise ConfigError(
            f"{n_steps:.6g} steps need arrays larger than can be allocated; "
            "raise h or shorten t_end - t0") from None


def solve_gl(system: SystemSpec, config: SolverConfig) -> Trajectory:
    """Integrate D^alpha x = f(t, x) with the explicit GL scheme.

    Update, in deviations d_j = x_j - x0 (the shift realizes the Caputo
    initial condition):

        d_m = h^alpha * f(t_{m-1}, x_{m-1}) - sum_{k=1}^{min(m-1,L)} c_k d_{m-k}

    With ``memory_window`` L the tail of the convolution is dropped
    (short-memory principle), for the oracle's error study only; None
    keeps the exact full-memory sum.
    """
    n_steps = _check_dims(system, config)
    x0 = config.x0
    h, alpha = config.h, config.alpha
    window = n_steps if config.memory_window is None else min(
        config.memory_window, n_steps)
    ha = h ** alpha
    t, dev = _step_arrays(config, n_steps, (system.dim,))
    # f(t_0, x_0), whose shape is checked here rather than broadcast
    fx = _field_value(system, t[0], x0)
    # at alpha = 1 only c_1 = -1 survives: the classical Euler step
    hist = gl_history(alpha, window, dev)
    f = system.field
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, n_steps + 1, BASE):
            stop = min(first + BASE, n_steps + 1)
            try:
                for m in range(first, stop):
                    d = dev[m]
                    if m > 1:
                        fx = np.asarray(f(t[m - 1], x_prev), dtype=float)
                    # d_0 = 0, so lag m contributes nothing
                    np.subtract(ha * fx, hist(m), out=d)
                    x_prev = x0 + d
            except Exception:
                # a diverged state written before the failure explains it
                _check_rows(dev[first:m] + x0, first, t)
                raise
            _check_rows(dev[first:stop] + x0, first, t)
    dev += x0
    return Trajectory(t=t, x=dev, alpha=alpha, h=h,
                      system_name=system.name, scheme="gl")


def solve_abm(system: SystemSpec, config: SolverConfig) -> Trajectory:
    """Integrate D^alpha x = f(t, x) with the Adams predictor-corrector.

    One PECE step (Diethelm, Ford & Freed, Nonlinear Dyn. 29, 2002) on the
    Volterra form x(t) = x0 + I^alpha f: fractional product-rectangle
    predictor, one product-trapezoid corrector evaluation.  ``memory_window``
    truncates both sums by lag, for the oracle's error study only.

    Both sums come from one two-row ``HistoryKernel`` call per step over
    f_1 .. f_{m-1} (row 0 of its buffer stays zero):

        pred_m = x0 + cp * (b_{m-1} f_0 + sum_k b_{k-1} f_{m-k})
        base_m = x0 + cc * (w0(m) f_0 + sum_k a_k f_{m-k})

    with w0(m) = (m-1)^{a+1} - (m-1-a) m^a, f_0's boundary weight in place
    of a_m.  x0 and the f_0 terms are the kernel's ``pending`` rows, zero
    f_0 terms past the window.  The corrector is then
    x_m = base_m + cc * f(t_m, pred_m).
    """
    n_steps = _check_dims(system, config)
    x0 = config.x0
    h, alpha = config.h, config.alpha
    window = n_steps if config.memory_window is None else min(
        config.memory_window, n_steps)
    # zero rows pass the divergence check until they are written
    t, x, fx, pending = _step_arrays(config, n_steps, (system.dim,),
                                     (system.dim,), (2, system.dim))

    r = np.arange(window + 2, dtype=float)
    pw, pw1 = r ** alpha, r ** (alpha + 1.0)
    cp = h ** alpha / gamma(alpha + 1.0)      # predictor scale
    cc = h ** alpha / gamma(alpha + 2.0)      # corrector scale
    # cp * b_r, b_r = (r+1)^a - r^a for r >= 0, and cc * a_r for r >= 1
    weights = np.stack((cp * (pw[1:-1] - pw[:-2]),
                        cc * (pw1[2:] - 2.0 * pw1[1:-1] + pw1[:-2])))
    del r, pw, pw1

    x[0] = x0
    f = system.field
    f0 = _field_value(system, t[0], x0)
    # cc * w0(m) from Python floats: w0 cancels two O(m^{a+1}) terms, which
    # a vectorized numpy power leaves less exact
    w0 = np.fromiter((cc * ((m - 1.0) ** (alpha + 1.0)
                            - (m - 1.0 - alpha) * m ** alpha)
                      for m in range(1, window + 1)), float, window)
    # x0 + f_0 * (cp b_{m-1}, cc w0(m)), built in place
    np.multiply(weights[0][:, None], f0, out=pending[1:window + 1, 0])
    np.multiply(w0[:, None], f0, out=pending[1:window + 1, 1])
    pending += x0
    hist = HistoryKernel(weights, fx, pending)
    # views of hist.sum, which every call refills
    pred, base = hist.sum
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, n_steps + 1, BASE):
            stop = min(first + BASE, n_steps + 1)
            try:
                for m in range(first, stop):
                    hist(m)
                    x[m] = cur = base + cc * np.asarray(f(t[m], pred),
                                                        dtype=float)
                    fx[m] = f(t[m], cur)
            except Exception:
                # a diverged state written before the failure explains it
                _check_rows(x[first:m + 1], first, t)
                raise
            _check_rows(x[first:stop], first, t)
    return Trajectory(t=t, x=x, alpha=alpha, h=h, system_name=system.name,
                      scheme="abm")


def solve(system: SystemSpec, config: SolverConfig) -> Trajectory:
    """Integrate with the scheme named in ``config.scheme``."""
    if config.scheme == "abm":
        return solve_abm(system, config)
    return solve_gl(system, config)


@dataclass(frozen=True)
class MultiTermSpec:
    """Scalar equation with several Caputo derivative orders:

        sum_j coeffs[j] * D^{orders[j]} x  =  rhs(t, x)

    All orders lie in (0, 1]; the leading (largest-order) coefficient must
    be nonzero.  ``x0`` is the initial value of x.
    """

    orders: tuple
    coeffs: tuple
    rhs: Callable[[float, float], float]
    x0: float = 0.0
    name: str = "multi_term"
    # d(rhs)/dx, needed only when the chain should expose a Jacobian; it
    # must broadcast over arrays of t and x, as the chain's Jacobian does
    rhs_dx: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if len(self.orders) != len(self.coeffs) or not self.orders:
            raise ConfigError("orders and coeffs must be equal-length, non-empty")
        if any(not (0.0 < o <= 1.0) for o in self.orders):
            raise ConfigError(f"orders must lie in (0, 1], got {self.orders}")
        if self.coeffs[int(np.argmax(self.orders))] == 0.0:
            raise ConfigError("the leading-order coefficient must be nonzero")


# how far an order may sit from its rational form and from a multiple of q
_ORDER_TOL = 1e-9


def commensurate_order(orders) -> float:
    """Largest base order q such that every order is an integer multiple.

    Orders are rationalized with denominators up to 1000; raises
    ``IncommensurableOrdersError`` when no common base exists within
    ``_ORDER_TOL``.
    """
    fracs = []
    for o in orders:
        fr = Fraction(o).limit_denominator(1000)
        if abs(float(fr) - o) > _ORDER_TOL:
            raise IncommensurableOrdersError(
                f"order {o} is not a ratio of small integers")
        fracs.append(fr)
    base = fracs[0]
    for fr in fracs[1:]:
        # gcd of fractions: gcd of numerators / lcm of denominators
        base = Fraction(gcd(base.numerator * fr.denominator,
                            fr.numerator * base.denominator),
                        base.denominator * fr.denominator)
    q = float(base)
    for o in orders:
        if abs(round(o / q) - o / q) > _ORDER_TOL / q:
            raise IncommensurableOrdersError(
                f"order {o} is not an integer multiple of base {q}")
    return q


def multi_term_to_system(spec: MultiTermSpec):
    """Rewrite a multi-term scalar equation as a commensurate chain.

    With base order q = commensurate_order(orders) and n = max(orders)/q,
    the chain variables are y_i = D^{i*q} x, i = 0..n-1, obeying

        D^q y_i     = y_{i+1}                      (i < n-1)
        D^q y_{n-1} = (rhs(t, y_0) - sum_{j<lead} coeffs[j] y_{r_j}) / lead

    where r_j = orders[j]/q.  Returns (SystemSpec, x0_chain); the chain's
    initial state is (x0, 0, ..., 0) and its ``observables`` mark y_0 (the
    original unknown) and y_{n-1} (its highest sub-derivative).
    """
    q = commensurate_order(spec.orders)
    idx = [int(round(o / q)) for o in spec.orders]
    n = max(idx)
    lead_pos = int(np.argmax(spec.orders))
    lead = float(spec.coeffs[lead_pos])
    lower = [(i, float(cf)) for i, cf in enumerate(spec.coeffs)
             if i != lead_pos and cf != 0.0]
    # only strictly lower orders can move to the right-hand side
    for i, _ in lower:
        if idx[i] >= n:
            raise ConfigError("duplicate leading order in multi-term spec")
    lower_rows = np.array([idx[i] for i, _ in lower], dtype=int) \
        if lower else np.empty(0, dtype=int)
    lower_coeff = np.array([cf for _, cf in lower])
    rhs = spec.rhs
    # y[shift] is y moved up one row; its last entry is overwritten
    shift = np.minimum(np.arange(1, n + 1), n - 1)
    dot_lower = lower_coeff.dot

    def chain_field(t, y):
        dy = y[shift]
        acc = rhs(t, y[0])
        if lower_rows.size:
            acc = acc - dot_lower(y[lower_rows])
        dy[-1] = acc / lead
        return dy

    chain_jacobian = None
    if spec.rhs_dx is not None:
        rhs_dx = spec.rhs_dx
        base_jac = np.zeros((n, n))
        for i in range(n - 1):
            base_jac[i, i + 1] = 1.0
        for row, cf in zip(lower_rows, lower_coeff):
            base_jac[n - 1, row] = -cf / lead

        def chain_jacobian(t, y):
            jac = np.broadcast_to(base_jac, y.shape[:-1] + (n, n)).copy()
            jac[..., n - 1, 0] += rhs_dx(t, y[..., 0]) / lead
            return jac

    system = SystemSpec(
        name=f"{spec.name}_chain",
        dim=n,
        field=chain_field,
        jacobian=chain_jacobian,
        params={"base_order": q},
        observables=(0, n - 1) if n >= 2 else (0,),
    )
    x0_chain = np.zeros(n)
    x0_chain[0] = spec.x0
    return system, x0_chain


# ---------------------------------------------------------------------------
# trajectory serialization

@contextmanager
def atomic_open(path: str):
    """Open a UTF-8 text temp file beside ``path`` for writing.

    A clean exit from the ``with`` block moves it onto ``path`` with
    ``os.replace``; an exception deletes it and leaves ``path`` as it was.
    A temp file that cannot be made raises ``OSError`` naming ``path``.
    """
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``atomic_open``."""
    with atomic_open(path) as fh:
        fh.write(text)


# data rows formatted per string operation and write of the CSV writer
CSV_ROWS = 4096


def _csv_chunks(t, x):
    """The data rows of a trajectory CSV as text, ``CSV_ROWS`` at a time.

    Each chunk is one ``%`` over its rows: t and the state as ``%.17g``,
    comma-separated, one row per line.
    """
    line = ",".join(["%.17g"] * (1 + x.shape[1])) + "\n"
    for start in range(0, len(t), CSV_ROWS):
        rows = np.column_stack((t[start:start + CSV_ROWS],
                                x[start:start + CSV_ROWS]))
        yield (line * len(rows)) % tuple(rows.ravel().tolist())


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory as CSV, losslessly (%.17g) and atomically.

    Metadata rides in '#'-prefixed header lines so a written file can be
    read back into an identical Trajectory.  The rows are formatted and
    written ``CSV_ROWS`` at a time.
    """
    dim = traj.x.shape[1]
    with atomic_open(path) as fh:
        fh.write(f"# system={traj.system_name}\n")
        fh.write(f"# scheme={traj.scheme}\n")
        fh.write(f"# alpha={traj.alpha!r}\n")
        fh.write(f"# h={traj.h!r}\n")
        fh.write("t," + ",".join(f"x{i}" for i in range(dim)) + "\n")
        for text in _csv_chunks(traj.t, traj.x):
            fh.write(text)


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory written by ``write_trajectory_csv``."""
    meta = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("#"):
                    break
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            has_rows = any(line.strip() for line in fh)
        alpha, h = float(meta["alpha"]), float(meta["h"])
        if not has_rows:
            raise ConfigError(f"{path!r} has no data rows")
        data = np.loadtxt(path, delimiter=",", skiprows=len(meta) + 1,
                          ndmin=2, encoding="utf-8")
    except UnicodeDecodeError as err:
        # a ValueError, so caught first wherever the bad byte lies
        raise ConfigError(
            f"{path!r} is not UTF-8 text ({err.reason})") from None
    except (KeyError, ValueError) as err:
        raise ConfigError(f"{path!r} is not a trajectory CSV with "
                          f"'# alpha=' and '# h=' lines ({err!r})") from None
    return Trajectory(
        t=data[:, 0],
        x=data[:, 1:],
        alpha=alpha,
        h=h,
        system_name=meta.get("system", ""),
        scheme=meta.get("scheme", ""),
    )
