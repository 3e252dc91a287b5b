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
alpha = 1.

Per-step cost is one call of the shared history kernel ``HistoryKernel``,
which makes one BLAS dot over lags 0 .. n (for ABM, one call with two
weight rows: the predictor and corrector sums).  Around its field call a
GL step makes three small array operations besides: it adds the field
value into the row being written, copies the kernel's sum into that row
and adds x0 for the next field call (3.1-3.4 us a step on Lorenz at
N = 10^5 on a 2-core host, most of it Python call overhead).  At full
memory (no ``memory_window``; in ``chaos``, the exact-flow tangent
history and restart blocks of ``BASE`` steps or more) the dot spans lags
0 .. ``BASE`` - 1, and the longer lags are Q decaying exponentials
(``gl_soe``, ``abm_soe``; Q of about 130-210) updated once per ``BASE``
rows by one matmul, which adds their far sums into the kernel's
``pending`` rows: O(N * Q * dim) flops over N steps.  A windowed run sums its window by the direct dot,
O(N * window * dim).

Memory: the GL stepper's deviation array is its kernel's ``pending``, so
the far part adds its sums, divided by the lag-0 weight h^alpha, into its
rows ahead of the step.  The step adds f into row m, and the kernel's dot
reads that row at lag 0 times h^alpha: h^alpha f and the far sums come
with the near lags out of one dot, which the step copies back into the
row.  The result is that array shifted by x0 in place.  A full-memory GL
solve over N steps then holds the (N + 1, dim) trajectory, its time grid,
the first 2 ``BASE`` weights and the far part's (BASE + Q)^2 block matrix
(at most 0.6 MB) and Q states: at N = 10^5 in 3-d, a traced peak of
3.7 MB for a 2.4 MB trajectory.  ABM keeps separate
(N + 1, 2, dim) pending rows for x0, f_0's terms and the far sums, and
adds row m to ``hist.sum`` itself after each call.

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
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from math import ceil, exp, expm1, gamma, isfinite, log, pi, sin
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DivergenceError


@dataclass(frozen=True)
class SystemSpec:
    """A first-order (in D^alpha) autonomous-or-forced vector field.

    ``field(t, x)`` is called on one state: x of shape (dim,), t a float,
    returning the (dim,) derivative.  It must not write into x, which may
    be a view of a stepper's buffer.  ``jacobian(t, x)`` serves batches: x
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
    # coordinates carrying the physical state when the system is the
    # commensurate chain of a scalar multi-order equation, as Duffing's
    # in ``systems`` is (None: all of them)
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
    k = np.arange(1, count, dtype=float)
    np.cumprod(1.0 - (alpha + 1.0) / k, out=c[1:])
    return c


# Lags below BASE are summed by a direct dot; at full memory, longer ones by
# decaying exponentials updated once per BASE rows.
BASE = 64
# node spacing in log s of the SOE trapezoid rules
SOE_STEP = 0.25
# the steppers' trust region: a state with max|x| past it has diverged
DIVERGE_BOUND = 1e10


def _log_nodes(lo):
    """Nodes x = log s, ``SOE_STEP`` apart, from ``lo`` to log(40 / BASE)."""
    count = ceil((log(40.0 / BASE) - lo) / SOE_STEP) + 1
    return lo + SOE_STEP * np.arange(count)


def gl_soe(alpha: float, n: int):
    """Amplitudes a_q and rates s_q, q = 1 .. Q, with the GL weights
    c_k ~= sum_q a_q exp(-s_q (k - BASE)) for BASE <= k <= n.

    For 0 < alpha < 1 and k >= 1 the weights have the Laplace form

        c_k = -(sin(pi alpha) / pi) * int_0^inf exp(-s k) (e^s - 1)^alpha ds,

    and the trapezoid rule in x = log s (``_log_nodes``) from
    log(1/n) - 40/(1 + alpha) sums it to about 1e-14 relative at every
    such lag (Q = 126-191 at n = 10^5).  The truncated ends cost e^-40
    relative: exp(-s k) at the top node for k >= BASE, and
    (s k)^(1 + alpha) below the bottom node for k <= n.  log(e^s - 1) is
    log(expm1(s)), finite at the smallest nodes; sin(pi alpha) is taken at
    min(alpha, 1 - alpha), exact near alpha = 1.
    """
    x = _log_nodes(log(1.0 / n) - 40.0 / (1.0 + alpha))
    rates = np.exp(x)
    scale = sin(pi * min(alpha, 1.0 - alpha)) / pi * SOE_STEP
    amps = -scale * np.exp(x + alpha * np.log(np.expm1(rates))
                           - BASE * rates)
    return amps, rates


def abm_soe(alpha: float, n: int):
    """Amplitudes (2, Q) and rates s_q with ABM's unscaled weights
    b_{k-1} = k^alpha - (k-1)^alpha (row 0) and a_k (row 1; see
    ``solve_abm``) ~= sum_q a_q exp(-s_q (k - BASE)) for BASE <= k <= n.

    With S = sin(pi alpha) / pi, b_{k-1} = S Gamma(alpha + 1) int_0^inf
    s^(-alpha-1) (e^s - 1) e^(-s k) ds and a_k = S Gamma(alpha + 2)
    int_0^inf s^(-alpha-2) (e^s - 1) (1 - e^-s) e^(-s k) ds.  The trapezoid
    rule in x = log s (``_log_nodes``) from x_0 = log(1e-17 / n) sums both
    to about 1e-15 relative at every such lag (Q = 188-212 for n = 10^3 ..
    10^6).  Below x_0, e^(-s k) is 1 to 1e-17 and both integrands in x are
    e^((1 - alpha) x), so the nodes there sum, a geometric series, to one
    rate-0 node: at alpha = 1, where S = 0, it carries the weights 1 and 2
    exactly.
    """
    eps = 1.0 - alpha
    x = _log_nodes(log(1e-17 / n))
    rates = np.exp(x)
    sine = sin(pi * min(alpha, eps)) / pi
    # S SOE_STEP sum_{j >= 1} e^(eps (x_0 - j SOE_STEP)), 1 at eps = 0
    lump = exp(eps * x[0]) * (sine * SOE_STEP / expm1(eps * SOE_STEP)
                              if eps else 1.0)
    pred = np.log(np.expm1(rates)) - alpha * x - BASE * rates
    nodes = sine * SOE_STEP * np.exp(
        [pred, pred - x + np.log(-np.expm1(-rates))])
    amps = np.column_stack(([lump, lump], nodes))
    amps *= [[gamma(alpha + 1.0)], [gamma(alpha + 2.0)]]
    return amps, np.concatenate(([0.0], rates))


class HistoryKernel:
    """Streaming history convolution for the GL, ABM and tangent steppers.

    Bound to the history buffer ``buf`` (one state per row: a vector for
    GL and ABM, a (dim, m) block for the exact-flow tangent frame, a
    (n_blocks, dim, dim) batch of transfer-matrix deviations for the
    restart convention, so one call sums every block's history) and called
    once per step with ``end`` = 1, 2, ... <= len(buf) - 1, ``hist(end)``
    writes sum_k w_k * buf[end - k] over the lags k = 0 .. end into its
    own C-contiguous array ``hist.sum`` and returns it, with
    ``weights[k]`` = w_k.  Rows below ``end`` must be final: the caller
    finishes row ``end`` after the call and changes earlier rows only
    through ``rescale``.  A restart at ``end`` = 1 takes a fresh kernel.

    ``weights`` of shape (K, n) holds K weight rows over the same buffer:
    ``sum`` then has shape (K,) + a row's shape, and its entry j is the
    sum with the weights ``weights[j]``, all K from one pass over ``buf``
    (ABM's predictor and corrector).  ``pending``, of shape (len(buf),) +
    ``sum``'s shape, is where the far part adds its sums; the kernel never
    adds it to ``sum``.  The GL steppers pass ``buf`` itself, and the far
    part then adds its sums divided by w_0 (h^alpha): the caller adds its
    forcing into row ``end`` before the call, which reads that row at lag
    0, so one dot gives w_0 times the forcing, the far sums and the near
    lags.  ABM passes separate rows, which also carry its x0 and f_0
    terms, with w_0 = 0, and adds ``pending[end]`` after the call.  ``buf``
    and ``pending`` must be C-contiguous: the kernel reads them through
    flat views, one column per entry of a row, made once.

    Without ``soe`` the sum is one BLAS dot of the reversed weights
    against ``buf[end + 1 - n:end + 1]``, n = min(end + 1, a weight row's
    length): the lags past that length have weight 0.

    ``soe`` = (a, s) holds amplitudes a, (K, Q) or (Q,), on one rate grid
    s, with w_k ~= sum_q a_q exp(-s_q (k - BASE)) for ``BASE`` <= k <= the
    window, the longest lag the run reaches (what ``gl_history`` and
    ``abm_history`` pass at full memory).  ``weights`` then holds w_0 ..
    w_{2 BASE - 1}, the only ones read.  Lags below ``BASE`` are the
    direct dot; longer ones are the far part, Q decaying states
    y_q = sum_{j < E} exp(-s_q (E - 1 - j)) buf[j], E the last multiple of
    ``BASE`` reached, shared by the K rows.  At ``end`` = E, before the
    dot, one matmul of a fixed (K BASE + Q, Q + BASE) matrix against the
    states and the block ``buf[E - BASE:E]`` gives each row's far sums of
    outputs E .. E + BASE - 1 (by the exact weights for the block's own
    lags), added into those rows of ``pending``, and the folded states:
    O((K BASE + Q) (BASE + Q) C) flops per ``BASE`` rows of C entries.
    ``rescale`` touches the last ``BASE`` rows, the block's far rows and
    the states, O((BASE + Q) C) per call.  So once row E, a multiple of
    ``BASE``, is written, no later call or ``rescale`` reads a row below
    E - ``BASE``: the caller may slide rows E - ``BASE`` .. E + ``BASE`` -
    1 to the front of the buffer, zero the rest and go on at ``end`` =
    ``BASE`` + 1, and the window, not the buffer, bounds the run
    (``chaos``'s exact flow does this).
    """

    __slots__ = ("sum", "_buf", "_far", "_rows", "_cols", "_flat", "_near",
                 "_rev", "_block", "_z", "_states")

    def __init__(self, weights, buf, pending, soe=None):
        w = np.asarray(weights, dtype=float)
        wk = np.atleast_2d(w)                       # (K, n)
        self._near = w.shape[-1] if soe is None else BASE
        self.sum = np.empty(w.shape[:-1] + buf.shape[1:])
        self._buf, self._far = buf, pending
        # (len, C) and (len, K, C): a row's entries as C columns
        self._rows = np.reshape(buf, (len(buf), -1), copy=False)
        self._cols = np.reshape(pending, (len(buf), len(wk), -1),
                                copy=False)
        self._flat = np.reshape(self.sum, w.shape[:-1] + (-1,), copy=False)
        self._rev = np.ascontiguousarray(w[..., :self._near][..., ::-1])
        self._states = None
        if soe is not None:
            self._build_soe(wk, *soe)

    def _build_soe(self, wk, amps, rates):
        """The far part's block matrix and its work rows: the Q states,
        then a copy of the block being folded in."""
        k, q, lag = len(wk), len(rates), np.arange(BASE)
        exact = wk[:, BASE:2 * BASE]                # w_BASE .. w_{2 BASE - 1}
        # rows: far sums of outputs E + i of each weight row, then the
        # folded states; columns: the states, then block rows E - BASE + r
        block = np.zeros((k * BASE + q, q + BASE))
        far = block[:k * BASE].reshape(k, BASE, q + BASE)
        far[..., :q] = np.atleast_2d(amps)[:, None] * np.exp(
            -np.outer(lag + 1, rates))
        far[..., q:] = np.tril(exact[:, lag[:, None] - lag])   # BASE+i-r
        block[k * BASE:, :q] = np.diag(np.exp(-BASE * rates))
        block[k * BASE:, q:] = np.exp(-np.outer(rates, BASE - 1 - lag))
        if self._far is self._buf:
            # the dot reads a far row at lag 0, times w_0
            far /= wk[0, 0]
        self._block = block
        self._z = np.zeros((q + BASE, self._rows.shape[1]))
        self._states = np.reshape(self._z[:q], (q,) + self._buf.shape[1:],
                                  copy=False)

    def __call__(self, end):
        # the far part adds into row ``end``, which the dot reads at lag 0
        if end % BASE == 0 and self._states is not None:
            self._run_soe(end)
        near, stop = self._near, end + 1
        if stop >= near:
            np.dot(self._rev, self._rows[stop - near:stop], out=self._flat)
        else:
            np.dot(self._rev[..., near - stop:], self._rows[:stop],
                   out=self._flat)
        return self.sum

    def _run_soe(self, end):
        z, q = self._z, len(self._states)
        z[q:] = self._rows[end - BASE:end]
        out = self._block @ z
        stop = min(end + BASE, len(self._cols))
        for j in range(self._cols.shape[1]):    # one scatter per weight row
            self._cols[end:stop, j] += out[j * BASE:j * BASE + stop - end]
        z[:q] = out[-q:]

    def rescale(self, end, matrix):
        """Right-multiply by ``matrix`` every row a later call reads: the
        stored rows back to the oldest one a later dot or fold still reads
        and, with ``soe``, the far rows the far part has started and the
        states."""
        parts = [self._buf[max(0, end + 1 - self._near):end + 1]]
        if self._states is not None:
            parts += [self._far[end + 1:end - end % BASE + BASE],
                      self._states]
        for rows in parts:
            rows[...] = rows @ matrix


def gl_history(alpha: float, h: float, window: int, buf) -> HistoryKernel:
    """GL kernel on ``buf``, its own ``pending``, with the lag weights
    w_0 = h^alpha and w_k = -c_k, k = 1 .. window: one GL step.

    The caller adds its forcing (f, or a tangent flow's ``jac @ v``) into
    row m, which already holds its far sums over h^alpha, calls the kernel
    at m and copies ``hist.sum`` into that row: one dot gives h^alpha
    times the row plus the history, all lags at once.  At full memory,
    where the window reaches the buffer's first row (window >=
    len(buf) - 1, and >= ``BASE``) with alpha < 1, it sums the lags from
    ``BASE`` on as the decaying exponentials of ``gl_soe(alpha, window)``
    and builds w_0 .. w_{2 BASE - 1} only; otherwise by the direct dot.
    At alpha = 1, where c_k = 0 exactly for k >= 2, it builds w_0 and
    w_1 = 1 alone: the classical Euler step."""
    soe, lags = None, window if alpha < 1.0 else 1
    if alpha < 1.0 and BASE <= window >= len(buf) - 1:
        amps, rates = gl_soe(alpha, window)
        soe, lags = (-amps, rates), 2 * BASE - 1
    weights = -gl_weights(alpha, lags + 1)
    weights[0] = h ** alpha
    return HistoryKernel(weights, buf, buf, soe)


def abm_history(alpha: float, h: float, window: int, buf, pending,
                f0) -> HistoryKernel:
    """ABM kernel on ``buf`` = 0, f_1, f_2, ... with the weight rows
    cp b_{k-1} and cc a_k, k = 1 .. window, and w_0 = 0 for both (see
    ``solve_abm``); writes f_0 (cp b_{m-1}, cc w0(m)) into rows m = 1 ..
    window of ``pending``.  The caller adds x0 to every row of
    ``pending`` and row m to the kernel's sum after the call at m.  At
    full memory, window = len(buf) - 1 >= ``BASE``, it sums the lags from
    ``BASE`` on as the decaying exponentials of ``abm_soe``, which add
    into ``pending``, and builds lags 0 .. 2 ``BASE`` - 1 only; otherwise
    by the direct dot."""
    cp = h ** alpha / gamma(alpha + 1.0)
    cc = h ** alpha / gamma(alpha + 2.0)
    soe, lags = None, window
    if BASE <= window == len(buf) - 1:
        amps, rates = abm_soe(alpha, window)
        soe, lags = (amps * [[cp], [cc]], rates), 2 * BASE - 1
    near, first = _abm_weights(alpha, lags, window)
    np.multiply((first * [cp, cc])[..., None], f0, out=pending[1:window + 1])
    return HistoryKernel(near * [[cp], [cc]], buf, pending, soe)


def _abm_weights(alpha, lags, window):
    """ABM's unscaled weight rows b_{k-1} and a_k, k = 1 .. lags, after a
    weight 0 at lag 0, (2, lags + 1), and f_0's weights b_{m-1} and w0(m),
    m = 1 .. window, (window, 2); see ``solve_abm``.

    Each power difference is k^p times expm1 and log1p of -1/k, which keep
    the leading digits that k^p - (k - 1)^p and the like cancel: b and a
    to a few ulp.  w0(m), m >= 2, is the binomial series m^(alpha - 1)
    sum_i t_i u^i in u = 1/m <= 1/2, t_0 = alpha beta / 2, t_{i+1} = t_i
    (i + 1 - alpha) / (i + 3): its terms are all >= 0, each at most half
    the one before, so its first 56 give w0 to a few ulp (exactly 1 at
    alpha = 1).  k = 1, where log1p(-1/k) is -inf, is set apart.
    """
    beta = alpha + 1.0
    k = np.arange(2.0, max(lags, window) + 1.0)
    log_lo = np.log1p(-1.0 / k)
    b = np.concatenate(([1.0], -np.expm1(alpha * log_lo) * k ** alpha))
    m = k[:window - 1]
    i = np.arange(55.0)
    t = 0.5 * alpha * beta * np.cumprod(
        np.concatenate(([1.0], (i + 1.0 - alpha) / (i + 3.0))))
    w0 = np.concatenate(([alpha], m ** (alpha - 1.0)
                         * np.polynomial.polynomial.polyval(1.0 / m, t)))
    # a_k = k^beta ((1 + u)^beta + (1 - u)^beta - 2), u = 1/k, is
    # 2 k^beta (e^s cosh d - 1) with s = (beta / 2) log1p(-u^2) and
    # d = beta atanh(u)
    near = k[:lags - 1]
    s = 0.5 * beta * np.log1p(-1.0 / (near * near))
    d = beta * np.arctanh(1.0 / near)
    a = np.concatenate(([2.0 * expm1(alpha * log(2.0))], 2.0 * near ** beta
                        * (np.expm1(s) * np.cosh(d)
                           + 2.0 * np.sinh(0.5 * d) ** 2)))
    return (np.pad(np.stack((b[:lags], a)), ((0, 0), (1, 0))),
            np.column_stack((b[:window], w0)))


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
    """The step count and the memory window, at most the step count."""
    if config.x0.shape[0] != system.dim:
        raise ConfigError(
            f"x0 has dim {config.x0.shape[0]}, "
            f"system {system.name!r} has {system.dim}")
    n_steps = config.n_steps
    if n_steps < 1:
        raise ConfigError("t_end - t0 must cover at least one step")
    window = config.memory_window
    return n_steps, n_steps if window is None else min(window, n_steps)


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

    The deviations are the ``gl_history`` kernel's buffer, whose lag-0
    weight is h^alpha and whose lag-k weight is -c_k.  Before step m its
    row m holds the far sums over h^alpha, which the far part adds a block
    ahead.  Step m adds f(t_{m-1}, x_{m-1}) into that row, makes one kernel
    call, copies ``hist.sum`` back (d_m) and adds x0 for the next field
    call; the deviations become the trajectory by one shift in place.  A
    field value of the wrong shape in the first block raises
    ``ConfigError``.
    Deviations, not states, keep a constant solution exact: a zero field
    gives x0 in every bit, where a buffer of states would carry x0 through
    every lag's weight and round it.

    With ``memory_window`` L the tail of the convolution is dropped
    (short-memory principle), for the oracle's error study only; None
    keeps the exact full-memory sum.
    """
    n_steps, window = _check_dims(system, config)
    x0 = config.x0
    h, alpha = config.h, config.alpha
    t, dev = _step_arrays(config, n_steps, (system.dim,))
    hist = gl_history(alpha, h, window, dev)
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, n_steps + 1, BASE):
            stop = min(first + BASE, n_steps + 1)
            # the first block's field values have their shape checked
            # rather than broadcast
            f = system.field if first > 1 else partial(_field_value, system)
            try:
                # each row of the block with the time of its field value
                for m, t_prev, row in zip(range(first, stop),
                                          t[first - 1:stop - 1].tolist(),
                                          dev[first:stop]):
                    row += f(t_prev, x)
                    row[...] = hist(m)
                    x = x0 + row
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

    Both sums come from one call per step of ``abm_history``'s two-row
    kernel over f_1 .. f_{m-1} (row 0 of its buffer stays zero):

        pred_m = x0 + cp * (b_{m-1} f_0 + sum_k b_{k-1} f_{m-k})
        base_m = x0 + cc * (w0(m) f_0 + sum_k a_k f_{m-k})

    with cp = h^a / Gamma(a + 1), cc = h^a / Gamma(a + 2),
    b_r = (r+1)^a - r^a, a_k = (k+1)^{a+1} - 2 k^{a+1} + (k-1)^{a+1} and
    f_0's boundary weight w0(m) = (m-1)^{a+1} - (m-1-a) m^a in place of
    a_m.  x0 and the f_0 terms are the kernel's ``pending`` rows, zero f_0
    terms past the window; the far part adds its sums there too, and the
    step adds row m to the kernel's sum after its call.  The corrector is
    then
    x_m = base_m + cc * f(t_m, pred_m).
    """
    n_steps, window = _check_dims(system, config)
    x0 = config.x0
    h, alpha = config.h, config.alpha
    # zero rows pass the divergence check until they are written
    t, x, fx, pending = _step_arrays(config, n_steps, (system.dim,),
                                     (system.dim,), (2, system.dim))
    cc = h ** alpha / gamma(alpha + 2.0)      # corrector scale
    x[0] = x0
    f = system.field
    hist = abm_history(alpha, h, window, fx, pending,
                       _field_value(system, t[0], x0))
    pending += x0
    # views of hist.sum, which every call refills
    total = hist.sum
    pred, base = total
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, n_steps + 1, BASE):
            stop = min(first + BASE, n_steps + 1)
            try:
                for m in range(first, stop):
                    hist(m)
                    total += pending[m]
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


# ---------------------------------------------------------------------------
# trajectory serialization

@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open a temp file beside ``path`` for writing: UTF-8 text with
    ``mode`` "w", bytes with "wb".

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
        with os.fdopen(fd, mode,
                       encoding=None if "b" in mode else "utf-8") as fh:
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


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory as CSV, losslessly (%.17g) and atomically.

    Metadata rides in '#'-prefixed header lines so a written file can be
    read back into an identical Trajectory.  The rows are t and the state,
    each value ``%.17g``, comma-separated, written by ``np.savetxt``.
    """
    dim = traj.x.shape[1]
    with atomic_open(path) as fh:
        fh.write(f"# system={traj.system_name}\n")
        fh.write(f"# scheme={traj.scheme}\n")
        fh.write(f"# alpha={traj.alpha!r}\n")
        fh.write(f"# h={traj.h!r}\n")
        fh.write("t," + ",".join(f"x{i}" for i in range(dim)) + "\n")
        np.savetxt(fh, np.column_stack((traj.t, traj.x)), fmt="%.17g",
                   delimiter=",")


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory written by ``write_trajectory_csv``.

    Its '#' lines must be followed by the ``t,x0,...`` column row, and
    every data row must hold one value per column."""
    meta, n_meta, columns = {}, 0, []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("#"):
                    columns = line.strip().split(",")
                    break
                n_meta += 1
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            has_rows = any(line.strip() for line in fh)
        alpha, h = float(meta["alpha"]), float(meta["h"])
        if columns != ["t"] + [f"x{i}" for i in range(len(columns) - 1)]:
            raise ConfigError(f"{path!r} has no 't,x0,...' column row "
                              "after its '#' lines")
        if not has_rows:
            raise ConfigError(f"{path!r} has no data rows")
        data = np.loadtxt(path, delimiter=",", skiprows=n_meta + 1,
                          ndmin=2, encoding="utf-8")
        if data.shape[1] != len(columns):
            raise ConfigError(
                f"{path!r} has {data.shape[1]} values per data row under "
                f"its {len(columns)} columns {','.join(columns)!r}")
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


# the members of a trajectory .npz, in the order they are written, with
# each one's number of dimensions and dtype character: float64 or text
_NPZ_MEMBERS = {"t": (1, "d"), "x": (2, "d"), "alpha": (0, "d"),
                "h": (0, "d"), "system": (0, "U"), "scheme": (0, "U")}


# what numpy's and zipfile's readers raise on a malformed .npz: a bad zip
# structure, CRC or member header, a cut-short member, a compression or
# encryption they cannot read, or a seek past the data
_NPZ_ERRORS = (ValueError, EOFError, OSError, RuntimeError, SyntaxError,
               zipfile.BadZipFile, zlib.error, tokenize.TokenError)


def _is_npz(path) -> bool:
    return os.fspath(path).lower().endswith(".npz")


def write_trajectory(traj: Trajectory, path: str) -> None:
    """Write a trajectory losslessly and atomically, in the format that
    ``path``'s suffix names.

    A ``.npz`` path gets NumPy's zip of ``.npy`` members t, x, alpha, h,
    system and scheme, the bit-exact binary form: the bytes ``np.savez``
    writes (stored members, zip64 forced) for C-ordered arrays, each
    member's data written from its own buffer, where ``np.savez`` copies
    it through ``tobytes``.  Any other path gets
    ``write_trajectory_csv``'s text.
    Either repeats byte for byte: zipfile stamps each member with the
    fixed date 1980-01-01.  ``read_trajectory`` reads both back into an
    identical Trajectory.
    """
    if not _is_npz(path):
        write_trajectory_csv(traj, path)
        return
    members = {"t": traj.t, "x": traj.x, "alpha": traj.alpha, "h": traj.h,
               "system": traj.system_name, "scheme": traj.scheme}
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(
            fh, "w", zipfile.ZIP_STORED, allowZip64=True) as npz:
        for name, value in members.items():
            arr = np.asanyarray(value, order="C")
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(arr))
                member.write(memoryview(arr).cast("B"))


def read_trajectory(path: str) -> Trajectory:
    """Read a trajectory written by ``write_trajectory``: a ``.npz`` path
    as NumPy's zip, without unpickling, any other as a trajectory CSV.

    A ``.npz`` that is not a zip of ``.npy`` arrays, lacks a member, holds
    a pickled (object) member, or whose ``x`` is not 2-d with one row per
    time raises ``ConfigError``."""
    if not _is_npz(path):
        return read_trajectory_csv(path)
    # opened here, since np.load leaves a file it opened open when the zip
    # is bad; an error opening it is an OSError, as for a CSV
    with open(path, "rb") as fh:
        try:
            npz = np.load(fh, allow_pickle=False)
            if isinstance(npz, np.ndarray):
                raise ConfigError(f"{path!r} holds one .npy array, not a "
                                  "zip of trajectory members")
            missing = [name for name in _NPZ_MEMBERS if name not in npz]
            if missing:
                raise ConfigError(f"{path!r} has no member(s) "
                                  + ", ".join(map(repr, missing)))
            data = {name: npz[name] for name in _NPZ_MEMBERS}
        except _NPZ_ERRORS as err:
            raise ConfigError(f"{path!r} is not a trajectory .npz "
                              f"({type(err).__name__}: {err})") from None
    for name, (ndim, char) in _NPZ_MEMBERS.items():
        value = data[name]
        if (not isinstance(value, np.ndarray) or value.ndim != ndim
                or value.dtype.char != char):
            raise ConfigError(
                f"{path!r} member {name!r} is not a {ndim}-d array of "
                + ("text" if char == "U" else "float64"))
    t, x = data["t"], data["x"]
    if len(x) != len(t):
        raise ConfigError(
            f"{path!r} has {len(x)} rows of x for {len(t)} times")
    if not len(t):
        raise ConfigError(f"{path!r} has no rows")
    return Trajectory(
        t=t,
        x=x,
        alpha=float(data["alpha"]),
        h=float(data["h"]),
        system_name=str(data["system"]),
        scheme=str(data["scheme"]),
    )
