"""Tests for the history-sum and predictor-corrector fractional solvers."""

import dataclasses
import io
import math
import os
import re
import time
import tracemalloc
import warnings
import zipfile
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracdyn import solvers
from fracdyn.errors import (
    ConfigError,
    DivergenceError,
    IncommensurableOrdersError,
)
from fracdyn.mlf import ml_one
from fracdyn.solvers import (
    BASE,
    HistoryKernel,
    SolverConfig,
    SystemSpec,
    Trajectory,
    abm_history,
    abm_soe,
    gl_history,
    gl_soe,
    gl_weights,
    read_trajectory,
    read_trajectory_csv,
    solve,
    solve_abm,
    solve_gl,
    write_trajectory,
    write_trajectory_csv,
)
from fracdyn.systems import BenchmarkId, commensurate_order, make_system

RELAX = SystemSpec(name="relax", dim=1, field=lambda t, x: -x)
ROTATE = SystemSpec(name="rotate", dim=2,
                    field=lambda t, x: np.array([x[1], -x[0]]))


def exact_gl_weights(alpha, n):
    """Same recurrence run in exact rational arithmetic on the float alpha."""
    a = Fraction(alpha)
    c = [Fraction(1)]
    for k in range(1, n):
        c.append(c[-1] * (1 - (a + 1) / k))
    return np.array([float(v) for v in c])


# -- weights -------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.995, 1.0])
def test_gl_weights_match_exact_recurrence(alpha):
    c = gl_weights(alpha, 60)
    assert_allclose(c, exact_gl_weights(alpha, 60), rtol=1e-13, atol=1e-300)


def test_gl_weights_match_signed_binomials():
    # independent route: c_k = (-1)^k * C(alpha, k) via mpmath
    alpha = 0.7
    c = gl_weights(alpha, 30)
    ref = [float((-1) ** k * mpmath.binomial(alpha, k)) for k in range(30)]
    assert_allclose(c, ref, rtol=1e-12)


def test_gl_weights_alpha_one_truncate():
    c = gl_weights(1.0, 10)
    assert c[0] == 1.0 and c[1] == -1.0
    assert np.all(c[2:] == 0.0)
    # one weight is c_0 alone, from the same recurrence over no lags
    for alpha in (0.5, 1.0):
        assert gl_weights(alpha, 1).tolist() == [1.0]


def test_gl_weights_validation():
    with pytest.raises(ConfigError):
        gl_weights(0.0, 5)
    with pytest.raises(ConfigError):
        gl_weights(1.2, 5)
    with pytest.raises(ConfigError):
        gl_weights(0.5, 0)


# -- history kernel ------------------------------------------------------


def naive_history(weights, buf, end, lags):
    """sum_{k=0}^{lags} w_k buf[end - k] as a plain double loop, with
    ``weights[k]`` = w_k; lags past the weights or before buf[0]
    contribute nothing."""
    acc = np.zeros(buf.shape[1:])
    for k in range(lags + 1):
        if k >= len(weights) or end - k < 0:
            continue
        for idx in np.ndindex(*buf.shape[1:]):
            acc[idx] += weights[k] * buf[end - k][idx]
    return acc


def stream(kernel, n):
    """Call ``kernel`` once per step with end = 1 .. n, as the solvers do,
    and copy each returned sum, which the next call overwrites."""
    return [kernel(end).copy() for end in range(1, n + 1)]


def zero_far(weights, buf):
    """Zero far rows for a kernel of ``weights`` over a buffer filled in
    advance, which cannot be its own ``pending``."""
    return np.zeros((len(buf),) + np.shape(weights)[:-1] + buf.shape[1:])


def rows_of(buf):
    """``buf`` with rows of rank two or more flattened to vectors."""
    return buf if buf.ndim <= 2 else buf.reshape(len(buf), -1)


def direct_dot(weights, buf, end):
    """The plain direct dot over lags 0 .. min(end, n - 1) of the weights'
    last axis (of length n), one sum per weight row."""
    n = min(end + 1, weights.shape[-1])
    rev = np.ascontiguousarray(weights[..., :n][..., ::-1])
    return (rev @ rows_of(buf)[end + 1 - n:end + 1]).reshape(
        weights.shape[:-1] + buf.shape[1:])


def rounding_scale(weights, buf, end):
    """sum_k |w_k| |buf[end - k]|, the scale of the sum's rounding error."""
    n = min(end + 1, len(weights))
    return (np.abs(weights[:n][::-1])
            @ np.abs(rows_of(buf)[end + 1 - n:end + 1])).reshape(buf.shape[1:])


@pytest.mark.parametrize("row_shape", [(), (3,)])
@pytest.mark.parametrize("window", [0, 1, 5, 15])
@pytest.mark.parametrize("trailing_zeros", [0, 3])
def test_history_sum_matches_naive_loop(row_shape, window, trailing_zeros):
    rng = np.random.default_rng(window * 10 + trailing_zeros)
    weights = np.concatenate([rng.normal(size=window),
                              np.zeros(trailing_zeros)])
    if window:
        weights[window - 1] = 0.5   # last nonzero weight: lag window - 1
    buf = rng.normal(size=(13,) + row_shape)
    hist = HistoryKernel(weights, buf, zero_far(weights, buf))
    for end, got in enumerate(stream(hist, 12), start=1):
        assert np.shape(got) == row_shape
        assert_allclose(got, naive_history(weights, buf, end, end),
                        rtol=1e-13, atol=1e-13)
        # below BASE the kernel is the direct dot over every weight it
        # is given, trailing zeros included, bit for bit
        assert np.array_equal(got, direct_dot(weights, buf, end))


@pytest.mark.parametrize("row_shape", [(), (3,), (3, 2)],
                         ids=["scalar", "state", "tangent"])
@pytest.mark.parametrize("n", [50, 777, 2100])
@pytest.mark.parametrize("window", [1, 63, 64, 65, 200, 1000])
def test_history_kernel_matches_naive_loop(window, n, row_shape):
    rng = np.random.default_rng(window + 7 * n + len(row_shape))
    weights = rng.normal(size=window + 1)       # lags 0 .. window
    buf = rng.normal(size=(n + 1,) + row_shape)
    got = stream(HistoryKernel(weights, buf, zero_far(weights, buf)), n)
    checked = {1, 2, n} | {e for e in (63, 64, 65, 127, 128, 129, 500, 1024,
                                       1025, 1100, 2048, 2049) if e <= n}
    for end, value in enumerate(got, start=1):
        # without ``soe`` the kernel is the direct dot, bit for bit
        ref = direct_dot(weights, buf, end)
        assert np.array_equal(value, ref)
        if end in checked:
            naive = naive_history(weights, buf, end, end)
            scale = rounding_scale(weights, buf, end)
            assert np.all(np.abs(value - naive) <= 1e-13 * scale)


@pytest.mark.parametrize("row_shape", [(), (3,), (3, 2)],
                         ids=["scalar", "state", "tangent"])
@pytest.mark.parametrize("n", [50, 777, 2100])
@pytest.mark.parametrize("window", [1, 63, 64, 65, 200, 1000])
@pytest.mark.parametrize("with_pending", [False, True],
                         ids=["bare", "pending"])
def test_history_kernel_weight_rows_match_naive_loop(window, n, row_shape,
                                                     with_pending):
    # two weight rows over one buffer, as ABM's predictor and corrector;
    # the second stops short, so the rows' supports differ.  Without a far
    # part the kernel neither reads nor writes ``pending``
    rng = np.random.default_rng(window + 7 * n + len(row_shape) + 1)
    weights = rng.normal(size=(2, window + 1))  # lags 0 .. window
    weights[1, (window + 1) // 2:] = 0.0
    buf = rng.normal(size=(n + 1,) + row_shape)
    pending = (rng.normal(size=(n + 1, 2) + row_shape) if with_pending
               else np.zeros((n + 1, 2) + row_shape))
    far = pending.copy()
    got = stream(HistoryKernel(weights, buf, far), n)
    assert np.array_equal(far, pending)
    checked = {1, 2, n} | {e for e in (63, 64, 65, 127, 128, 129, 500, 1024,
                                       1025, 1100, 2048, 2049) if e <= n}
    for end, value in enumerate(got, start=1):
        assert value.shape == (2,) + row_shape
        for j in range(2):
            scale = rounding_scale(weights[j], buf, end)
            ref = direct_dot(weights[j], buf, end)
            assert np.all(np.abs(value[j] - ref) <= 1e-13 * scale)
            if end in checked:
                naive = naive_history(weights[j], buf, end, end)
                assert np.all(np.abs(value[j] - naive) <= 1e-13 * scale)


@pytest.mark.parametrize("weights_shape", [(5,), (2, 5)],
                         ids=["one-row", "two-rows"])
def test_history_kernel_leaves_pending_without_a_far_part(weights_shape):
    # a kernel without ``soe`` has no far part, so its sum is the direct
    # dot over lags 0 .. n alone: a pending row is the caller's to add, as
    # ABM's stepper adds its own
    rng = np.random.default_rng(5)
    weights = rng.normal(size=weights_shape)
    buf = rng.normal(size=(40, 3))
    pending = rng.normal(size=(40,) + weights_shape[:-1] + (3,))
    far = pending.copy()
    got = stream(HistoryKernel(weights, buf, far), 39)
    assert np.array_equal(far, pending)
    for end, value in enumerate(got, start=1):
        for j, w in enumerate(np.atleast_2d(weights)):
            naive = naive_history(w, buf, end, end)
            assert np.all(np.abs(value.reshape(-1, 3)[j] - naive)
                          <= 1e-13 * rounding_scale(w, buf, end))


def test_history_kernel_pushes_through():
    # the tangent frame rescales its history by a triangular factor through
    # the kernel, which must rescale its pending far sums the same way
    rng = np.random.default_rng(3)
    dim, m, n, window = 3, 2, 1500, 300
    weights = rng.normal(size=window + 1)
    buf = rng.normal(size=(n + 1, dim, m))
    ref = buf.copy()    # the same history, rescaled in full by hand
    hist = HistoryKernel(weights, buf, zero_far(weights, buf))
    rinv = np.eye(m) + np.triu(rng.normal(size=(m, m)), 1)
    for end in range(1, n + 1):
        value = hist(end)
        assert value.shape == (dim, m)
        assert np.all(np.abs(value - direct_dot(weights, ref, end))
                      <= 1e-13 * rounding_scale(weights, ref, end))
        if end % 70 == 0:
            hist.rescale(end, rinv)
            ref[:end + 1] = ref[:end + 1] @ rinv


@pytest.mark.parametrize("row_shape", [(), (3,), (3, 2)],
                         ids=["scalar", "state", "tangent"])
@pytest.mark.parametrize("n", [50, 777, 2100])
@pytest.mark.parametrize("window", [1, 63, 64, 65, 200, 1000])
def test_history_kernel_with_buf_as_pending_matches_naive_loop(window, n,
                                                               row_shape):
    # the GL layout: the buffer is its own pending, whose rows from ``end``
    # on are zero until the caller writes row ``end`` after the call, and
    # w_0 = 1 reads that zero row at lag 0
    rng = np.random.default_rng(window + 7 * n + len(row_shape) + 2)
    weights = np.concatenate(([1.0], rng.normal(size=window)))
    values = rng.normal(size=(n + 1,) + row_shape)
    buf = np.zeros_like(values)
    buf[0] = values[0]
    hist = HistoryKernel(weights, buf, buf)
    checked = {1, 2, n} | {e for e in (63, 64, 65, 127, 128, 129, 500, 1024,
                                       1025, 1100, 2048, 2049) if e <= n}
    for end in range(1, n + 1):
        value = hist(end)
        # without ``soe`` the kernel is the direct dot, bit for bit
        assert np.array_equal(value, direct_dot(weights, buf, end))
        if end in checked:
            naive = naive_history(weights, buf, end, end)
            scale = rounding_scale(weights, buf, end)
            assert np.all(np.abs(value - naive) <= 1e-13 * scale)
        buf[end] = values[end]


@pytest.mark.parametrize("window", [300, 1500], ids=["windowed", "full"])
def test_history_kernel_with_buf_as_pending_pushes_through(window):
    # the exact-flow layout, w_0 = 1: a push-through rescales the stored
    # rows the direct dot still reads, as rescaling the whole history by
    # hand would
    rng = np.random.default_rng(13)
    dim, m, n = 3, 2, 1500
    weights = rng.normal(size=window + 1)
    weights *= 0.5 / np.abs(weights).sum()    # a stable recursion
    weights[0] = 1.0
    drive = rng.normal(size=(n + 1, dim, m))
    own = np.zeros_like(drive)
    ref = np.zeros_like(drive)  # the same history, rescaled in full by hand
    hist = HistoryKernel(weights, own, own)
    rinv = np.eye(m) + np.triu(rng.normal(size=(m, m)), 1)
    checked = {1, 2, 63, 64, 65, 500, 1024, 1025, n}
    for end in range(1, n + 1):
        value = hist(end)
        scale = rounding_scale(weights, ref, end)
        assert np.all(np.abs(value - direct_dot(weights, ref, end))
                      <= 1e-13 * scale)
        if end in checked:
            naive = naive_history(weights, ref, end, end)
            assert np.all(np.abs(value - naive) <= 1e-13 * scale)
        own[end] = ref[end] = drive[end] - value
        if end % 70 == 0:
            hist.rescale(end, rinv)
            ref[:end + 1] = ref[:end + 1] @ rinv


# the orders of the SOE weight test: the edges of (0, 1) and the
# catalog's orders in between
SOE_ALPHAS = [0.1, 0.5, 0.9, 0.995, 1.0 - 1e-6]


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
@pytest.mark.parametrize("alpha", SOE_ALPHAS)
def test_soe_weights_match_the_binomials(alpha, n):
    # against mpmath, not gl_weights: at alpha = 1 - 1e-6 the rounding of
    # alpha + 1 in the recurrence's k = 2 factor is 1e-10 at every lag
    amps, rates = gl_soe(alpha, n)
    lags = np.unique(np.concatenate((
        np.arange(BASE, 2 * BASE), np.geomspace(BASE, n, 80).round(), [n])))
    soe = np.exp(-np.outer(lags - BASE, rates)) @ amps
    with mpmath.workdps(40):
        ref = np.array([float((-1) ** k * mpmath.binomial(alpha, k))
                        for k in lags.astype(int).tolist()])
    assert np.max(np.abs(soe / ref - 1.0)) <= 1e-11


def test_soe_nodes_stay_finite_at_the_smallest_rates():
    # log(e^s - 1) as log(expm1(s)): s + log1p(-e^-s) divides by zero
    # once e^-s rounds to 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps, rates = gl_soe(0.1, 10 ** 5)
    assert rates[0] < 1e-17 and np.all(np.isfinite(amps))
    assert np.all(amps < 0.0)


def gl_row(alpha, h, n):
    """``gl_history``'s weight row over lags 0 .. n - 1: w_0 = h^alpha,
    w_k = -c_k."""
    weights = -gl_weights(alpha, n)
    weights[0] = h ** alpha
    return weights


@pytest.mark.parametrize("row_shape", [(), (3,), (3, 2)],
                         ids=["scalar", "state", "tangent"])
@pytest.mark.parametrize("n", [777, 2100])
@pytest.mark.parametrize("alpha", [0.1, 0.9])
def test_full_memory_gl_kernel_matches_naive_loop(alpha, n, row_shape):
    # lags from BASE on as decaying states, updated once per BASE rows,
    # with the stepper's layout: the buffer is its own pending, whose row
    # ``end`` holds the far sums over w_0 = h^alpha != 1 when the caller
    # adds its forcing there and the dot reads it at lag 0; ``ref`` is
    # the same history with only the forcing in that row
    rng = np.random.default_rng(n + len(row_shape))
    weights = gl_row(alpha, 0.01, n + 1)
    forcing = rng.normal(size=(n + 1,) + row_shape)
    values = rng.normal(size=(n + 1,) + row_shape)
    buf = np.zeros_like(values)
    buf[0] = values[0]
    ref = buf.copy()
    hist = gl_history(alpha, 0.01, n, buf)
    checked = {1, 2, n} | {e for e in (63, 64, 65, 127, 128, 129, 500, 1024,
                                       1025, 1100, 2048, 2049) if e <= n}
    for end in range(1, n + 1):
        buf[end] += forcing[end]
        ref[end] = forcing[end]
        value = hist(end)
        scale = rounding_scale(weights, ref, end)
        assert np.all(np.abs(value - direct_dot(weights, ref, end))
                      <= 1e-13 * scale)
        if end in checked:
            naive = naive_history(weights, ref, end, end)
            assert np.all(np.abs(value - naive) <= 1e-13 * scale)
        buf[end] = ref[end] = values[end]


def abm_weights(alpha, lags):
    """ABM's unscaled weights b_{k-1} = k^a - (k-1)^a and
    a_k = (k+1)^{a+1} - 2 k^{a+1} + (k-1)^{a+1} at ``lags``, (2, len(lags)),
    from mpmath at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        rows = [[mpmath.mpf(k) ** a - mpmath.mpf(k - 1) ** a for k in lags],
                [mpmath.mpf(k + 1) ** (a + 1) - 2 * mpmath.mpf(k) ** (a + 1)
                 + mpmath.mpf(k - 1) ** (a + 1) for k in lags]]
        return np.array([[float(v) for v in row] for row in rows])


def boundary_weights(alpha, ms):
    """f_0's corrector weights w0(m) = (m-1)^{a+1} - (m-1-a) m^a at
    ``ms``, from mpmath at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return np.array([float(mpmath.mpf(m - 1) ** (a + 1)
                               - (m - 1 - a) * mpmath.mpf(m) ** a)
                         for m in ms])


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.995, 1.0])
def test_abm_weights_match_mpmath(alpha):
    # the near weights of a direct-dot kernel, read one lag at a time off a
    # unit impulse in row 1, and f_0's weights, read off the pending rows
    # of a full-memory kernel at f_0 = 1; h = 1, so the scales are
    # 1 / Gamma(alpha + 1) and 1 / Gamma(alpha + 2)
    scales = np.array([1.0 / math.gamma(alpha + 1.0),
                       1.0 / math.gamma(alpha + 2.0)])
    lags = 2 * BASE - 1
    buf = np.zeros((lags + 2, 1))
    buf[1] = 1.0
    hist = abm_history(alpha, 1.0, lags, buf, np.zeros((lags + 2, 2, 1)),
                       np.zeros(1))
    near = np.array([hist(k + 1)[:, 0].copy()
                     for k in range(1, lags + 1)]).T
    ref = scales[:, None] * abm_weights(alpha, range(1, lags + 1))
    assert np.max(np.abs(near[0] / ref[0] - 1.0)) <= 1e-14
    assert np.max(np.abs(near[1] / ref[1] - 1.0)) <= 1e-12

    n = 10 ** 5
    pending = np.zeros((n + 1, 2, 1))
    abm_history(alpha, 1.0, n, np.zeros((n + 1, 1)), pending, np.ones(1))
    ms = np.unique(np.concatenate((np.arange(1, 300),
                                   np.geomspace(300, n, 200).round(),
                                   [n]))).astype(int)
    b = scales[0] * abm_weights(alpha, ms.tolist())[0]
    w0 = scales[1] * boundary_weights(alpha, ms.tolist())
    assert np.max(np.abs(pending[ms, 0, 0] / b - 1.0)) <= 1e-14
    assert np.max(np.abs(pending[ms, 1, 0] / w0 - 1.0)) <= 1e-14


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
@pytest.mark.parametrize("alpha", SOE_ALPHAS + [1.0])
def test_abm_soe_weights_match_mpmath(alpha, n):
    # numpy's power differences for a_k are off by up to 5e-6 relative
    # by lag 10^5; at alpha = 1 the one rate-0 node carries the weights
    # exactly
    amps, rates = abm_soe(alpha, n)
    lags = np.unique(np.concatenate((
        np.arange(BASE, 2 * BASE), np.geomspace(BASE, n, 80).round(), [n])))
    soe = amps @ np.exp(-np.outer(rates, lags - BASE))
    ref = abm_weights(alpha, lags.astype(int).tolist())
    assert np.max(np.abs(soe / ref - 1.0)) <= 1e-13
    if alpha == 1.0:
        assert np.all(soe == [[1.0], [2.0]])


@pytest.mark.parametrize("row_shape", [(1,), (3,)], ids=["scalar", "state"])
@pytest.mark.parametrize("n", [777, 2100])
@pytest.mark.parametrize("alpha", [0.1, 0.9])
def test_full_memory_abm_kernel_matches_naive_loop(alpha, n, row_shape):
    # both weight rows' lags from BASE on as decaying states they share,
    # with the stepper's layout: f_1 .. in the buffer over a zero row 0,
    # w_0 = 0, and f_0's terms and the far sums in the separate pending
    # rows, which the stepper adds after each call
    rng = np.random.default_rng(n + len(row_shape) + 1)
    buf = rng.normal(size=(n + 1,) + row_shape)
    buf[0] = 0.0
    pending = np.zeros((n + 1, 2) + row_shape)
    hist = abm_history(alpha, 1.0, n, buf, pending,
                       rng.normal(size=row_shape))
    start = pending.copy()
    scales = np.array([[1.0 / math.gamma(alpha + 1.0)],
                       [1.0 / math.gamma(alpha + 2.0)]])
    weights = np.pad(scales * abm_weights(alpha, range(1, n + 1)),
                     ((0, 0), (1, 0)))
    checked = {1, 2, n} | {e for e in (63, 64, 65, 127, 128, 129, 500, 1024,
                                       1025, 1100, 2048, 2049) if e <= n}
    for end in range(1, n + 1):
        value = hist(end) + pending[end]
        for j in range(2):
            scale = (rounding_scale(weights[j], buf, end)
                     + np.abs(start[end, j]))
            bound = 1e-13 * scale
            ref = direct_dot(weights[j], buf, end) + start[end, j]
            assert np.all(np.abs(value[j] - ref) <= bound)
            if end in checked:
                naive = naive_history(weights[j], buf, end, end)
                assert np.all(np.abs(value[j] - naive - start[end, j])
                              <= bound)


def test_full_memory_gl_kernel_pushes_through():
    # test_history_kernel_pushes_through on a GL kernel at full memory,
    # w_0 = h^alpha != 1, in the exact flow's layout: the forcing added
    # into the row being written, the sum copied over it.  The
    # push-through rescales the last BASE rows, the block's far rows (its
    # far sums over w_0) and the states, and leaves every older row as it
    # was
    rng = np.random.default_rng(3)
    dim, m, n, alpha, h = 3, 2, 1500, 0.7, 0.01
    weights = gl_row(alpha, h, n + 1)
    drive = rng.normal(size=(n + 1, dim, m))
    buf = np.zeros_like(drive)
    ref = np.zeros_like(drive)  # the same history, rescaled in full by hand
    hist = gl_history(alpha, h, n, buf)
    rinv = np.eye(m) + np.triu(rng.normal(size=(m, m)), 1)
    for end in range(1, n + 1):
        buf[end] += drive[end]
        ref[end] = drive[end]
        value = hist(end)
        assert value.shape == (dim, m)
        assert np.all(np.abs(value - direct_dot(weights, ref, end))
                      <= 1e-13 * rounding_scale(weights, ref, end))
        buf[end] = ref[end] = value
        if end % 70 == 0:
            keep = max(0, end - 2 * BASE)
            old = buf[:keep].copy()
            hist.rescale(end, rinv)
            ref[:end + 1] = ref[:end + 1] @ rinv
            assert np.array_equal(buf[:keep], old)


def test_full_memory_gl_kernel_slides_with_its_far_rows():
    # the exact flow's slide with w_0 = h^alpha != 1: after row E, a
    # multiple of BASE, rows E - BASE .. E + BASE - 1 (the far rows ahead
    # holding their sums over w_0) move to the front of a short buffer and
    # the run goes on at BASE + 1, pushing factors through as it goes; it
    # gives the bits of one kernel over the whole history
    rng = np.random.default_rng(17)
    dim, m, n, alpha, h, rows = 3, 2, 1500, 0.9, 0.005, 4 * BASE
    drive = rng.normal(size=(n + 1, dim, m))
    whole = np.zeros_like(drive)
    short = np.zeros((rows + 2 * BASE + 1, dim, m))
    full, slid = (gl_history(alpha, h, n, buf) for buf in (whole, short))
    rinv = np.eye(m) + np.triu(rng.normal(size=(m, m)), 1)
    row = 0
    for end in range(1, n + 1):
        if end > 1 and (end - 1) % rows == 0:
            shift = row - BASE
            short[:-shift] = short[shift:]
            short[-shift:] = 0.0
            row = BASE
        row += 1
        whole[end] += drive[end]
        short[row] += drive[end]
        whole[end] = full(end)
        short[row] = slid(row)
        assert np.array_equal(short[row], whole[end])
        if end % 50 == 0:
            full.rescale(end, rinv)
            slid.rescale(row, rinv)


def test_history_sum_accepts_flattened_tangent_rows():
    # the Lyapunov frame stores one (dim, m) block per row; the kernel sums
    # them through a flat view and returns a block
    rng = np.random.default_rng(7)
    weights = rng.normal(size=6)
    blocks = rng.normal(size=(10, 3, 2))
    got = stream(HistoryKernel(weights, blocks, zero_far(weights, blocks)),
                 9)[-1]
    assert got.shape == (3, 2)
    ref = sum(weights[k] * blocks[9 - k] for k in range(6))
    assert_allclose(got, ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("row_shape", [(), (3,), (3, 2)],
                         ids=["scalar", "state", "tangent"])
def test_history_kernel_returns_its_own_sum_row(row_shape):
    # every call refills and returns the one C-contiguous ``hist.sum``, of
    # one weight row or of two
    rng = np.random.default_rng(11)
    buf = rng.normal(size=(300,) + row_shape)
    for weights in (rng.normal(size=200), rng.normal(size=(2, 200))):
        hist = HistoryKernel(weights, buf, zero_far(weights, buf))
        total = hist.sum
        assert total.shape == weights.shape[:-1] + row_shape
        assert total.flags.c_contiguous
        for end in range(1, 300):
            assert hist(end) is total
        assert hist.sum is total


def test_history_kernel_needs_pending():
    # no kernel allocates far rows of its own
    with pytest.raises(TypeError):
        HistoryKernel(np.ones(4), np.zeros((10, 3)))


def test_gl_history_alpha_one_keeps_one_lag():
    # w_0 = h and w_1 = 1 alone: the Euler step d_m = h f + d_{m-1}.  The
    # buffer is the kernel's own pending: each row gets its forcing before
    # the call and the sum after it, as every stepper does
    values = np.arange(8.0).reshape(4, 2)
    buf = np.zeros_like(values)
    buf[0] = values[0]
    hist = gl_history(1.0, 0.5, 50, buf)
    for end in range(1, 4):
        buf[end] += 10.0 * end
        got = hist(end).copy()
        assert_allclose(got, 5.0 * end + buf[end - 1], rtol=0, atol=0)
        buf[end] = values[end]


@pytest.mark.parametrize("alpha", [0.9, 1.0])
def test_gl_zero_rows_keep_their_sign_with_and_without_the_far_part(alpha):
    # every kernel call adds its far row, whether or not the run is long
    # enough for the far part, so an exact zero comes out with one sign
    growth = SystemSpec(name="growth", dim=1, field=lambda t, x: 2.0 * x)
    rows = [solve_gl(growth, SolverConfig(alpha=alpha, h=0.01,
                                          t_end=n * 0.01, x0=[-0.0])).x[:5]
            for n in (5, 100)]
    assert rows[1].shape == (5, 1)
    assert rows[0].tobytes() == rows[1].tobytes()


# -- linear relaxation against the Mittag-Leffler solution ---------------


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
def test_gl_relaxation_tracks_mittag_leffler(alpha):
    cfg = SolverConfig(alpha=alpha, h=1e-3, t_end=2.0, x0=[1.0])
    traj = solve_gl(RELAX, cfg)
    ref = np.array([ml_one(alpha, -t ** alpha) for t in traj.t])
    rel = np.abs(traj.x[:, 0] - ref) / np.abs(ref)
    assert np.max(rel) < 5e-3


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
def test_abm_relaxation_tracks_mittag_leffler(alpha):
    cfg = SolverConfig(alpha=alpha, h=1e-3, t_end=2.0, x0=[1.0])
    traj = solve_abm(RELAX, cfg)
    ref = np.array([ml_one(alpha, -t ** alpha) for t in traj.t])
    rel = np.abs(traj.x[:, 0] - ref) / np.abs(ref)
    assert np.max(rel) < 5e-4


def test_zero_field_is_exactly_constant():
    zero = SystemSpec(name="zero", dim=2, field=lambda t, x: np.zeros(2))
    cfg = SolverConfig(alpha=0.7, h=0.01, t_end=1.0, x0=[2.0, -3.0])
    for solver in (solve_gl, solve_abm):
        traj = solver(zero, cfg)
        assert np.all(traj.x == [2.0, -3.0])


@pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
def test_abm_exact_on_constant_field(alpha):
    # D^alpha x = 1 has solution t^alpha / Gamma(alpha+1); the corrector's
    # product-integration weights reproduce it to rounding error
    one = SystemSpec(name="one", dim=1, field=lambda t, x: np.ones(1))
    cfg = SolverConfig(alpha=alpha, h=0.01, t_end=1.0, x0=[0.0])
    traj = solve_abm(one, cfg)
    ref = traj.t ** alpha / math.gamma(alpha + 1.0)
    assert_allclose(traj.x[1:, 0], ref[1:], rtol=1e-12)


# -- classical limit alpha = 1 -------------------------------------------


def test_gl_alpha_one_reduces_to_forward_euler():
    h, t_end = 1e-3, 1.0
    cfg = SolverConfig(alpha=1.0, h=h, t_end=t_end, x0=[1.0, 0.0])
    traj = solve_gl(ROTATE, cfg)
    x = np.array([1.0, 0.0])
    for m in range(cfg.n_steps):
        x = x + h * ROTATE.field(m * h, x)
        assert_allclose(traj.x[m + 1], x, rtol=0, atol=1e-12)


def test_abm_alpha_one_reduces_to_heun():
    h, t_end = 1e-3, 1.0
    cfg = SolverConfig(alpha=1.0, h=h, t_end=t_end, x0=[1.0, 0.0])
    traj = solve_abm(ROTATE, cfg)
    x = np.array([1.0, 0.0])
    for m in range(cfg.n_steps):
        t = m * h
        fx = ROTATE.field(t, x)
        pred = x + h * fx
        x = x + 0.5 * h * (fx + ROTATE.field(t + h, pred))
        assert_allclose(traj.x[m + 1], x, rtol=0, atol=1e-12)


def test_abm_alpha_one_rotation_accuracy():
    cfg = SolverConfig(alpha=1.0, h=1e-3, t_end=2 * np.pi, x0=[1.0, 0.0])
    traj = solve_abm(ROTATE, cfg)
    ref = np.c_[np.cos(traj.t), -np.sin(traj.t)]
    assert np.max(np.abs(traj.x - ref)) < 1e-5


def test_gl_error_shrinks_when_step_halves():
    errs = []
    for h in (2e-3, 1e-3):
        cfg = SolverConfig(alpha=0.9, h=h, t_end=2.0, x0=[1.0])
        traj = solve_gl(RELAX, cfg)
        ref = np.array([ml_one(0.9, -t ** 0.9) for t in traj.t])
        errs.append(np.max(np.abs(traj.x[:, 0] - ref) / np.abs(ref)))
    assert errs[1] < errs[0]
    assert 1.2 < errs[0] / errs[1] < 3.0


# -- accuracy against the direct O(N^2) sums ----------------------------


def direct_gl(system, cfg):
    """Full-memory GL update with every lag summed by one direct dot."""
    n, h, alpha, x0 = cfg.n_steps, cfg.h, cfg.alpha, cfg.x0
    c = gl_weights(alpha, n + 1)
    t = cfg.t0 + h * np.arange(n + 1)
    dev = np.zeros((n + 1, system.dim))
    for m in range(1, n + 1):
        d = h ** alpha * np.asarray(system.field(t[m - 1], x0 + dev[m - 1]))
        dev[m] = d - c[1:m][::-1] @ dev[1:m]
    return dev + x0


def direct_abm(system, cfg):
    """Full-memory ABM predictor-corrector with direct-dot history sums."""
    n, h, alpha, x0 = cfg.n_steps, cfg.h, cfg.alpha, cfg.x0
    b, a = abm_weights(alpha, range(1, n + 1))
    w0 = boundary_weights(alpha, range(1, n + 1))
    cp = h ** alpha / math.gamma(alpha + 1.0)
    cc = h ** alpha / math.gamma(alpha + 2.0)
    t = cfg.t0 + h * np.arange(n + 1)
    x = np.empty((n + 1, system.dim))
    fx = np.empty((n + 1, system.dim))
    x[0] = x0
    fx[0] = system.field(t[0], x0)
    for m in range(1, n + 1):
        pred = x0 + cp * (b[:m][::-1] @ fx[:m])
        hist = a[:m - 1][::-1] @ fx[1:m] + w0[m - 1] * fx[0]
        x[m] = x0 + cc * (hist + system.field(t[m], pred))
        fx[m] = system.field(t[m], x[m])
    return x


# Lorenz stays short: by t ~ 25 chaos amplifies last-bit differences
# between any two summation orders to ~1e-7
LORENZ = make_system("lorenz")
ACCURACY_CASES = {
    "lorenz": (LORENZ, dict(alpha=0.995, h=0.005, t_end=10.0,
                            x0=LORENZ.params["default_x0"])),
    "relax": (RELAX, dict(alpha=0.5, h=0.001, t_end=3.0, x0=[1.0])),
    # the longest memory of the catalog's range: the far sums carry most
    # of each step
    "relax-0.3": (RELAX, dict(alpha=0.3, h=0.001, t_end=3.0, x0=[1.0])),
}


@pytest.mark.parametrize("case", sorted(ACCURACY_CASES))
@pytest.mark.parametrize("scheme", ["gl", "abm"])
def test_full_memory_matches_direct_sum(case, scheme):
    system, kwargs = ACCURACY_CASES[case]
    cfg = SolverConfig(scheme=scheme, **kwargs)
    # both schemes' decaying states take part
    assert cfg.n_steps >= 2000
    solver, direct = ((solve_gl, direct_gl) if scheme == "gl"
                      else (solve_abm, direct_abm))
    got = solver(system, cfg).x
    ref = direct(system, cfg)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def two_step_gl(system, cfg):
    """``solve_gl``'s update with fresh arrays: the row plus the field
    value into a new array, copied into the row, then a copy of the
    kernel's sum; the kernel comes from ``gl_history``, as the stepper's
    does."""
    n, h, alpha, x0 = cfg.n_steps, cfg.h, cfg.alpha, cfg.x0
    window = n if cfg.memory_window is None else min(cfg.memory_window, n)
    t = cfg.t0 + h * np.arange(n + 1)
    dev = np.zeros((n + 1, system.dim))
    hist = gl_history(alpha, h, window, dev)
    x_prev = x0.copy()
    for m in range(1, n + 1):
        dev[m] = dev[m] + np.asarray(system.field(t[m - 1], x_prev),
                                     dtype=float)
        dev[m] = hist(m).copy()
        x_prev = x0 + dev[m]
    return dev + x0


def subtracted_gl(system, cfg):
    """The GL update as the deviation recurrence
    d_m = h^alpha f(t_{m-1}, x_{m-1}) - sum_k c_k d_{m-k}: a kernel of
    weights c_0 = 1 .. c_L, whose row being written holds only its far
    sums when c_0 reads it, subtracted from h^alpha f."""
    n, h, alpha, x0 = cfg.n_steps, cfg.h, cfg.alpha, cfg.x0
    window = n if cfg.memory_window is None else min(cfg.memory_window, n)
    soe, lags = None, window if alpha < 1.0 else 1
    if alpha < 1.0 and BASE <= window == n:
        soe, lags = gl_soe(alpha, window), 2 * BASE - 1
    t = cfg.t0 + h * np.arange(n + 1)
    dev = np.zeros((n + 1, system.dim))
    hist = HistoryKernel(gl_weights(alpha, lags + 1), dev, dev, soe)
    x_prev = x0
    for m in range(1, n + 1):
        dev[m] = (h ** alpha * np.asarray(system.field(t[m - 1], x_prev),
                                          dtype=float) - hist(m))
        x_prev = x0 + dev[m]
    return dev + x0


@pytest.mark.parametrize("window", [None, 200, 50])
@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9, 1.0])
def test_gl_step_matches_the_subtracted_recurrence_on_relaxation(alpha,
                                                                 window):
    # the lag-0 weight h^alpha scales the field value and the far sums in
    # the row; subtracting the history from h^alpha f is the same
    # recurrence to rounding
    cfg = SolverConfig(alpha=alpha, h=0.001, t_end=1.0, x0=[1.0],
                       memory_window=window)
    got, ref = solve_gl(RELAX, cfg).x, subtracted_gl(RELAX, cfg)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_gl_step_matches_the_subtracted_recurrence_on_lorenz():
    # 1000 steps, past the far part's first folds, before chaos amplifies
    # rounding
    cfg = SolverConfig(alpha=0.995, h=0.005, t_end=5.0,
                       x0=LORENZ.params["default_x0"])
    assert cfg.n_steps == 1000
    got, ref = solve_gl(LORENZ, cfg).x, subtracted_gl(LORENZ, cfg)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def two_step_abm(system, cfg):
    """``solve_abm``'s update with fresh arrays: both history sums plus
    their pending rows into a new (2, dim) array, then the corrector into
    a new array; the kernel and its pending rows come from
    ``abm_history``, as the stepper's do."""
    n, h, alpha, x0 = cfg.n_steps, cfg.h, cfg.alpha, cfg.x0
    window = n if cfg.memory_window is None else min(cfg.memory_window, n)
    cc = h ** alpha / math.gamma(alpha + 2.0)
    t = cfg.t0 + h * np.arange(n + 1)
    x = np.zeros((n + 1, system.dim))
    fx = np.zeros((n + 1, system.dim))
    x[0] = x0
    pending = np.zeros((n + 1, 2, system.dim))
    hist = abm_history(alpha, h, window, fx, pending,
                       np.asarray(system.field(t[0], x0), dtype=float))
    pending += x0
    for m in range(1, n + 1):
        pred, base = hist(m) + pending[m]
        x[m] = base + cc * np.asarray(system.field(t[m], pred), dtype=float)
        fx[m] = np.asarray(system.field(t[m], x[m]), dtype=float)
    return x


@pytest.mark.parametrize("window", [None, 50, 300])
# the ids keep the "-1" of the corrector count that ABM once took as a
# setting, so each case keeps its name
@pytest.mark.parametrize("scheme", ["gl", "abm"], ids=["gl-1", "abm-1"])
def test_in_place_steps_match_the_two_step_updates_bit_for_bit(
        scheme, window):
    # the steppers finish each row in place; that is the same IEEE
    # arithmetic as the two-step update, so every bit agrees
    cfg = SolverConfig(alpha=0.95, h=0.005, t_end=10.0,
                       x0=LORENZ.params["default_x0"], scheme=scheme,
                       memory_window=window)
    assert cfg.n_steps > 16 * BASE       # the far part runs at full memory
    solver, ref = ((solve_gl, two_step_gl) if scheme == "gl"
                   else (solve_abm, two_step_abm))
    assert np.array_equal(solver(LORENZ, cfg).x, ref(LORENZ, cfg))


# -- memory window -------------------------------------------------------


def test_window_at_least_n_steps_is_identical():
    cfg_full = SolverConfig(alpha=0.8, h=1e-2, t_end=3.0, x0=[1.0])
    cfg_win = SolverConfig(alpha=0.8, h=1e-2, t_end=3.0, x0=[1.0],
                           memory_window=10_000)
    full = solve_gl(RELAX, cfg_full)
    win = solve_gl(RELAX, cfg_win)
    assert np.array_equal(full.x, win.x)


def test_short_window_stays_close_on_relaxation():
    # high order => fast-decaying history weights => small truncation effect
    cfg_full = SolverConfig(alpha=0.995, h=1e-3, t_end=20.0, x0=[1.0])
    cfg_win = SolverConfig(alpha=0.995, h=1e-3, t_end=20.0, x0=[1.0],
                           memory_window=1000)
    full = solve_gl(RELAX, cfg_full)
    win = solve_gl(RELAX, cfg_win)
    dev = np.max(np.abs(full.x - win.x))
    assert 0.0 < dev < 1e-2


# -- config validation and failure modes ---------------------------------


def test_config_rejects_bad_values():
    ok = dict(alpha=0.9, h=0.01, t_end=1.0, x0=[1.0])
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "alpha": 1.2})
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "alpha": 0.0})
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "h": 0.0})
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "t_end": 0.0})
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "t_end": np.inf})
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "t0": -np.inf})
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "x0": [np.nan]})
    with pytest.raises(ConfigError):
        SolverConfig(**{**ok, "memory_window": 0})
    # each end is finite, the span is not
    with pytest.raises(ConfigError, match="must be finite"):
        SolverConfig(**{**ok, "t0": -1e308, "t_end": 1e308})


# sizes the allocator refuses before touching a page: 1e300 steps are past
# numpy's largest array, 2e15 past a 47-bit address space (16 PB of t alone)
@pytest.mark.parametrize("h, t_end", [(1e-300, 1.0), (0.005, 1e13)])
@pytest.mark.parametrize("solver", [solve_gl, solve_abm])
def test_oversized_step_count_is_a_config_error(solver, h, t_end):
    cfg = SolverConfig(alpha=0.9, h=h, t_end=t_end, x0=[1.0])
    with pytest.raises(ConfigError,
                       match=re.escape(f"{cfg.n_steps:.6g} steps ")):
        solver(RELAX, cfg)


def test_dimension_mismatch_rejected():
    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=1.0, x0=[1.0, 2.0])
    with pytest.raises(ConfigError):
        solve_gl(RELAX, cfg)


@pytest.mark.parametrize("value", [1.0, [1.0], [[1.0], [2.0], [3.0]]],
                         ids=["scalar", "one-entry", "column"])
@pytest.mark.parametrize("solver", [solve_gl, solve_abm], ids=["gl", "abm"])
def test_field_of_the_wrong_shape_is_a_config_error(solver, value):
    # numpy would broadcast the first two over the state without a word
    flat = SystemSpec(name="flat", dim=3, field=lambda t, x: np.array(value))
    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=1.0, x0=[1.0, 2.0, 3.0])
    with pytest.raises(ConfigError, match=re.escape(
            f"field of system 'flat' returned shape {np.shape(value)}; "
            "expected (3,)")):
        solver(flat, cfg)


@pytest.mark.parametrize("value", [1.0, [1.0]], ids=["scalar", "one-entry"])
def test_gl_field_of_the_wrong_shape_from_step_3_is_a_config_error(value):
    # every field value of the first block has its shape checked: numpy
    # would broadcast these over the state
    def field(t, x):
        return np.array(value) if t > 0.015 else -x

    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=1.0, x0=[1.0, 2.0])
    with pytest.raises(ConfigError, match=re.escape(
            f"field of system 'late' returned shape {np.shape(value)}; "
            "expected (2,)")):
        solve_gl(SystemSpec(name="late", dim=2, field=field), cfg)


def test_full_memory_solve_holds_little_beside_its_trajectory():
    # the history's far sums live in the trajectory's own rows, the result
    # is that array shifted in place, the far part holds Q states and one
    # block matrix, and only the weights it reads are built: at 20 000
    # steps the traced peak is 2.31 times the trajectory's bytes; the
    # bound leaves a 20% margin
    cfg = SolverConfig(alpha=0.95, h=0.005, t_end=100.0,
                       x0=LORENZ.params["default_x0"])
    assert cfg.n_steps == 20000
    tracemalloc.start()
    try:
        traj = solve_gl(LORENZ, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * traj.x.nbytes


def test_abm_solve_holds_little_beside_its_trajectory():
    # the weight rows span lags 1 .. 2 BASE - 1 only, f_0's weights are
    # built without a list and the pending rows are filled in place: at
    # 20 000 steps the traced peak is 7.22 times the trajectory's bytes;
    # the bound leaves a 20% margin
    cfg = SolverConfig(alpha=0.95, h=0.005, t_end=100.0,
                       x0=LORENZ.params["default_x0"], scheme="abm")
    assert cfg.n_steps == 20000
    tracemalloc.start()
    try:
        traj = solve_abm(LORENZ, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.7 * traj.x.nbytes


@pytest.fixture
def trust_region_1e6(monkeypatch):
    """Shrink the steppers' trust region so a test's blow-up leaves it
    within a few steps."""
    monkeypatch.setattr(solvers, "DIVERGE_BOUND", 1e6)


@pytest.mark.usefixtures("trust_region_1e6")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e9],
                         ids=["nan", "inf", "-inf", "past-bound"])
@pytest.mark.parametrize("solver, step", [(solve_gl, 6), (solve_abm, 5)],
                         ids=["gl", "abm"])
def test_divergence_reports_step_and_time(solver, step, value):
    # the field is zero until t = 0.45, then returns `value`; GL feels it
    # one step later than ABM, whose corrector evaluates f at t_m
    def field(t, x):
        return np.full(1, value if t > 0.45 else 0.0)

    cfg = SolverConfig(alpha=1.0, h=0.1, t_end=100.0, x0=[1.0])
    with pytest.raises(DivergenceError) as exc:
        solver(SystemSpec(name="blow", dim=1, field=field), cfg)
    assert exc.value.step == step
    assert exc.value.t == pytest.approx(step * 0.1)


def blowup(t_switch, power):
    """Zero until t_switch, then 1e8 * (1 + x^4), which leaves a trust
    region of 1e6 in one step and overflows a few steps later.  ``power``
    computes x^4: numpy's overflows to inf with a warning, Python's float
    power raises ``OverflowError``."""
    def field(t, x):
        if t <= t_switch:
            return np.zeros(1)
        return 1e8 * (1.0 + power(x))
    return SystemSpec(name="blowup", dim=1, field=field)


def numpy_power(x):
    return x ** 4


def python_power(x):
    return np.array([x.tolist()[0] ** 4])


# GL feels the switch at t_{m-1}, ABM at t_m, so GL reports one step later
@pytest.mark.usefixtures("trust_region_1e6")
@pytest.mark.parametrize("power", [numpy_power, python_power],
                         ids=["numpy-overflow", "field-raises"])
@pytest.mark.parametrize("solver, step", [
    (solve_gl, 131), (solve_abm, 130),   # mid-block, past the first block
    (solve_gl, 195), (solve_abm, 194),   # in the final partial block
], ids=["gl-mid", "abm-mid", "gl-tail", "abm-tail"])
def test_divergence_is_located_inside_its_block(solver, step, power):
    h = 0.125
    cfg = SolverConfig(alpha=1.0, h=h, t_end=200 * h, x0=[1.0])
    assert cfg.n_steps % BASE and step > BASE
    t_switch = (step - 0.5 - (solver is solve_gl)) * h
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as exc:
            solver(blowup(t_switch, power), cfg)
    assert exc.value.step == step
    assert exc.value.t == step * h
    assert str(exc.value) == (f"state left the trust region at step {step} "
                              f"(t = {step * h:.6g})")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.usefixtures("trust_region_1e6")
@pytest.mark.parametrize("solver, step", [(solve_gl, 18), (solve_abm, 17)],
                         ids=["gl", "abm"])
def test_field_failing_on_the_diverged_state_is_a_divergence(solver, step):
    # ABM evaluates f at a new state before its block is checked; the
    # diverged state, not the field's error, ends the run
    def field(t, x):
        if abs(x.tolist()[0]) > 1e6:
            raise OverflowError("field fails on the diverged state")
        return np.array([1e8 if t > 2.0 else 0.0])

    cfg = SolverConfig(alpha=1.0, h=0.125, t_end=25.0, x0=[1.0])
    with pytest.raises(DivergenceError) as exc:
        solver(SystemSpec(name="fails", dim=1, field=field), cfg)
    assert exc.value.step == step


@pytest.mark.usefixtures("trust_region_1e6")
@pytest.mark.parametrize("step", [BASE, BASE + 1, 200],
                         ids=["block-end", "block-start", "last-row"])
def test_gl_field_failing_on_a_new_row_is_a_divergence(step):
    # GL evaluates f on each row right after writing it, inside that row's
    # block: the row is checked before the field's error propagates, also
    # as the first row of a block; the last row feeds no field call
    h = 0.125

    def field(t, x):
        if abs(x.tolist()[0]) > 1e6:
            raise OverflowError("field fails on the diverged state")
        return np.array([1e8 if t > (step - 1.5) * h else 0.0])

    cfg = SolverConfig(alpha=1.0, h=h, t_end=200 * h, x0=[1.0])
    with pytest.raises(DivergenceError) as exc:
        solve_gl(SystemSpec(name="fails", dim=1, field=field), cfg)
    assert exc.value.step == step


@pytest.mark.parametrize("window", [None, 5], ids=["full", "windowed"])
@pytest.mark.parametrize("n_steps", [1, BASE - 1, BASE, BASE + 1, 3 * BASE])
def test_gl_calls_the_field_once_per_step(n_steps, window):
    # f at t_0 .. t_{N-1}, each once: the last state feeds no step
    calls = []

    def field(t, x):
        calls.append(t)
        return -x

    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=n_steps * 0.01, x0=[1.0],
                       memory_window=window)
    assert cfg.n_steps == n_steps
    traj = solve_gl(SystemSpec(name="count", dim=1, field=field), cfg)
    assert calls == traj.t[:-1].tolist()


@pytest.mark.parametrize("solver", [solve_gl, solve_abm])
def test_field_error_without_divergence_propagates(solver):
    def field(t, x):
        if t > 1.0:
            raise OverflowError("field overflow")
        return -x

    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=3.0, x0=[1.0])
    with pytest.raises(OverflowError, match="field overflow"):
        solver(SystemSpec(name="raises", dim=1, field=field), cfg)


def test_deterministic_across_runs():
    cfg = SolverConfig(alpha=0.9, h=1e-3, t_end=1.0, x0=[1.0])
    a = solve_gl(RELAX, cfg)
    b = solve_gl(RELAX, cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)


# -- Duffing's commensurate chain ----------------------------------------


def test_commensurate_order_cases():
    assert commensurate_order((0.9, 0.8)) == pytest.approx(0.1)
    assert commensurate_order((0.5, 0.25)) == pytest.approx(0.25)
    assert commensurate_order((1.0,)) == pytest.approx(1.0)
    with pytest.raises(IncommensurableOrdersError):
        commensurate_order((0.9, 0.9 / np.sqrt(2.0)))


def test_chain_agrees_with_direct_two_term_discretization():
    """Dual-route check for Duffing's commensurate chain.

    Route A: the catalog Duffing with no forcing and no cubic term,
    D^0.9 x + 0.2 D^0.6 x = -x, as its base-0.3 chain, integrated with
    the production solver.  Route B: discretize both derivative terms
    directly with their own binomial-weight history sums (never building
    a chain) and solve the resulting one-step recurrence.  The two
    discretizations differ at O(h), so agreement is checked at two steps
    and must tighten as h shrinks.
    """
    orders = (0.9, 0.6)
    coeffs = (1.0, 0.2)
    rhs = lambda t, x: -x
    x0 = 1.0

    def direct(h, t_end):
        n = int(round(t_end / h))
        scales = [c * h ** -o for c, o in zip(coeffs, orders)]
        ws = [gl_weights(o, n + 1) for o in orders]
        lead = sum(scales)
        dev = np.zeros(n + 1)
        for m in range(1, n + 1):
            acc = rhs((m - 1) * h, dev[m - 1] + x0)
            for s, w in zip(scales, ws):
                acc -= s * np.dot(w[1:m + 1][::-1], dev[:m])
            dev[m] = acc / lead
        return dev + x0

    system = make_system(BenchmarkId(
        "duffing", params={"forcing_amp": 0.0, "cubic_coeff": 0.0,
                           "gamma": 1.0, "delta": coeffs[1]},
        alpha=orders))
    assert system.dim == 3
    x0_chain = np.zeros(system.dim)
    x0_chain[0] = x0
    sups = []
    for h in (4e-3, 2e-3):
        cfg = SolverConfig(alpha=system.params["base_order"], h=h,
                           t_end=1.0, x0=x0_chain)
        chain = solve_gl(system, cfg).x[:, 0]
        sups.append(np.max(np.abs(chain - direct(h, 1.0))))
    assert sups[1] < 2e-2
    assert sups[1] < sups[0]


# -- trajectory CSV round-trip -------------------------------------------


def test_csv_roundtrip_is_lossless(tmp_path):
    cfg = SolverConfig(alpha=0.9, h=1e-2, t_end=1.0, x0=[1.0, 0.0])
    traj = solve_abm(ROTATE, cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    back = read_trajectory_csv(str(path))
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.x, traj.x)
    assert back.alpha == traj.alpha
    assert back.h == traj.h
    assert back.system_name == traj.system_name
    assert back.scheme == traj.scheme


def test_csv_write_replaces_atomically(tmp_path):
    cfg = SolverConfig(alpha=0.9, h=0.1, t_end=1.0, x0=[1.0])
    path = tmp_path / "out.csv"
    write_trajectory_csv(solve_gl(RELAX, cfg), str(path))
    first = path.read_bytes()
    write_trajectory_csv(solve_gl(RELAX, cfg), str(path))
    assert path.read_bytes() == first
    # no leftover temp files from the staged write
    assert os.listdir(tmp_path) == ["out.csv"]


def test_csv_with_an_old_memory_window_line_reads_back(tmp_path):
    # files written before the window left the format carry one more line
    cfg = SolverConfig(alpha=0.9, h=0.1, t_end=1.0, x0=[1.0])
    path = tmp_path / "new.csv"
    write_trajectory_csv(solve_gl(RELAX, cfg), str(path))
    text = path.read_text()
    assert text.count("#") == 4
    old = tmp_path / "old.csv"
    old.write_text(text.replace("t,x0\n", "# memory_window=50\nt,x0\n"))
    new, back = read_trajectory_csv(str(path)), read_trajectory_csv(str(old))
    assert np.array_equal(back.t, new.t) and np.array_equal(back.x, new.x)
    assert (back.alpha, back.h) == (new.alpha, new.h)


# five data rows, the first of which a reader could take for a column row
CSV_ROWS_TEXT = "100,100,100\n0.1,1,2\n0.2,2,3\n0.3,3,4\n0.4,4,5\n"


def test_csv_with_a_repeated_header_key_keeps_every_row(tmp_path):
    # the rows start after the last '#' line and the column row, however
    # many distinct keys those lines hold
    path = tmp_path / "repeated.csv"
    path.write_text("# alpha=0.9\n# alpha=0.9\n# h=0.1\nt,x0,x1\n"
                    + CSV_ROWS_TEXT)
    back = read_trajectory_csv(str(path))
    assert back.t.tolist() == [100.0, 0.1, 0.2, 0.3, 0.4]
    assert back.x.tolist() == [[100.0, 100.0], [1.0, 2.0], [2.0, 3.0],
                               [3.0, 4.0], [4.0, 5.0]]


def test_csv_without_its_column_row_is_a_config_error(tmp_path):
    # skipping a column row that is not there would drop the first data row
    path = tmp_path / "headless.csv"
    path.write_text("# alpha=0.9\n# h=0.1\n" + CSV_ROWS_TEXT)
    with pytest.raises(ConfigError, match=re.escape(
            f"{str(path)!r} has no 't,x0,...' column row")):
        read_trajectory_csv(str(path))


def test_csv_with_fewer_values_than_columns_is_a_config_error(tmp_path):
    # rows of two values under 't,x0,x1' would read as a one-state
    # trajectory
    path = tmp_path / "short.csv"
    path.write_text("# alpha=0.9\n# h=0.1\nt,x0,x1\n0,1\n0.1,2\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{str(path)!r} has 2 values per data row under its 3 columns")):
        read_trajectory_csv(str(path))


def string_buffer_csv(traj):
    """The CSV text as a writer that builds it in memory first would."""
    buf = io.StringIO()
    buf.write(f"# system={traj.system_name}\n# scheme={traj.scheme}\n"
              f"# alpha={traj.alpha!r}\n# h={traj.h!r}\n")
    buf.write("t," + ",".join(f"x{i}" for i in range(traj.x.shape[1]))
              + "\n")
    np.savetxt(buf, np.column_stack((traj.t, traj.x)), fmt="%.17g",
               delimiter=",")
    return buf.getvalue().encode()


@pytest.mark.parametrize("window", [None, 40])
def test_csv_streamed_write_matches_in_memory_text(tmp_path, window):
    cfg = SolverConfig(alpha=0.9, h=1e-2, t_end=3.0, x0=[1.0, 0.0],
                       memory_window=window)
    traj = solve_abm(ROTATE, cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    assert path.read_bytes() == string_buffer_csv(traj)


def test_csv_bytes_of_extreme_values(tmp_path):
    # %.17g round-trips every double: -0.0, the smallest subnormal, a value
    # near the largest double and 1/3 each come back as written
    traj = Trajectory(t=np.array([0.0, 0.5]),
                      x=np.array([[-0.0, 5e-324], [1e308, 1.0 / 3.0]]),
                      alpha=0.9, h=0.5, system_name="edge", scheme="gl")
    path = tmp_path / "edge.csv"
    write_trajectory_csv(traj, str(path))
    assert path.read_bytes() == (
        b"# system=edge\n# scheme=gl\n# alpha=0.9\n# h=0.5\n"
        b"t,x0,x1\n"
        b"0,-0,4.9406564584124654e-324\n"
        b"0.5,1e+308,0.33333333333333331\n")
    back = read_trajectory_csv(str(path))
    assert np.array_equal(back.x, traj.x) and np.signbit(back.x[0, 0])


class FailingFile:
    """A text file whose write fails after ``count`` writes have reached
    the file it wraps."""

    def __init__(self, fh, count):
        self.fh, self.count, self.written = fh, count, []

    def write(self, text):
        if len(self.written) == self.count:
            raise OSError("disk full")
        self.written.append(text)
        return self.fh.write(text)


def test_csv_write_failure_keeps_old_file(tmp_path, monkeypatch):
    cfg = SolverConfig(alpha=0.9, h=0.1, t_end=1.0, x0=[1.0])
    path = tmp_path / "out.csv"
    write_trajectory_csv(solve_gl(RELAX, cfg), str(path))
    first = path.read_bytes()
    real_open = solvers.atomic_open
    files = []

    @contextmanager
    def failing_open(path, mode="w"):
        # five header lines, then two data rows, then the failure
        with real_open(path, mode) as fh:
            files.append(FailingFile(fh, 7))
            yield files[-1]

    monkeypatch.setattr(solvers, "atomic_open", failing_open)
    with pytest.raises(OSError, match="disk full") as exc:
        write_trajectory_csv(solve_gl(RELAX, cfg), str(path))
    # the failure comes inside np.savetxt, after rows reached the temp file
    assert "savetxt" in [entry.name for entry in exc.traceback]
    assert "".join(files[0].written[5:]) == "".join(
        first.decode().splitlines(keepends=True)[5:7])
    assert path.read_bytes() == first
    assert os.listdir(tmp_path) == ["out.csv"]


def test_csv_without_data_rows_is_a_config_error(tmp_path):
    cfg = SolverConfig(alpha=0.9, h=0.1, t_end=1.0, x0=[1.0])
    path = tmp_path / "out.csv"
    write_trajectory_csv(solve_gl(RELAX, cfg), str(path))
    lines = path.read_text().splitlines(keepends=True)
    n_header = sum(line.startswith("#") for line in lines) + 1
    path.write_text("".join(lines[:n_header]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="no data rows"):
            read_trajectory_csv(str(path))


# -- trajectory .npz -----------------------------------------------------


def assert_same_trajectory(back, traj):
    assert np.array_equal(back.t, traj.t) and back.t.dtype == traj.t.dtype
    assert np.array_equal(back.x, traj.x) and back.x.dtype == traj.x.dtype
    assert (back.alpha, back.h, back.system_name, back.scheme) == (
        traj.alpha, traj.h, traj.system_name, traj.scheme)


@pytest.mark.parametrize("scheme", ["gl", "abm"])
@pytest.mark.parametrize("name,t_end", [
    ("relax", 2.0), ("lorenz", 1.0), ("duffing", 1.0)])  # dim 1, 3 and 9
def test_npz_roundtrip_is_bit_for_bit(name, t_end, scheme, tmp_path):
    system = RELAX if name == "relax" else make_system(name)
    x0 = [1.0] if name == "relax" else system.params["default_x0"]
    traj = solve(system, SolverConfig(alpha=0.9, h=0.01, t_end=t_end,
                                      x0=x0, scheme=scheme))
    path = tmp_path / "traj.npz"
    # the bytes np.savez writes, whatever the memory order of x
    savez = npz_bytes(t=traj.t, x=traj.x, alpha=traj.alpha, h=traj.h,
                      system=traj.system_name, scheme=traj.scheme)
    for x in (traj.x, np.asfortranarray(traj.x)):
        write_trajectory(dataclasses.replace(traj, x=x), str(path))
        assert path.read_bytes() == savez
    assert zipfile.is_zipfile(path)
    assert_same_trajectory(read_trajectory(str(path)), traj)
    # any other suffix is the CSV, which reads back the same
    write_trajectory(traj, str(tmp_path / "traj.csv"))
    assert (tmp_path / "traj.csv").read_bytes().startswith(b"# system=")
    assert_same_trajectory(read_trajectory(str(tmp_path / "traj.csv")),
                           traj)


def test_npz_writes_repeat_byte_for_byte(tmp_path, monkeypatch):
    traj = solve_abm(ROTATE, SolverConfig(alpha=0.9, h=1e-2, t_end=1.0,
                                          x0=[1.0, 0.0]))
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    write_trajectory(traj, str(first))
    # the members carry a fixed date, not the clock's
    monkeypatch.setattr(time, "time", lambda: 2.0e9)
    write_trajectory(traj, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["a.npz", "b.npz"]


def test_npz_write_copies_no_member(tmp_path):
    # each member's data goes to the zip from the array's own buffer, where
    # np.savez copies all of x (2.4 MB here) through tobytes
    rng = np.random.default_rng(3)
    traj = Trajectory(t=np.arange(100001) * 1e-3, x=rng.random((100001, 3)),
                      alpha=0.9, h=1e-3, system_name="lorenz", scheme="gl")
    tracemalloc.start()
    try:
        write_trajectory(traj, str(tmp_path / "traj.npz"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * traj.x.nbytes


def test_npz_write_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.npz"
    write_trajectory(solve_gl(RELAX, SolverConfig(
        alpha=0.9, h=0.1, t_end=1.0, x0=[1.0])), str(path))
    first = path.read_bytes()
    close = zipfile.ZipFile.close

    def close_then_fail(self):
        if self.fp is not None:        # once, not again on collection
            close(self)
            raise OSError("disk full")

    # the failure comes after a whole zip reached the temporary file
    monkeypatch.setattr(zipfile.ZipFile, "close", close_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_trajectory(solve_gl(RELAX, SolverConfig(
            alpha=0.9, h=0.1, t_end=2.0, x0=[1.0])), str(path))
    assert path.read_bytes() == first
    assert os.listdir(tmp_path) == ["out.npz"]


def npz_bytes(**members):
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


GOOD_MEMBERS = {"t": np.arange(3) * 0.1, "x": np.ones((3, 2)),
                "alpha": 0.9, "h": 0.1, "system": "rotate", "scheme": "gl"}


def with_members(**changes):
    members = {**GOOD_MEMBERS, **changes}
    return npz_bytes(**{k: v for k, v in members.items() if v is not None})


def npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.ones((3, 2)))
    return buf.getvalue()


def non_npy_member():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name in GOOD_MEMBERS:
            zf.writestr(name + ".npy", b"not an array")
    return buf.getvalue()


@pytest.mark.parametrize("data, message", [
    (b"t,x0\n0,1\n", "is not a trajectory .npz"),
    (b"", "is not a trajectory .npz"),
    (b"PK\x03\x04 cut short", "is not a trajectory .npz"),
    (with_members()[:200], "is not a trajectory .npz"),
    (npy_bytes(), "holds one .npy array"),
    (with_members(scheme=None), "has no member(s) 'scheme'"),
    (with_members(t=None, h=None), "has no member(s) 't', 'h'"),
    (with_members(x=np.array([[1.0], "a", None], dtype=object)),
     "Object arrays cannot be loaded"),
    (with_members(system=np.array("rotate", dtype=object)),
     "Object arrays cannot be loaded"),
    (non_npy_member(), "member 't' is not a 1-d array of float64"),
    (with_members(x=np.ones(3)), "member 'x' is not a 2-d array"),
    (with_members(x=np.ones((3, 2, 1))), "member 'x' is not a 2-d array"),
    (with_members(x=np.ones((4, 2))), "has 4 rows of x for 3 times"),
    (with_members(t=np.ones((3, 1))), "member 't' is not a 1-d array"),
    (with_members(t=np.array(["a", "b", "c"])),
     "member 't' is not a 1-d array of float64"),
    (with_members(x=np.ones((3, 2), dtype=int)),
     "member 'x' is not a 2-d array of float64"),
    (with_members(h=np.float32(0.1)),
     "member 'h' is not a 0-d array of float64"),
    (with_members(alpha=np.array([0.9])),
     "member 'alpha' is not a 0-d array of float64"),
    (with_members(system=3), "member 'system' is not a 0-d array of text"),
    (with_members(t=np.empty(0), x=np.empty((0, 2))), "has no rows"),
], ids=["csv-text", "empty", "zip-cut-short", "npz-cut-short", "npy",
        "no-scheme", "no-t-no-h", "object-x", "object-system", "not-npy",
        "x-1d", "x-3d", "x-rows", "t-2d", "t-text", "x-int", "h-float32",
        "alpha-1d",
        "system-number", "no-rows"])
def test_malformed_npz_is_a_config_error(data, message, tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(message)):
            read_trajectory(str(path))
