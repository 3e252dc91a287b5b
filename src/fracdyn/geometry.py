"""Box-counting dimension estimates for attractor point clouds.

``box_count`` counts occupied cells of an axis-aligned grid with spacing
``epsilon`` anchored at the cloud's minimum corner.  Anchoring makes the
count deterministic (no offset averaging); the translation sensitivity this
introduces is quantified in the test suite instead.  Cells are closed
boxes: a point on a grid line (within a small relative tolerance) belongs
to every adjacent cell, and the count assigns it greedily to a cell that
other points already occupy, so sets built from exact interval endpoints
count their covering intervals rather than one spurious neighbour per
boundary.

``box_dimension`` evaluates the count over a geometrically descending
ladder of scales and fits log N against log(1/eps) by least squares over
the contiguous sub-range (length >= 4) with the best correlation, skipping
saturated scales where the count approaches the number of distinct points.
The fitted slope estimates the fractal dimension of the sampled set.

The count builds every point's cell key in passes over ``_CHUNK_ROWS``
rows, one column at a time, so beside the cloud it holds a key and a
grid-line flag per point (9 bytes) and one pass's temporaries.
"""

import itertools
import logging
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CellOverflowError, ConfigError, DegenerateFitError

logger = logging.getLogger(__name__)

__all__ = ["BoxCountResult", "box_count", "box_dimension"]

# distance in cell units (relative to the cell coordinate magnitude)
# within which a point counts as sitting exactly on a grid line; sized for
# float round-off of the coordinate arithmetic, not for data fuzziness
_SNAP_TOL = 1e-12

# counts above this fraction of the distinct-point total are treated as
# saturated: every point is alone in its cell and the slope flattens
_SATURATION_FRACTION = 0.9

# the longest scale ladder box_dimension fits.  Its window search fits
# O(levels^2) windows and a finer ladder only shortens the best one: on
# case 1's 80 001 points, 0.03 s and slope 1.87 at 12 levels, 0.19 s at
# 64, 0.44-0.50 s and slope 1.68 at 128; 10^8 levels would need an 800 MB
# ladder
MAX_LEVELS = 64

_MAX_CELLS = np.iinfo(np.int64).max

# rows per pass of _count_cells' cell-key loop.  A pass's float
# temporaries, one column of 8192 rows, take 64 KiB, below glibc's 128 KiB
# mmap threshold, so the allocator hands every pass the same heap pages
# rather than mapping and faulting in fresh ones.  A ladder on case 1's
# 80 001 points (fresh processes, 2-core host) took 30-48 ms in passes of
# 8192 rows, 37-62 ms in passes of 16 384 and 52-87 ms in one pass
_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class BoxCountResult:
    """Scale ladder, per-scale counts, and the fitted dimension."""

    scales: np.ndarray        # epsilon values, descending
    counts: np.ndarray        # occupied-cell counts N(eps), same order
    slope: float              # fitted dimension estimate
    intercept: float
    r2: float
    window: tuple             # (start, stop) index range used in the fit


def _as_points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise ConfigError(
            f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ConfigError("points contain non-finite values")
    return pts


# numpy reduces an (n, d) array across its short axis about ten times
# slower than column by column, so the reductions over the points go by
# column: here, and as ``reduce(np.logical_or, mask.T)`` for a row-wise any
def _bounds(pts):
    """Per-axis minimum and span of validated points."""
    mins = np.array([col.min() for col in pts.T])
    return mins, np.array([col.max() for col in pts.T]) - mins


def box_count(points, epsilon: float) -> int:
    """Number of grid cells of size ``epsilon`` containing >= 1 point."""
    pts = _as_points(points)
    if not (epsilon > 0.0) or not np.isfinite(epsilon):
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return _count_cells(pts, *_bounds(pts), epsilon)


def _grid_coords(pts, mins, epsilon, upper):
    """Cell coordinates of points (one column, or rows of every column):
    the offset u in cell units, the nearest grid line, whether the point
    sits on it, and the cell index clipped to [0, ``upper``]."""
    u = (pts - mins) / epsilon
    nearest = np.round(u)
    on_line = np.abs(u - nearest) <= _SNAP_TOL * (1.0 + np.abs(u))
    idx = np.clip(np.floor(u), 0.0, upper).astype(np.int64)
    return u, nearest, on_line, idx


def _count_cells(pts, mins, spans, epsilon):
    """``box_count`` on validated points with their per-axis minimum and
    span, so a scale ladder finds those once."""
    # past the index range these may reach inf, which the test refuses
    with np.errstate(over="ignore"):
        axis_cells = np.floor(spans / epsilon) + 1.0
        total = float(np.prod(axis_cells))
    if total > _MAX_CELLS or np.any(axis_cells > _MAX_CELLS):
        raise CellOverflowError(
            f"grid of more than {_MAX_CELLS:.3g} cells exceeds the "
            "representable index range; use a larger epsilon")
    cells_per_axis = axis_cells.astype(np.int64)
    strides = np.ones(pts.shape[1], dtype=np.int64)
    for k in range(pts.shape[1] - 1, 0, -1):
        strides[k - 1] = strides[k] * cells_per_axis[k]
    upper = cells_per_axis - 1

    # every point's cell key idx @ strides (Horner's rule, since numpy
    # runs an int64 matmul without BLAS) and whether it sits on a grid
    # line, built one column of _CHUNK_ROWS rows at a time
    cell = np.zeros(len(pts), dtype=np.int64)
    boundary = np.zeros(len(pts), dtype=bool)
    for start in range(0, len(pts), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        key, on_any = cell[rows], boundary[rows]
        for k, col in enumerate(pts[rows].T):
            _, _, on_line, idx = _grid_coords(col, mins[k], epsilon,
                                              float(upper[k]))
            on_any |= on_line
            key *= cells_per_axis[k]
            key += idx
    b_rows = np.flatnonzero(boundary)
    # the interior points' cells, sorted: a count of the distinct keys and
    # a membership test by bisection, without a set of every key; the
    # boundary rows' keys sort past every cell, whose keys are below
    # _MAX_CELLS
    cell[boundary] = _MAX_CELLS
    cell.sort()
    filled = cell[:len(cell) - b_rows.size]
    count = (int(np.count_nonzero(filled[1:] != filled[:-1])) + 1
             if filled.size else 0)

    # points on grid lines belong to every adjacent closed cell; assign
    # each to a cell other points already occupy where possible, sweeping
    # in lexicographic order so runs of aligned points share cells
    if b_rows.size:
        u, nearest, on_line, idx = _grid_coords(pts[b_rows], mins, epsilon,
                                                upper.astype(float))
        added = set()
        for row in np.lexsort(u.T[::-1]):
            # each axis's one cell, or the two cells either side of its line
            cells = [(i,) for i in idx[row]]
            for ax in np.nonzero(on_line[row])[0]:
                line = int(nearest[row, ax])
                lo = min(max(line - 1, 0), int(upper[ax]))
                hi = min(max(line, 0), int(upper[ax]))
                cells[ax] = (lo, hi) if lo != hi else (lo,)
            keys = [int(np.dot(c, strides)) for c in itertools.product(*cells)]
            for key in keys:
                at = int(np.searchsorted(filled, key))
                if key in added or (at < filled.size and filled[at] == key):
                    break
            else:
                added.add(keys[-1])
        count += len(added)
    return count


def _distinct_rows(pts):
    """Number of distinct rows of ``pts``, counted as
    ``np.unique(pts, axis=0)`` counts them (-0.0 equals 0.0).  When the
    sorted first column has no two equal neighbours, no two rows are
    equal; otherwise one lexsort pass ranks the rows."""
    first = np.sort(pts[:, 0])
    if (first[1:] != first[:-1]).all():
        return len(pts)
    ranked = pts[np.lexsort(pts.T)]
    return 1 + int(np.count_nonzero(
        reduce(np.logical_or, (ranked[1:] != ranked[:-1]).T)))


def box_dimension(points, eps_max: float = None, eps_min: float = None,
                  levels: int = 12) -> BoxCountResult:
    """Fit the occupied-cell scaling law over a geometric scale ladder.

    The ladder runs from ``eps_max`` (default extent/4) down to ``eps_min``
    (default extent/4096) in ``levels`` steps; both scales must be finite,
    with 0 < eps_min < eps_max, or ``ConfigError`` is raised.
    """
    pts = _as_points(points)
    mins, spans = _bounds(pts)
    extent = float(np.max(spans))
    if extent == 0.0:
        raise DegenerateFitError("point cloud has zero extent")
    if eps_max is None:
        eps_max = extent / 4.0
    if eps_min is None:
        eps_min = extent / 4096.0
    if not (0.0 < eps_min < eps_max < np.inf):
        raise ConfigError(
            f"need finite 0 < eps_min < eps_max, got ({eps_min}, {eps_max})")
    if not 4 <= levels <= MAX_LEVELS:
        raise ConfigError(
            f"levels must lie in [4, {MAX_LEVELS}], got {levels}")

    scales = np.geomspace(eps_max, eps_min, levels)
    counts = np.array([_count_cells(pts, mins, spans, e) for e in scales],
                      dtype=np.int64)
    if np.all(counts == counts[0]):
        raise DegenerateFitError(
            "occupied-cell count is constant across all scales")

    n_distinct = _distinct_rows(pts)
    saturated = counts >= _SATURATION_FRACTION * n_distinct
    usable = int(np.argmax(saturated)) if saturated.any() else levels
    if saturated.any():
        warnings.warn(
            f"{int(saturated.sum())} smallest scale(s) are saturated "
            "(count ~ distinct points) and are excluded from the fit",
            stacklevel=2)

    x = np.log(1.0 / scales)
    y = np.log(counts.astype(float))
    best = None
    for start in range(0, usable - 3):
        for stop in range(start + 4, usable + 1):
            xw, yw = x[start:stop], y[start:stop]
            ss_tot = float(np.sum((yw - yw.mean()) ** 2))
            if ss_tot == 0.0:
                continue
            slope, intercept = np.polyfit(xw, yw, 1)
            resid = yw - (slope * xw + intercept)
            r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
            key = (r2, stop - start)
            if best is None or key > best[0]:
                best = (key, float(slope), float(intercept), (start, stop))
    if best is None:
        raise DegenerateFitError(
            "no scale window with varying counts; widen the scale range")
    (r2, _), slope, intercept, window = best
    logger.info("box_dimension: slope %.4f over window %s (r2 %.5f)",
                slope, window, r2)
    return BoxCountResult(
        scales=scales,
        counts=counts,
        slope=slope,
        intercept=intercept,
        r2=r2,
        window=window,
    )
