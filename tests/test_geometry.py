"""Tests for box-counting cell counts and dimension fits."""

import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from fracdyn import geometry
from fracdyn.errors import CellOverflowError, ConfigError, DegenerateFitError
from fracdyn.geometry import box_count, box_dimension

LOG2_OVER_LOG3 = np.log(2.0) / np.log(3.0)


def cantor_endpoints(level):
    """Endpoints of the level-``level`` middle-thirds construction."""
    intervals = [(0.0, 1.0)]
    for _ in range(level):
        intervals = [piece
                     for a, b in intervals
                     for piece in ((a, a + (b - a) / 3.0),
                                   (b - (b - a) / 3.0, b))]
    pts = sorted({a for a, _ in intervals} | {b for _, b in intervals})
    return np.array(pts)[:, None], intervals


def test_single_point_occupies_one_cell():
    for eps in (0.5, 1.0, 1e-3):
        assert box_count([[0.3, 0.7]], eps) == 1
    assert box_count([[0.0]], 0.25) == 1


def test_unit_segment_in_plane():
    pts = np.column_stack([np.linspace(0.0, 1.0, 1000), np.zeros(1000)])
    assert box_count(pts, 0.1) in (10, 11)


def test_cantor_endpoints_exact_cover():
    pts, _ = cantor_endpoints(10)
    eps = 3.0 ** -5
    # brute-force oracle: the sample lies in the 2^5 level-5 intervals,
    # which are grid-aligned cells of size eps; count the ones occupied
    _, level5 = cantor_endpoints(5)
    occupied = sum(
        1 for a, b in level5
        if np.any((pts[:, 0] >= a - 1e-12) & (pts[:, 0] <= b + 1e-12)))
    assert occupied == 32
    assert box_count(pts, eps) == 32


def test_count_monotone_in_scale():
    rng = np.random.default_rng(3)
    for cloud in (rng.random((400, 2)),
                  rng.normal(size=(300, 3)),
                  cantor_endpoints(8)[0]):
        ladder = np.geomspace(0.5, 1e-3, 8)
        counts = [box_count(cloud, e) for e in ladder]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_subset_monotonicity_exact():
    rng = np.random.default_rng(4)
    q = rng.random((600, 2))
    p = q[:150]
    for eps in (0.3, 0.07, 0.01):
        assert box_count(p, eps) <= box_count(q, eps)


def test_translation_boundary_effect_only():
    pts, _ = cantor_endpoints(10)
    eps = 3.0 ** -5
    assert box_count(pts + 0.317, eps) == box_count(pts, eps)
    f0 = box_dimension(pts, eps_max=3.0 ** -1, eps_min=3.0 ** -8, levels=8)
    f1 = box_dimension(pts + 0.317, eps_max=3.0 ** -1, eps_min=3.0 ** -8,
                       levels=8)
    assert abs(f0.slope - f1.slope) < 0.02


def test_cell_overflow_guard():
    rng = np.random.default_rng(5)
    with pytest.raises(CellOverflowError):
        box_count(rng.random((50, 3)), 1e-7)


def test_box_count_validation():
    with pytest.raises(ConfigError):
        box_count(np.empty((0, 2)), 0.1)
    with pytest.raises(ConfigError):
        box_count([[0.0, np.nan]], 0.1)
    with pytest.raises(ConfigError):
        box_count([[0.0, 1.0]], 0.0)
    with pytest.raises(ConfigError):
        box_count([[0.0, 1.0]], -0.5)
    # past the index range the cell count overflows a float: no numpy
    # warning, and a finite bound in the message
    for points, eps in (([[0.0], [1e300]], 1e-300),
                        (np.eye(3) * 1e200, 1e-100)):
        with pytest.raises(CellOverflowError, match=r"more than 9\.22e\+18"):
            box_count(points, eps)


def test_flat_input_treated_as_one_dimensional():
    assert box_count(np.linspace(0.0, 1.0, 100), 0.25) in (4, 5)


# --------------------------------------------------------------- box_dimension

def test_cantor_dimension_on_construction_scales():
    pts, _ = cantor_endpoints(10)
    res = box_dimension(pts, eps_max=3.0 ** -1, eps_min=3.0 ** -8, levels=8)
    npt.assert_array_equal(res.counts, 2 ** np.arange(1, 9))
    assert abs(res.slope - LOG2_OVER_LOG3) < 1e-3
    assert res.r2 > 0.999999


def test_cantor_dimension_default_ladder_is_close():
    # off-construction scales ride the log-periodic ripple of the set;
    # the estimate stays in a loose band around the true dimension
    pts, _ = cantor_endpoints(10)
    res = box_dimension(pts)
    assert abs(res.slope - LOG2_OVER_LOG3) < 0.12


def test_segment_dimension():
    pts = np.linspace(0.0, 1.0, 3000)[:, None]
    with pytest.warns(UserWarning):
        res = box_dimension(pts)
    assert abs(res.slope - 1.0) < 0.05


def test_square_dimension_with_saturation_exclusion():
    rng = np.random.default_rng(0)
    pts = rng.random((20000, 2))
    with pytest.warns(UserWarning):
        res = box_dimension(pts)
    assert abs(res.slope - 2.0) < 0.1
    # the fit window must stop before the saturated tail
    assert res.counts[res.window[1] - 1] < 0.9 * 20000


def test_result_invariants():
    rng = np.random.default_rng(2)
    with pytest.warns(UserWarning):
        res = box_dimension(rng.random((5000, 2)))
    assert np.all(np.diff(res.scales) < 0.0)
    # counts rise monotonically through the scaling regime; once saturated
    # (each point alone in its cell) non-nested grids may flip whether a
    # near-coincident pair shares a cell, so allow single-cell wobble there
    assert np.all(np.diff(res.counts[:res.window[1]]) >= 0)
    assert np.all(np.diff(res.counts) >= -2)
    assert res.slope >= 0.0
    assert 0.0 <= res.r2 <= 1.0
    start, stop = res.window
    assert 0 <= start < stop <= res.scales.size
    assert stop - start >= 4
    assert np.isfinite(res.intercept)


def signed_zero_clouds():
    rng = np.random.default_rng(5)
    grid = rng.integers(-2, 3, size=(400, 3)) * 0.5
    # a zero coordinate of either sign: np.unique counts the two as one
    signs = np.where(rng.random(grid.shape) < 0.5, -1.0, 1.0)
    yield grid * signs
    yield np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0],
                    [-0.0, -0.0], [0.0, 0.0], [2.0, 2.0], [2.0, 2.0]])
    dup = rng.random((300, 2))
    yield np.concatenate([dup, dup[::3], -dup[::7]])
    yield rng.random((1, 4))
    yield np.zeros((5, 1))


def test_distinct_rows_count_as_np_unique_counts_them():
    for pts in signed_zero_clouds():
        assert geometry._distinct_rows(pts) == \
            np.unique(pts, axis=0).shape[0]


def test_distinct_rows_sorts_one_column_before_it_lexsorts(monkeypatch):
    # a sorted first column with no equal neighbours counts every row at
    # once; a tie there, -0.0 beside 0.0 included, goes to the lexsort
    rng = np.random.default_rng(8)
    distinct = rng.normal(size=(500, 3))
    tied = distinct.copy()
    tied[7, 0] = tied[3, 0]                 # rows still distinct
    signed = distinct.copy()
    signed[[10, 20], 0] = [-0.0, 0.0]       # rows still distinct
    merged = signed.copy()
    merged[20] = [0.0, *merged[10, 1:]]     # rows 10 and 20: one row
    clouds = [(distinct, False), (tied, True), (signed, True),
              (merged, True), (np.concatenate([distinct, distinct[:9]]), True)]
    counts = [np.unique(pts, axis=0).shape[0] for pts, _ in clouds]
    assert counts == [500, 500, 500, 499, 500]
    lexsort, calls = np.lexsort, []

    def counting_lexsort(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    for (pts, ties), count in zip(clouds, counts):
        calls.clear()
        assert geometry._distinct_rows(pts) == count
        assert bool(calls) == ties


def test_box_dimension_counts_match_box_count():
    # the scale ladder shares its counter with box_count, also on the
    # closed-cell boundary path: half the points sit on grid lines
    rng = np.random.default_rng(9)
    pts = np.concatenate([np.round(rng.random((500, 2)) * 64) / 64,
                          rng.random((500, 2))])
    with pytest.warns(UserWarning):
        res = box_dimension(pts, eps_max=0.25, eps_min=1 / 256, levels=7)
    npt.assert_array_equal(res.counts,
                           [box_count(pts, e) for e in res.scales])


def reference_count(pts, eps):
    """``box_count`` in one pass over every row: the interior points'
    cells as a set of index tuples, then the points on grid lines swept in
    lexicographic order, each joining an occupied adjacent closed cell
    where there is one and taking its last candidate cell otherwise."""
    mins = pts.min(axis=0)
    upper = np.floor((pts.max(axis=0) - mins) / eps)
    u = (pts - mins) / eps
    nearest = np.round(u)
    on_line = np.abs(u - nearest) <= geometry._SNAP_TOL * (1.0 + np.abs(u))
    idx = np.clip(np.floor(u), 0.0, upper).astype(np.int64)
    occupied = {tuple(row) for row in idx[~on_line.any(axis=1)].tolist()}
    added = set()
    for row in np.lexsort(u.T[::-1]):
        if not on_line[row].any():
            continue
        cells = [(int(i),) for i in idx[row]]
        for ax in np.flatnonzero(on_line[row]):
            line = nearest[row, ax]
            cells[ax] = tuple(sorted({int(np.clip(line - 1, 0, upper[ax])),
                                      int(np.clip(line, 0, upper[ax]))}))
        candidates = list(itertools.product(*cells))
        if not any(c in occupied or c in added for c in candidates):
            added.add(candidates[-1])
    return len(occupied) + len(added)


CHUNK = geometry._CHUNK_ROWS


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_count_matches_a_one_pass_count(n):
    # clouds of one chunk less a row, one chunk, one chunk and a row, and
    # three chunks and five rows, with a third of the points on grid lines
    # of the dyadic scales, so boundary rows fall in every chunk
    rng = np.random.default_rng(12)
    pts = rng.random((n, 3))
    pts[::3] = np.round(pts[::3] * 32) / 32
    pts[:2] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]       # the grid's corners
    mins, spans = geometry._bounds(pts)
    scales = [1 / 4, 1 / 16, 1 / 64]
    assert ([geometry._count_cells(pts, mins, spans, e) for e in scales]
            == [box_count(pts, e) for e in scales]
            == [reference_count(pts, e) for e in scales])


def test_box_dimension_holds_little_beside_its_cloud():
    # cell keys and grid-line masks are built in passes over _CHUNK_ROWS
    # rows, one column at a time, and only the boundary rows get their
    # full coordinates: the traced peak of a 3-d cloud was 4.5 times the
    # cloud's bytes, then 1.8 with (n,) work arrays, and 0.62 on a cloud of
    # ten chunks in passes of fixed rows
    rng = np.random.default_rng(4)
    for n, bound in ((20000, 3.0), (10 * CHUNK + 1, 0.8)):
        pts = rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="saturated"):
                box_dimension(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * pts.nbytes


def test_box_dimension_levels_are_bounded():
    # the bound is checked before the ladder is built, so 10^8 levels fail
    # at once rather than after an 800 MB ladder and its window search
    pts = np.linspace(0.0, 1.0, 5001)[:, None]
    assert geometry.MAX_LEVELS == 64
    res = box_dimension(pts, eps_max=0.5, eps_min=0.01, levels=64)
    assert len(res.scales) == 64 and abs(res.slope - 1.0) < 0.05
    for levels in (65, 10 ** 8):
        with pytest.raises(ConfigError, match=r"levels must lie in \[4, 64\]"):
            box_dimension(pts, levels=levels)


def test_box_dimension_with_no_fit_window_is_degenerate():
    # ten points saturate 11 of the 12 scales, which leaves fewer than the
    # four a fit window needs
    pts = np.random.default_rng(0).uniform(size=(10, 2))
    with pytest.warns(UserWarning, match="11 smallest scale"), pytest.raises(
            DegenerateFitError, match="no scale window with varying counts"):
        box_dimension(pts)


def test_box_dimension_validation():
    pts = np.linspace(0.0, 1.0, 50)[:, None]
    with pytest.raises(ConfigError):
        box_dimension(pts, eps_max=0.1, eps_min=0.2)
    with pytest.raises(ConfigError):
        box_dimension(pts, eps_max=0.2, eps_min=0.1, levels=3)
    # a non-finite scale is refused before the ladder is built
    with pytest.raises(ConfigError, match="finite"):
        box_dimension(pts, eps_max=np.inf, eps_min=1.0)
    # a cloud of points with no coordinate
    with pytest.raises(ConfigError, match=r"\(50, 0\)"):
        box_dimension(pts[:, :0])
    with pytest.raises(DegenerateFitError):
        box_dimension(np.zeros((10, 2)))
    # two close points in a wide scale range: every scale sees one cell
    with pytest.raises(DegenerateFitError):
        box_dimension(np.array([[0.1], [0.100001]]),
                      eps_max=1.0, eps_min=0.5, levels=4)
