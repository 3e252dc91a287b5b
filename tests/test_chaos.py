"""Tests for Lyapunov spectra, attractor classification, and stability criteria."""

import math
import re
import tracemalloc
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import chaos
from fracdyn.chaos import (
    TANGENT_HISTORIES,
    classify_attractor,
    dimension_instability_check,
    kaplan_yorke,
    lyapunov_spectrum,
    matignon_stability,
    stability_report,
)
from fracdyn.cli import _CASES, _stability_doc
from fracdyn.errors import ConfigError, NonConvergenceError
from fracdyn.solvers import SolverConfig, SystemSpec, gl_weights, solve
from fracdyn.systems import BENCHMARK_NAMES, make_system


def linear_system(mat, name="linear"):
    a = np.asarray(mat, dtype=float)
    return SystemSpec(
        name=name,
        dim=a.shape[0],
        field=lambda t, x: a @ x,
        jacobian=lambda t, x: a,
    )


# ---------------------------------------------------------------- kaplan_yorke

def test_kaplan_yorke_two_exponent_interpolation():
    d = kaplan_yorke((0.143, -0.245))
    assert abs(d - (1.0 + 0.143 / 0.245)) < 1e-12
    assert abs(d - 1.5837) < 1e-4


def test_kaplan_yorke_no_expanding_direction():
    assert kaplan_yorke((-1.0, -2.0)) == 0.0


def test_kaplan_yorke_direct_formula():
    assert kaplan_yorke((1.0, 0.0, -2.0)) == 2.5


def test_kaplan_yorke_all_partial_sums_nonnegative():
    # every partial sum >= 0 -> full phase-space dimension
    assert kaplan_yorke((1.0, -0.5)) == 2.0
    assert kaplan_yorke((0.0,)) == 1.0


def test_kaplan_yorke_classic_triple():
    lam = (0.906, 0.0, -14.572)
    d = kaplan_yorke(lam)
    assert abs(d - (2.0 + 0.906 / 14.572)) < 1e-12


def test_kaplan_yorke_rejects_empty_and_unsorted():
    with pytest.raises(ValueError):
        kaplan_yorke(())
    with pytest.raises(ValueError):
        kaplan_yorke((-1.0, 0.5))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6))
def test_kaplan_yorke_bounds_and_scale_invariance(vals):
    lam = np.sort(np.asarray(vals))[::-1]
    d = kaplan_yorke(lam)
    assert 0.0 <= d <= lam.size
    scaled = kaplan_yorke(lam * 3.7)
    assert abs(d - scaled) < 1e-10


# ---------------------------------------------------------- classify_attractor

def test_classify_sign_patterns():
    assert classify_attractor((0.9, 0.0015, -14.6)) == "strange"
    assert classify_attractor((-0.5, -1.0)) == "fixed_point"
    assert classify_attractor((0.001, -0.3)) == "limit_cycle"
    assert classify_attractor((0.005, 0.005)) == "undetermined"


def test_classify_accepts_result_like_object():
    fake = types.SimpleNamespace(exponents=np.array([-0.2, -1.0]))
    assert classify_attractor(fake) == "fixed_point"


def test_classify_zero_tol_sensitivity(monkeypatch):
    # an exponent within chaos._ZERO_TOL = 0.01 of 0 is neutral
    lam = (0.05, -0.5)
    assert classify_attractor(lam) == "strange"
    assert classify_attractor((0.01, -0.5)) == "limit_cycle"
    assert classify_attractor((-0.01, -0.5)) == "limit_cycle"
    assert classify_attractor((0.0101, -0.5)) == "strange"
    assert classify_attractor((0.0101, -0.01)) == "undetermined"
    monkeypatch.setattr(chaos, "_ZERO_TOL", 0.1)
    assert classify_attractor(lam) == "limit_cycle"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_attractor(())


# --------------------------------------------------------- matignon_stability

def test_matignon_negative_real_axis_always_stable():
    for alpha in (0.1, 0.5, 0.9, 1.0):
        res = matignon_stability([-1.0], alpha)
        assert res.stable
        assert res.margins[0] == pytest.approx(math.pi - alpha * math.pi / 2)


def test_matignon_positive_real_axis_always_unstable():
    for alpha in (0.1, 0.5, 1.0):
        res = matignon_stability([1.0], alpha)
        assert not res.stable
        assert res.margins[0] < 0.0


def test_matignon_sector_boundary_case():
    # |arg(0.1 + 1j)| = 1.47113 sits between the alpha = 0.9 threshold
    # (1.41372) and the alpha = 1 threshold (pi/2): stable only at 0.9.
    lam = [0.1 + 1.0j, 0.1 - 1.0j]
    res9 = matignon_stability(lam, 0.9)
    assert res9.stable
    npt.assert_allclose(res9.margins,
                        math.atan2(1.0, 0.1) - 0.45 * math.pi, rtol=1e-12)
    res1 = matignon_stability(lam, 1.0)
    assert not res1.stable
    assert np.all(res1.margins < 0.0)


def test_matignon_zero_eigenvalue_marginal_with_warning():
    with pytest.warns(UserWarning, match="^1 zero eigenvalue"):
        res = matignon_stability([0.0, -1.0], 0.8)
    assert res.stable  # verdict from the non-marginal part only


def test_matignon_classical_limit_matches_real_part_rule():
    rng = np.random.default_rng(7)
    lam = rng.normal(size=60) + 1j * rng.normal(size=60)
    lam = lam[np.abs(lam.real) > 1e-12]
    res = matignon_stability(lam, 1.0)
    for margin, ev in zip(res.margins, lam):
        assert (margin > 0.0) == (ev.real < 0.0)


def test_matignon_conjugate_symmetry_and_order():
    lam = np.array([2.0 + 3.0j, 2.0 - 3.0j, -1.0])
    res = matignon_stability(lam, 0.7)
    assert res.margins.shape == (3,)
    assert res.margins[0] == pytest.approx(res.margins[1])


def test_matignon_alpha_validation():
    with pytest.raises(ConfigError):
        matignon_stability([-1.0], 0.0)
    with pytest.raises(ConfigError):
        matignon_stability([-1.0], 1.5)


# --------------------------------------------- dimension_instability_check

def test_dimension_instability_examples():
    assert dimension_instability_check(2.07, 3)
    assert not dimension_instability_check(1.58, 3)
    assert not dimension_instability_check(0.0, 1)
    assert dimension_instability_check(1.2, 2)


def test_dimension_instability_validation():
    with pytest.raises(ValueError):
        dimension_instability_check(-0.1, 3)
    with pytest.raises(ValueError):
        dimension_instability_check(1.0, 0)


# ------------------------------------------------------------ stability_report

def test_stability_report_lorenz_fractional_stabilization():
    system = make_system("lorenz")
    rep9 = stability_report(system, 0.9)
    assert len(rep9) == 3
    by_norm = sorted(rep9, key=lambda a: np.linalg.norm(a.equilibrium.point))
    origin, w1, w2 = by_norm
    assert np.linalg.norm(origin.equilibrium.point) < 1e-8
    # origin has a positive real eigenvalue: unstable at every order
    assert origin.classification == "unstable"
    # the wing pair has |arg| = 1.5616 > 0.45*pi: stable at 0.9 ...
    assert w1.classification == w2.classification == "stable"
    # ... but not at order 1 (1.5616 < pi/2)
    rep1 = stability_report(system, 1.0)
    wings1 = sorted(rep1,
                    key=lambda a: np.linalg.norm(a.equilibrium.point))[1:]
    assert all(a.classification == "unstable" for a in wings1)


def test_stability_report_carries_margins_and_critical_order():
    system = make_system("lorenz")
    rep = stability_report(system, 0.05)
    assert all(a.margins.shape == (3,) for a in rep)
    origin, *wings = sorted(rep,
                            key=lambda a: np.linalg.norm(a.equilibrium.point))
    # the origin is a real saddle: alpha* = 0, unstable at every order
    assert origin.alpha_star == 0.0 and not origin.saddle_focus
    assert all(a.saddle_focus for a in wings)
    # stable at 0.05, far below alpha*
    assert all(a.classification == "stable" for a in wings)


def scaled(system, k):
    """``system`` with field and Jacobian times ``k``: time in units 1/k."""
    return SystemSpec(
        name=system.name, dim=system.dim, params=system.params,
        observables=system.observables,
        field=lambda t, x: k * np.asarray(system.field(t, x)),
        jacobian=lambda t, x: k * np.asarray(system.jacobian(t, x)))


@pytest.mark.parametrize("name, expected", [
    ("lorenz", 0.9941), ("chen", 0.8244), ("rossler", 0.9381)])
def test_alpha_star_is_the_argument_of_the_unstable_pair(name, expected):
    rep = stability_report(make_system(name), 1.0)
    foci = [a for a in rep if a.saddle_focus]
    assert foci
    for a in foci:
        mu = a.equilibrium.eigenvalues[0]    # sorted by descending Re
        assert mu.real > 0.0
        ref = 2.0 / math.pi * math.atan(abs(mu.imag) / mu.real)
        assert abs(a.alpha_star - ref) <= 1e-12
        assert round(a.alpha_star, 4) == expected


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_stable_iff_alpha_below_alpha_star(name):
    system = make_system(name)
    for alpha in (0.5, 0.9, 0.95, 0.995, 1.0):
        rep = stability_report(system, alpha)
        assert rep
        for a in rep:
            assert (a.classification == "stable") == (alpha < a.alpha_star)


@pytest.mark.parametrize("name", ["lorenz", "rossler"])
@pytest.mark.parametrize("k", [0.1, 10.0])
def test_stability_verdicts_do_not_depend_on_the_time_unit(name, k):
    # rescaling time multiplies every eigenvalue by k; arguments, and so
    # alpha*, the saddle-focus test and the sector test, stay put
    system = make_system(name)
    alpha = float(system.params["default_alpha"])

    def assessed(sys_):
        return sorted(stability_report(sys_, alpha),
                      key=lambda a: tuple(a.equilibrium.point))

    gots, refs = assessed(scaled(system, k)), assessed(system)
    assert len(gots) == len(refs)
    for got, ref in zip(gots, refs):
        npt.assert_allclose(got.equilibrium.point, ref.equilibrium.point,
                            atol=1e-9)
        assert abs(got.alpha_star - ref.alpha_star) <= 1e-12
        assert got.saddle_focus == ref.saddle_focus
        assert got.classification == ref.classification
    assert (_stability_doc(scaled(system, k), alpha)["criteria"]
            == _stability_doc(system, alpha)["criteria"])


@pytest.mark.parametrize("case, expected", [(1, True), (4, False)])
def test_saddle_focus_condition_on_documented_cases(case, expected):
    # case 1 runs Lorenz 0.0009 above its wings' alpha*; case 4 runs
    # Rossler below its inner focus's, where the focus is stable
    system = make_system(_CASES[case]["system"])
    doc = _stability_doc(system, float(system.params["default_alpha"]))
    assert doc["criteria"] == {"saddle_focus_unstable": expected}


# ------------------------------------------------------------ lyapunov_spectrum

def test_lyapunov_scalar_contraction_rate():
    system = linear_system([[-1.0]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=20.0, x0=np.array([1.0]))
    res = lyapunov_spectrum(system, cfg, renorm_every=10)
    assert abs(res.exponents[0] + 1.0) < 0.05
    assert res.converged
    assert res.d_ky == 0.0


@pytest.mark.parametrize("transient, n_estimates", [(None, 3), (1.6, 1)])
def test_lyapunov_few_estimates_are_not_converged(transient, n_estimates):
    # four blocks of 0.5 time units: a quarter of three estimates is none,
    # yet the drift is still measured over the last two; one estimate has
    # no drift at all
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.995, h=0.005, t_end=2.0,
                       x0=system.params["default_x0"])
    res = lyapunov_spectrum(system, cfg, renorm_every=100,
                            transient=transient)
    assert len(res.history) == n_estimates
    lam1 = res.history[:, np.argmax(res.history[-1])]
    assert res.drift == np.max(np.abs(lam1[-2:] - lam1[-1]))
    assert not res.converged
    if n_estimates > 1:
        assert res.drift > chaos._DRIFT_TOL


def test_lyapunov_spiral_pair():
    # dx = (-0.5 +- i) x: both exponents equal the real part
    system = linear_system([[-0.5, 1.0], [-1.0, -0.5]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=40.0,
                       x0=np.array([1.0, 0.0]))
    res = lyapunov_spectrum(system, cfg, renorm_every=10)
    npt.assert_allclose(res.exponents, [-0.5, -0.5], atol=0.05)
    assert classify_attractor(res) == "fixed_point"


def test_lyapunov_seed_frame_invariance():
    # A's tangent flow seeded by an orthogonal Q is Q times the flow of
    # Q^T A Q seeded by I, with the same R factors: the spectrum of the
    # rotated system is A's spectrum from the seed frame Q
    a = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=40.0,
                       x0=np.array([1.0, 0.0]))
    ref = lyapunov_spectrum(linear_system(a), cfg).exponents
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.normal(size=(2, 2)))
        q *= np.sign(np.diag(r))
        res = lyapunov_spectrum(linear_system(q.T @ a @ q), cfg)
        npt.assert_allclose(res.exponents, ref, atol=0.02)


def test_lyapunov_lorenz_classical_reduced():
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=1.0, h=0.005, t_end=100.0,
                       x0=np.array([1.0, 1.0, 1.0]))
    res = lyapunov_spectrum(system, cfg, renorm_every=10)
    lam = res.exponents
    assert 0.6 < lam[0] < 1.2
    assert abs(lam[1]) < 0.05
    assert -16.0 < lam[2] < -13.0
    # exponent sum tracks the (constant) divergence of the flow
    assert abs(lam.sum() + 41.0 / 3.0) / (41.0 / 3.0) < 0.1
    assert classify_attractor(res) == "strange"
    assert 2.0 < res.d_ky < 3.0


def test_lyapunov_history_and_determinism():
    system = linear_system([[-1.0]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=10.0, x0=np.array([1.0]))
    r1 = lyapunov_spectrum(system, cfg, renorm_every=10)
    r2 = lyapunov_spectrum(system, cfg, renorm_every=10)
    npt.assert_array_equal(r1.exponents, r2.exponents)
    n_blocks = cfg.n_steps // 10
    kept = n_blocks - int(round(r1.transient_discarded / (0.01 * 10)))
    assert r1.history.shape == (kept, 1)
    assert r1.d_ky == kaplan_yorke(r1.exponents)
    assert np.all(np.diff(r1.exponents) <= 0.0)


def test_lyapunov_explicit_base_trajectory_matches():
    system = linear_system([[-0.5, 1.0], [-1.0, -0.5]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=20.0,
                       x0=np.array([1.0, 0.0]))
    base = solve(system, cfg)
    direct = lyapunov_spectrum(system, cfg)
    supplied = lyapunov_spectrum(system, cfg, base_trajectory=base)
    npt.assert_array_equal(direct.exponents, supplied.exponents)


def naive_tangent_history(system, cfg, base, renorm_every, tangent_history):
    """The tangent loop of ``lyapunov_spectrum`` with every history sum a
    direct dot over every lag and the push-through applied to every
    row."""
    n_steps, h, alpha, dim = cfg.n_steps, cfg.h, cfg.alpha, system.dim
    rows = list(system.observables or range(dim))
    n_blocks = n_steps // renorm_every
    skip = math.ceil(0.2 * (cfg.t_end - cfg.t0) / (h * renorm_every))
    c = gl_weights(alpha, n_steps + 1)
    dev = np.zeros((n_steps + 1, dim, len(rows)))
    v_base = v_prev = np.eye(dim)[:, rows]
    logs, history, s, i = np.zeros(len(rows)), [], 0, 0
    for block in range(n_blocks):
        for _ in range(renorm_every):
            s, i = s + 1, i + 1
            d = h ** alpha * (system.jacobian(base.t[s - 1], base.x[s - 1])
                              @ v_prev)
            d -= np.tensordot(c[1:i][::-1], dev[1:i], axes=1)
            dev[i] = d
            v_prev = v_base + d
        q, r = np.linalg.qr(v_prev[rows])
        diag = np.diag(r).copy()
        rinv = np.linalg.inv(r * np.sign(diag)[:, None])
        v_prev = v_prev @ rinv
        if tangent_history == "exact":
            v_base = v_base @ rinv
            dev[:i + 1] = dev[:i + 1] @ rinv
        else:
            v_base, i = v_prev, 0
        if block >= skip:
            logs += np.log(np.abs(diag))
            history.append(logs / ((block - skip + 1) * renorm_every * h))
    return np.array(history)


@pytest.mark.parametrize("tangent_history, renorm_every, rows", [
    ("exact", 10, 4096), ("restart", 10, 4096), ("exact", 64, 4096),
    ("exact", 10, 128), ("exact", 10, 448)],
    ids=["exact", "restart", "exact-push-at-every-fold",
         "exact-three-slides", "exact-slide-near-the-end"])
def test_lyapunov_long_stretch_matches_direct_sum(tangent_history,
                                                  renorm_every, rows,
                                                  monkeypatch):
    # 500 steps: the exact tangent history reaches its far part, decaying
    # states updated once per BASE rows, and pushes every QR factor
    # through them and the far sums they have put in the rows ahead; with
    # 64-step blocks every push lands on a step where the far part folds
    # a block into its states; with ROWS = 128 the history slides to the
    # front of its buffer three times, and with ROWS = 448 once, 52 steps
    # before the end
    monkeypatch.setattr(chaos, "ROWS", rows)
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.95, h=0.01, t_end=5.0,
                       x0=system.params["default_x0"])
    base = solve(system, cfg)
    got = lyapunov_spectrum(system, cfg, renorm_every=renorm_every,
                            tangent_history=tangent_history,
                            base_trajectory=base).history
    ref = naive_tangent_history(system, cfg, base, renorm_every,
                                tangent_history)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_exact_flow_holds_one_chunk_of_tangent_history():
    # the tangent history holds ROWS + 2 BASE + 1 rows, not N + 1; beside
    # it stand one chunk's Jacobians, the far part's block matrix and the
    # (n_blocks, m) stretches.  At 20 000 steps the traced peak is 1.24 MB
    # (2.41 MB with the whole history held, 1.30 MB with one small array
    # of stretches per block); the bound leaves a 20% margin
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.995, h=0.005, t_end=100.0,
                       x0=system.params["default_x0"])
    assert cfg.n_steps == 20000
    base = solve(system, cfg)
    tracemalloc.start()
    try:
        lyapunov_spectrum(system, cfg, renorm_every=20,
                          tangent_history="exact", base_trajectory=base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.49e6


def test_lyapunov_alpha_one_restarts_history_at_every_block():
    # at alpha = 1 the history is one lag, so a restart at every block is
    # exact; the exact convention must give the same bits, since a
    # push-through over many blocks drifts or collapses the frame
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=1.0, h=0.005, t_end=20.0,
                       x0=system.params["default_x0"])
    base = solve(system, cfg)
    restart, exact = [lyapunov_spectrum(system, cfg, renorm_every=10,
                                        tangent_history=convention,
                                        base_trajectory=base).history
                      for convention in ("restart", "exact")]
    npt.assert_array_equal(exact, restart)


class ReferenceQRChain:
    """``chaos._QRChain`` with R from QR in mode "r", recording each
    block's stretches in a list."""

    def __init__(self, rows, n_blocks):
        self.rows = rows
        self.diags = []

    def __call__(self, v, t):
        r = np.linalg.qr(v[self.rows], mode="r")
        diag = r.diagonal().copy()
        if not all(1e-300 <= abs(d) < math.inf for d in diag.tolist()):
            raise NonConvergenceError(
                f"tangent frame collapsed at t = {t:.6g}")
        r *= np.sign(diag)[:, None]
        rinv = np.linalg.inv(r)
        self.diags.append(diag)
        return v @ rinv, rinv

    @property
    def stretches(self):
        return np.array(self.diags)


@pytest.mark.parametrize("tangent_history", chaos.TANGENT_HISTORIES)
@pytest.mark.parametrize("name,alpha,transient", [
    ("lorenz", 0.95, None), ("lorenz", 0.95, 0.0), ("chen", 0.9, None),
    ("duffing", 0.1, None)])
def test_qr_chain_matches_the_reference_chain_bit_for_bit(
        name, alpha, transient, tangent_history, monkeypatch):
    # the chain keeps mode "raw"'s R, and the spectrum sums the stored
    # stretches at the end; both give the bits of the reference's
    # stretches summed block by block into running estimates, before and
    # past the transient
    system = make_system(name)
    cfg = SolverConfig(alpha=alpha, h=0.005, t_end=6.0,
                       x0=system.params["default_x0"])
    base = solve(system, cfg)
    chains = []

    def reference_chain(rows, n_blocks):
        chains.append(ReferenceQRChain(rows, n_blocks))
        return chains[-1]

    def history():
        return lyapunov_spectrum(system, cfg, renorm_every=10,
                                 transient=transient,
                                 tangent_history=tangent_history,
                                 base_trajectory=base).history

    got = history()
    monkeypatch.setattr(chaos, "_QRChain", reference_chain)
    history()
    stretches = chains[0].stretches
    assert len(stretches) == 120
    skip = len(stretches) - len(got)
    logs = np.zeros(stretches.shape[1])
    ref = []
    for block, diag in enumerate(stretches[skip:], start=1):
        logs = logs + np.log(np.abs(diag))
        ref.append(logs / (block * 10 * cfg.h))
    # 120 blocks: all kept, or the first ones cut as transient
    assert (skip == 0) == (transient == 0.0)
    assert got.shape == (len(ref), stretches.shape[1])
    assert np.array_equal(got, np.array(ref))


class ScatterQRChain(chaos._QRChain):
    """``chaos._QRChain`` as it was before its masked multiply: it copies
    the observable rows by fancy index, scatters zeros below R's diagonal
    and multiplies by the signs of the diagonal."""

    def __init__(self, rows, n_blocks):
        super().__init__(rows, n_blocks)
        self.rows = np.array(rows)
        self._below = np.tril_indices(len(rows), -1)

    def __call__(self, v, t):
        r = np.linalg.qr(v[self.rows], mode="raw")[0].T
        diag = self.stretches[self.blocks]
        diag[:] = r.diagonal()
        if not all(1e-300 <= abs(d) < math.inf for d in diag.tolist()):
            raise NonConvergenceError(
                f"tangent frame collapsed at t = {t:.6g}")
        self.blocks += 1
        r[self._below] = 0.0
        r *= np.sign(diag)[:, None]
        rinv = np.linalg.inv(r)
        return v @ rinv, rinv


@pytest.mark.parametrize("dim,rows", [
    (3, [0, 1, 2]),        # every coordinate: the frame itself
    (4, [0, 1]),           # a leading slice of the coordinates
    (9, [0, 8]),           # Duffing's chain: x and the last chain state
])
def test_qr_chain_matches_the_scatter_chain_bit_for_bit(dim, rows):
    # seeded frames, each block's pushed on by a random near-identity map
    # as a tangent flow would; stretches, inverse factors and frames agree
    rng = np.random.default_rng(7)
    n_blocks = 400
    maps = np.eye(dim) + 0.3 * rng.standard_normal((n_blocks, dim, dim))
    chain = chaos._QRChain(rows, n_blocks)
    ref = ScatterQRChain(rows, n_blocks)
    v = w = np.eye(dim)[:, rows]
    for b, phi in enumerate(maps):
        (v, rinv), (w, ref_rinv) = chain(phi @ v, b), ref(phi @ w, b)
        assert np.array_equal(rinv, ref_rinv) and np.array_equal(v, w)
    assert np.array_equal(chain.stretches, ref.stretches)


def assert_restart_matches_direct_sum(system, cfg, renorm_every):
    base = solve(system, cfg)
    got = lyapunov_spectrum(system, cfg, renorm_every=renorm_every,
                            base_trajectory=base).history
    ref = naive_tangent_history(system, cfg, base, renorm_every, "restart")
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_restart_blocks_across_chunks_with_a_short_last_chunk(monkeypatch):
    # 6 blocks of 10 steps per chunk: 50 blocks are 8 chunks and one of 2
    monkeypatch.setattr(chaos, "ROWS", 64)
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.95, h=0.01, t_end=5.0,
                       x0=system.params["default_x0"])
    assert_restart_matches_direct_sum(system, cfg, 10)


@pytest.mark.parametrize("rows", [4096, 100])
def test_restart_blocks_run_the_far_part_in_the_batch(rows, monkeypatch):
    # 130-step blocks reach the far lags from BASE on, which a block's
    # full-memory kernel sums as decaying states; with ROWS = 100
    # every chunk is a single block
    monkeypatch.setattr(chaos, "ROWS", rows)
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.9, h=0.005, t_end=6.5,
                       x0=system.params["default_x0"])
    assert_restart_matches_direct_sum(system, cfg, 130)


def test_restart_blocks_with_a_memory_window_shorter_than_a_block():
    # a windowed base trajectory under a full-memory tangent flow would
    # measure neither system, so a window is refused under both conventions
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=5.0, memory_window=7,
                       x0=system.params["default_x0"])
    for tangent_history in TANGENT_HISTORIES:
        with pytest.raises(ConfigError, match="memory_window=7"):
            lyapunov_spectrum(system, cfg, renorm_every=20,
                              tangent_history=tangent_history)


def test_restart_blocks_on_the_observable_subframe(monkeypatch):
    # the Duffing chain: 2 observable columns of a 9-d frame
    monkeypatch.setattr(chaos, "ROWS", 128)
    system = make_system("duffing")
    x0 = np.zeros(9)
    x0[0] = 0.1
    cfg = SolverConfig(alpha=0.1, h=0.01, t_end=10.0, x0=x0)
    assert_restart_matches_direct_sum(system, cfg, 10)


def test_lyapunov_fractional_observable_subframe():
    system = make_system("duffing")
    x0 = np.zeros(9)
    x0[0] = 0.1
    cfg = SolverConfig(alpha=0.1, h=0.01, t_end=50.0, x0=x0)
    res = lyapunov_spectrum(system, cfg, renorm_every=10)
    assert res.exponents.shape == (2,)
    assert np.all(np.isfinite(res.exponents))
    assert res.history.shape[1] == 2


def test_lyapunov_long_memory_stretch_changes_estimate():
    # for alpha < 1 the two conventions measure different things: restart
    # gives finite-time exponents over one block, exact the variational
    # flow; both must be finite but differ
    system = make_system("duffing")
    x0 = np.zeros(9)
    x0[0] = 0.1
    cfg = SolverConfig(alpha=0.1, h=0.01, t_end=50.0, x0=x0)
    restart = lyapunov_spectrum(system, cfg, tangent_history="restart")
    exact = lyapunov_spectrum(system, cfg, tangent_history="exact")
    assert np.all(np.isfinite(exact.exponents))
    assert abs(restart.exponents[0] - exact.exponents[0]) > 0.5


def test_lyapunov_frame_collapse_raises():
    # h * 200 = 1 zeroes the one-step tangent map exactly
    system = linear_system([[-200.0]])
    cfg = SolverConfig(alpha=1.0, h=0.005, t_end=1.0, x0=np.array([1.0]))
    with pytest.raises(NonConvergenceError):
        lyapunov_spectrum(system, cfg, renorm_every=10)


def test_frame_collapse_in_a_later_chunk_names_its_block(monkeypatch):
    # the one-step map 1 + h * J is zero from t = 1 on; with 4 blocks per
    # chunk the collapse is in the sixth chunk, in the block that ends at
    # t = 1.05
    monkeypatch.setattr(chaos, "ROWS", 40)
    system = SystemSpec(
        name="switch", dim=1, field=lambda t, x: -x,
        jacobian=lambda t, x: np.where(t > 0.9975, -200.0,
                                       -1.0)[..., None, None])
    cfg = SolverConfig(alpha=1.0, h=0.005, t_end=2.0, x0=np.array([1.0]))
    with pytest.raises(NonConvergenceError, match=r"at t = 1\.05$"):
        lyapunov_spectrum(system, cfg, renorm_every=10)


@pytest.mark.parametrize("tangent_history", chaos.TANGENT_HISTORIES)
def test_jacobian_of_the_wrong_batch_shape_is_a_config_error(
        tangent_history):
    # one 2x2 matrix per state of a 1-d system cannot broadcast to
    # (n, 1, 1)
    system = SystemSpec(name="wrong", dim=1, field=lambda t, x: -x,
                        jacobian=lambda t, x: np.zeros(x.shape[:-1] + (2, 2)))
    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=1.0, x0=np.array([1.0]))
    with pytest.raises(ConfigError, match=r"shape \(100, 2, 2\)"):
        lyapunov_spectrum(system, cfg, tangent_history=tangent_history)


def test_lyapunov_validation_errors():
    system = linear_system([[-1.0]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=10.0, x0=np.array([1.0]))
    nojac = SystemSpec(name="bare", dim=1, field=lambda t, x: -x)
    with pytest.raises(ConfigError):
        lyapunov_spectrum(nojac, cfg)
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, renorm_every=0)
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, tangent_history="abc")
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, tangent_history=1)
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, transient=10.0)
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, transient=-1.0)
    short = SolverConfig(alpha=1.0, h=0.01, t_end=0.3, x0=np.array([1.0]))
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, short, renorm_every=10)
    other = SolverConfig(alpha=1.0, h=0.01, t_end=5.0, x0=np.array([1.0]))
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, base_trajectory=solve(system, other))
    # a base of the config's step count and scheme, but of another order,
    # step or start time
    settings = dict(alpha=1.0, h=0.01, t_end=10.0, x0=np.array([1.0]))
    for name, change in (("alpha", {"alpha": 0.8}),
                         ("h", {"h": 0.02, "t_end": 20.0}),
                         ("t[0]", {"t0": 1.0, "t_end": 11.0})):
        base = solve(system, SolverConfig(**{**settings, **change}))
        assert base.x.shape == (cfg.n_steps + 1, 1)
        with pytest.raises(ConfigError,
                           match=re.escape(f"base trajectory has {name} = ")):
            lyapunov_spectrum(system, cfg, base_trajectory=base)
    # the tangent frame linearizes the GL map, so another scheme's base is
    # refused, under either convention, before any solve
    abm = SolverConfig(alpha=0.9, h=0.01, t_end=10.0, x0=np.array([1.0]),
                       scheme="abm")
    gl = SolverConfig(alpha=0.9, h=0.01, t_end=10.0, x0=np.array([1.0]))
    abm_base = solve(system, abm)

    def no_solve(t, x):
        raise AssertionError("the base trajectory was solved")

    unsolvable = SystemSpec(name="unsolvable", dim=1, field=no_solve,
                            jacobian=system.jacobian)
    for tangent_history in TANGENT_HISTORIES:
        with pytest.raises(ConfigError, match="got scheme 'abm'"):
            lyapunov_spectrum(unsolvable, abm,
                              tangent_history=tangent_history)
        with pytest.raises(ConfigError, match="got scheme 'abm'"):
            lyapunov_spectrum(system, gl, tangent_history=tangent_history,
                              base_trajectory=abm_base)
