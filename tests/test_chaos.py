"""Tests for Lyapunov spectra, attractor classification, and stability criteria."""

import math
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import chaos
from fracdyn.chaos import (
    classify_attractor,
    dimension_instability_check,
    kaplan_yorke,
    lyapunov_spectrum,
    matignon_stability,
    spectral_chaos_criterion,
    stability_report,
)
from fracdyn.errors import ConfigError, NonConvergenceError
from fracdyn.solvers import SolverConfig, SystemSpec, gl_weights, solve
from fracdyn.systems import find_equilibria, make_system


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


def test_classify_zero_tol_sensitivity():
    lam = (0.05, -0.5)
    assert classify_attractor(lam, zero_tol=0.01) == "strange"
    assert classify_attractor(lam, zero_tol=0.1) == "limit_cycle"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_attractor(())
    with pytest.raises(ValueError):
        classify_attractor((1.0,), zero_tol=0.0)


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
    with pytest.warns(UserWarning):
        res = matignon_stability([0.0, -1.0], 0.8)
    assert res.marginal == (0,)
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


# --------------------------------------------------- spectral_chaos_criterion

def wing_eigenvalues():
    # closed-form characteristic polynomial of the symmetric pair of
    # off-origin equilibria of the Lorenz field at (10, 28, 8/3)
    return np.roots([1.0, 41.0 / 3.0, 8.0 / 3.0 * 38.0, 1440.0])


def test_spectral_criterion_threshold_scan():
    lam = wing_eigenvalues()
    seen = {}
    for alpha in (0.05, 0.5, 0.9, 1.0):
        res = spectral_chaos_criterion(lam, alpha)
        seen[alpha] = res.flag
        assert res.threshold == pytest.approx(alpha * math.pi / 2)
        assert res.sign_split  # the real eigenvalue is contracting
    # Re of the complex pair is ~0.094: above the 0.05 threshold (0.0785),
    # below all the others
    assert seen == {0.05: True, 0.5: False, 0.9: False, 1.0: False}


def test_spectral_criterion_witness_subset():
    res = spectral_chaos_criterion(wing_eigenvalues(), 0.05)
    assert res.witnesses.size == 2
    npt.assert_allclose(res.witnesses.real, 0.0940, atol=5e-4)


def test_spectral_criterion_all_contracting():
    res = spectral_chaos_criterion([-1.0, -2.0 + 1.0j], 0.5)
    assert not res.flag
    assert res.witnesses.size == 0


def test_spectral_criterion_accepts_equilibrium():
    system = make_system("lorenz")
    eqs = find_equilibria(system)
    wings = [e for e in eqs if abs(e.point[0]) > 1.0]
    assert len(wings) == 2
    res = spectral_chaos_criterion(wings[0], 0.05)
    assert res.flag


def test_spectral_criterion_alpha_validation():
    with pytest.raises(ConfigError):
        spectral_chaos_criterion([1.0], -0.3)


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
    assert rep9.alpha == 0.9
    assert len(rep9.equilibria) == 3
    by_norm = sorted(rep9.equilibria,
                     key=lambda a: np.linalg.norm(a.equilibrium.point))
    origin, w1, w2 = by_norm
    assert np.linalg.norm(origin.equilibrium.point) < 1e-8
    # origin has a positive real eigenvalue: unstable at every order
    assert origin.classification == "unstable"
    # the wing pair has |arg| = 1.5616 > 0.45*pi: stable at 0.9 ...
    assert w1.classification == w2.classification == "stable"
    # ... but not at order 1 (1.5616 < pi/2)
    rep1 = stability_report(system, 1.0)
    wings1 = sorted(rep1.equilibria,
                    key=lambda a: np.linalg.norm(a.equilibrium.point))[1:]
    assert all(a.classification == "unstable" for a in wings1)


def test_stability_report_carries_margins_and_spectral():
    system = make_system("lorenz")
    rep = stability_report(system, 0.05)
    wings = [a for a in rep.equilibria
             if np.linalg.norm(a.equilibrium.point) > 1.0]
    assert all(a.spectral.flag for a in wings)
    assert all(a.margins.shape == (3,) for a in rep.equilibria)


# ------------------------------------------------------------ lyapunov_spectrum

def test_lyapunov_scalar_contraction_rate():
    system = linear_system([[-1.0]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=20.0, x0=np.array([1.0]))
    res = lyapunov_spectrum(system, cfg, renorm_every=10)
    assert abs(res.exponents[0] + 1.0) < 0.05
    assert res.converged
    assert res.d_ky == 0.0
    assert res.system_name == "linear"
    assert res.alpha == 1.0


def test_lyapunov_spiral_pair():
    # dx = (-0.5 +- i) x: both exponents equal the real part
    system = linear_system([[-0.5, 1.0], [-1.0, -0.5]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=40.0,
                       x0=np.array([1.0, 0.0]))
    res = lyapunov_spectrum(system, cfg, renorm_every=10)
    npt.assert_allclose(res.exponents, [-0.5, -0.5], atol=0.05)
    assert classify_attractor(res) == "fixed_point"


def test_lyapunov_seed_frame_invariance():
    system = linear_system([[-0.5, 1.0], [-1.0, -0.5]])
    cfg = SolverConfig(alpha=1.0, h=0.01, t_end=40.0,
                       x0=np.array([1.0, 0.0]))
    out = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.normal(size=(2, 2)))
        q *= np.sign(np.diag(r))
        res = lyapunov_spectrum(system, cfg, tangent_seed=q)
        out.append(res.exponents)
    npt.assert_allclose(out[0], out[1], atol=0.02)


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
    direct dot over the lags of the memory window and the push-through
    applied to every row."""
    n_steps, h, alpha, dim = cfg.n_steps, cfg.h, cfg.alpha, system.dim
    window = cfg.memory_window or n_steps
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
            lo = max(1, i - window)
            d -= np.tensordot(c[1:i - lo + 1][::-1], dev[lo:i], axes=1)
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


@pytest.mark.parametrize("tangent_history", ["exact", "restart"])
def test_lyapunov_long_stretch_matches_direct_sum(tangent_history):
    # 500 steps: the exact tangent history reaches the 64..256-row FFT
    # tiles, and pushes every QR factor through their pending sums
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.95, h=0.01, t_end=5.0,
                       x0=system.params["default_x0"])
    base = solve(system, cfg)
    got = lyapunov_spectrum(system, cfg, renorm_every=10,
                            tangent_history=tangent_history,
                            base_trajectory=base).history
    ref = naive_tangent_history(system, cfg, base, 10, tangent_history)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


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
    """``chaos._QRChain`` with R from QR in mode "r", and the log
    stretches summed block by block into running estimates."""

    def __init__(self, rows, skip_blocks, renorm_every, h):
        self.rows = rows
        self.skip_blocks = skip_blocks
        self.renorm_every = renorm_every
        self.h = h
        self.block = 0
        self.logs = np.zeros(len(rows))
        self.estimates = []

    def __call__(self, v, t):
        r = np.linalg.qr(v[self.rows], mode="r")
        diag = r.diagonal().copy()
        if not all(1e-300 <= abs(d) < math.inf for d in diag.tolist()):
            raise NonConvergenceError(
                f"tangent frame collapsed at t = {t:.6g}")
        r *= np.sign(diag)[:, None]
        rinv = np.linalg.inv(r)
        if self.block >= self.skip_blocks:
            self.logs += np.log(np.abs(diag))
            elapsed = ((self.block - self.skip_blocks + 1)
                       * self.renorm_every * self.h)
            self.estimates.append(self.logs / elapsed)
        self.block += 1
        return v @ rinv, rinv

    @property
    def history(self):
        return np.array(self.estimates)


@pytest.mark.parametrize("tangent_history", chaos.TANGENT_HISTORIES)
@pytest.mark.parametrize("name,alpha,transient", [
    ("lorenz", 0.95, None), ("lorenz", 0.95, 0.0), ("chen", 0.9, None),
    ("duffing", 0.1, None)])
def test_qr_chain_matches_the_reference_chain_bit_for_bit(
        name, alpha, transient, tangent_history, monkeypatch):
    # the chain keeps mode "raw"'s R and sums the stored stretches at the
    # end; both give the reference's bits, before and past the transient
    system = make_system(name)
    cfg = SolverConfig(alpha=alpha, h=0.005, t_end=6.0,
                       x0=system.params["default_x0"])
    base = solve(system, cfg)

    def history():
        return lyapunov_spectrum(system, cfg, renorm_every=10,
                                 transient=transient,
                                 tangent_history=tangent_history,
                                 base_trajectory=base).history

    got = history()
    monkeypatch.setattr(chaos, "_QRChain", ReferenceQRChain)
    ref = history()
    assert got.shape == ref.shape
    # 120 blocks: all kept, or the first ones cut as transient
    assert (len(got) == 120) == (transient == 0.0)
    assert np.array_equal(got, ref)


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
def test_restart_blocks_run_fft_tiles_in_the_batch(rows, monkeypatch):
    # 130-step blocks reach the 64- and 128-lag FFT tiles; with ROWS = 100
    # every chunk is a single block
    monkeypatch.setattr(chaos, "ROWS", rows)
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.9, h=0.005, t_end=6.5,
                       x0=system.params["default_x0"])
    assert_restart_matches_direct_sum(system, cfg, 130)


def test_restart_blocks_with_a_memory_window_shorter_than_a_block():
    system = make_system("lorenz")
    cfg = SolverConfig(alpha=0.9, h=0.01, t_end=5.0, memory_window=7,
                       x0=system.params["default_x0"])
    assert_restart_matches_direct_sum(system, cfg, 20)


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
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, tangent_seed=np.ones((2, 2)))
    other = SolverConfig(alpha=1.0, h=0.01, t_end=5.0, x0=np.array([1.0]))
    with pytest.raises(ConfigError):
        lyapunov_spectrum(system, cfg, base_trajectory=solve(system, other))
