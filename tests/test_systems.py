"""Tests for the benchmark-system catalog and equilibrium analysis."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracdyn.errors import ConfigError
from fracdyn.solvers import SystemSpec
from fracdyn.systems import (
    BENCHMARK_NAMES,
    BenchmarkId,
    chua_nonlinearity,
    default_guesses,
    find_equilibria,
    jacobian_eigenvalues,
    make_system,
)


def fd_jacobian(field, t, x, h=1e-6):
    """Central-difference Jacobian, the independent check for analytic ones."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.zeros((len(field(t, x)), n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (np.asarray(field(t, xp)) - np.asarray(field(t, xm))) / (2 * h)
    return out


def cubic_roots(c2, c1, c0):
    """Roots of x^3 + c2 x^2 + c1 x + c0 via the companion-matrix solver."""
    r = np.roots([1.0, c2, c1, c0])
    return r[np.lexsort((-r.imag, -r.real))]


# -- field spot values --------------------------------------------------


def test_lorenz_field_spot_value():
    sys_ = make_system("lorenz")
    assert_allclose(sys_.field(0.0, np.array([1.0, 1.0, 1.0])),
                    [0.0, 26.0, -5.0 / 3.0], rtol=0, atol=1e-14)


def test_rossler_field_at_origin():
    sys_ = make_system("rossler")
    assert_allclose(sys_.field(0.0, np.zeros(3)), [0.0, 0.0, 0.2],
                    rtol=0, atol=1e-15)


def test_chua_nonlinearity_values():
    assert chua_nonlinearity(0.0) == 0.0
    assert abs(chua_nonlinearity(2.0) - (-1.95)) < 1e-14
    # odd symmetry of the diode curve
    for x in (0.3, 0.999, 1.0, 1.5, 7.0):
        assert abs(chua_nonlinearity(-x) + chua_nonlinearity(x)) < 1e-14


def test_chen_field_at_one_one_one():
    sys_ = make_system("chen")
    # a(y-x)=0, (c-a)x - xz + cy = -7 - 1 + 28 = 20, xy - bz = 1 - 3 = -2
    assert_allclose(sys_.field(0.0, np.ones(3)), [0.0, 20.0, -2.0],
                    rtol=0, atol=1e-13)


# -- equilibria against closed forms ------------------------------------


def test_lorenz_equilibria_closed_form():
    sys_ = make_system("lorenz")
    eqs = find_equilibria(sys_)
    assert len(eqs) == 3
    pts = sorted((e.point for e in eqs), key=lambda p: p[0])
    w = np.sqrt(72.0)  # sqrt(beta*(rho-1))
    assert_allclose(pts[0], [-w, -w, 27.0], atol=1e-9)
    assert_allclose(pts[1], [0.0, 0.0, 0.0], atol=1e-9)
    assert_allclose(pts[2], [w, w, 27.0], atol=1e-9)
    assert all(np.linalg.norm(sys_.field(0.0, e.point)) < 1e-9 for e in eqs)


def test_chen_equilibria_closed_form():
    sys_ = make_system("chen")
    eqs = find_equilibria(sys_)
    assert len(eqs) == 3
    pts = sorted((e.point for e in eqs), key=lambda p: p[0])
    w = np.sqrt(63.0)  # sqrt(b*(2c-a))
    assert_allclose(pts[0], [-w, -w, 21.0], atol=1e-9)
    assert_allclose(pts[1], [0.0, 0.0, 0.0], atol=1e-9)
    assert_allclose(pts[2], [w, w, 21.0], atol=1e-9)


def test_rossler_equilibria_closed_form():
    sys_ = make_system("rossler")
    eqs = find_equilibria(sys_)
    assert len(eqs) == 2
    # setting the field to zero gives a*y^2 + c*y + b = 0, x = -a*y, z = -y
    a, b, c = 0.2, 0.2, 5.7
    disc = np.sqrt(c * c - 4 * a * b)
    for y in ((-c + disc) / (2 * a), (-c - disc) / (2 * a)):
        target = np.array([-a * y, y, -y])
        assert min(np.linalg.norm(e.point - target) for e in eqs) < 1e-8


def test_chua_origin_is_only_equilibrium():
    # both diode slopes are negative, so a(y - h(x)) = 0, y = 0, x + z = 0
    # admits only x = 0 once h has no nontrivial zeros
    sys_ = make_system("chua")
    eqs = find_equilibria(sys_)
    assert len(eqs) == 1
    assert_allclose(eqs[0].point, np.zeros(3), atol=1e-10)


@pytest.mark.parametrize("params", [
    None,
    {"m0": -1.27, "m1": 0.68},                              # x = +-2.868
    {"a": 15.6, "b": 28.0, "m0": -1.143, "m1": 0.714},      # x = +-2.601
])
def test_chua_search_started_on_the_kinks_finds_the_lattice_points(params):
    # Newton needs no nudge off the slope discontinuities at x = +-1: guesses
    # exactly on them and one ulp to either side find what the default
    # lattice finds (with m0 and m1 of opposite sign, three equilibria)
    sys_ = make_system(BenchmarkId(name="chua", params=params))
    ref = sorted((e.point for e in find_equilibria(sys_)), key=lambda p: p[0])
    xs = [np.nextafter(-1.0, -2.0), -1.0, np.nextafter(-1.0, 0.0),
          np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    guesses = [[x, y, z] for x in xs for y in (-20.0, 0.0, 20.0)
               for z in (-20.0, 0.0, 20.0)]
    got = sorted((e.point for e in find_equilibria(sys_, guesses=guesses)),
                 key=lambda p: p[0])
    assert len(ref) == (1 if params is None else 3)
    assert len(got) == len(ref)
    assert_allclose(got, ref, rtol=0, atol=1e-9)


def test_zero_field_returns_guess():
    zero = SystemSpec(name="zero", dim=2,
                      field=lambda t, x: np.zeros(2),
                      jacobian=lambda t, x: np.zeros((2, 2)))
    eqs = find_equilibria(zero, guesses=[np.array([3.0, 4.0])])
    assert len(eqs) == 1
    assert_allclose(eqs[0].point, [3.0, 4.0], rtol=0, atol=0)


def test_duplicate_guesses_deduplicated():
    sys_ = make_system("lorenz")
    eqs = find_equilibria(sys_, guesses=[[0.1, 0.1, 0.1],
                                         [0.1 + 1e-9, 0.1, 0.1]])
    assert len(eqs) == 1


def test_rootless_field_gives_empty_list():
    const = SystemSpec(name="const", dim=1,
                       field=lambda t, x: np.array([1.0]),
                       jacobian=lambda t, x: np.zeros((1, 1)))
    assert find_equilibria(const, guesses=[np.zeros(1)]) == []


# -- eigenvalue oracles --------------------------------------------------


def test_lorenz_origin_eigenvalues_match_characteristic_polynomial():
    # at the origin the z-row decouples: (lam + beta)(lam^2 + 11 lam - 270)
    sys_ = make_system("lorenz")
    eig = jacobian_eigenvalues(sys_, np.zeros(3))
    quad = np.sort(np.roots([1.0, 11.0, -270.0]))
    expected = np.sort(np.r_[quad, -8.0 / 3.0])
    assert_allclose(np.sort(eig.real), expected, rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(eig.imag)) < 1e-12
    assert abs(eig[0].real - 11.8277) < 5e-4
    assert abs(eig[2].real + 22.8277) < 5e-4


def test_lorenz_wing_eigenvalues_match_characteristic_polynomial():
    # char poly at (+-sqrt(72), +-sqrt(72), 27):
    #   lam^3 + (sigma+beta+1) lam^2 + beta(sigma+rho) lam + 2 sigma beta (rho-1)
    sys_ = make_system("lorenz")
    point = np.array([np.sqrt(72.0), np.sqrt(72.0), 27.0])
    eig = jacobian_eigenvalues(sys_, point)
    expected = cubic_roots(41.0 / 3.0, (8.0 / 3.0) * 38.0, 1440.0)
    assert_allclose(eig, expected, rtol=1e-10, atol=1e-10)
    assert abs(eig[0] - (0.094 + 10.195j)) < 2e-3
    assert abs(eig[2] - (-13.855)) < 2e-3


def test_chen_origin_eigenvalues_match_characteristic_polynomial():
    # z decouples with eigenvalue -b; the xy block has trace c-a = -7 and
    # determinant -ac + a(a-c) ... = -735, from [[-35, 35], [-7, 28]]
    sys_ = make_system("chen")
    eig = jacobian_eigenvalues(sys_, np.zeros(3))
    quad = np.sort(np.roots([1.0, 7.0, -735.0]))
    expected = np.sort(np.r_[quad, -3.0])
    assert_allclose(np.sort(eig.real), expected, rtol=1e-12, atol=1e-12)


def test_diagonal_linear_system_eigenvalues():
    lin = SystemSpec(name="lin", dim=2,
                     field=lambda t, x: np.array([-x[0], -2.0 * x[1]]),
                     jacobian=lambda t, x: np.diag([-1.0, -2.0]))
    assert_allclose(jacobian_eigenvalues(lin, np.zeros(2)), [-1.0, -2.0],
                    rtol=0, atol=0)


def test_eigenvalues_sorted_by_descending_real_part():
    for name in ("lorenz", "chen", "rossler", "chua"):
        sys_ = make_system(name)
        for e in find_equilibria(sys_):
            assert np.all(np.diff(e.eigenvalues.real) <= 1e-12)


def test_lorenz_trace_identity():
    sys_ = make_system("lorenz")
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-30.0, 30.0, size=3)
        assert abs(np.trace(sys_.jacobian(0.0, x)) + 41.0 / 3.0) < 1e-9


# -- analytic vs finite-difference Jacobians -----------------------------


@pytest.mark.parametrize("name", ["lorenz", "duffing", "chen", "rossler",
                                  "chua"])
def test_jacobian_matches_finite_differences(name):
    sys_ = make_system(name)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        x = rng.uniform(-10.0, 10.0, size=sys_.dim)
        if name == "chua" and min(abs(x[0] - 1.0), abs(x[0] + 1.0)) < 1e-3:
            continue  # FD stencil would straddle a slope discontinuity
        t = rng.uniform(0.0, 10.0)
        ja = np.asarray(sys_.jacobian(t, x))
        jf = fd_jacobian(sys_.field, t, x)
        scale = max(1.0, np.max(np.abs(ja)))
        assert np.max(np.abs(ja - jf)) / scale < 1e-6
        checked += 1


# -- batched Jacobians ---------------------------------------------------


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_batch_jacobian_stacks_single_state_calls(name):
    sys_ = make_system(name)
    rng = np.random.default_rng(11)
    x = rng.uniform(-10.0, 10.0, size=(3, 6, sys_.dim))
    t = rng.uniform(0.0, 10.0, size=(3, 6))
    if name == "chua":
        # both kinks, exactly and one ulp to either side
        x[0, :, 0] = [np.nextafter(-1.0, -2.0), -1.0, np.nextafter(-1.0, 0.0),
                      np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    batch = sys_.jacobian(t, x)
    single = np.array([[sys_.jacobian(t[i, j], x[i, j]) for j in range(6)]
                       for i in range(3)])
    assert batch.shape == (3, 6, sys_.dim, sys_.dim)
    assert batch.tobytes() == single.tobytes()
    if name == "chua":
        a, m0, m1 = (sys_.params[k] for k in ("a", "m0", "m1"))
        # the kinks take the outer slope
        assert batch[0, :, 0, 0].tolist() == [-a * m1, -a * m1, -a * m0,
                                              -a * m0, -a * m1, -a * m1]


# -- duffing chain -------------------------------------------------------


def test_duffing_chain_layout():
    sys_ = make_system("duffing")
    assert sys_.dim == 9
    assert sys_.observables == (0, 8)
    assert sys_.params["base_order"] == pytest.approx(0.1)
    x0 = np.asarray(sys_.params["default_x0"], dtype=float)
    assert x0.shape == (9,)
    assert x0[0] == 0.1
    assert np.all(x0[1:] == 0.0)


def test_duffing_chain_field_structure():
    sys_ = make_system("duffing")
    y = np.arange(1.0, 10.0)
    dy = sys_.field(0.0, y)
    # stages shift down the chain
    assert_allclose(dy[:-1], y[1:], rtol=0, atol=0)
    # last row: forcing - gamma*x - cubic*x^3 - delta*y[8]
    expected = 0.3 * np.cos(0.0) - 1.0 * y[0] - 5.0 * y[0] ** 3 - 0.2 * y[8]
    assert dy[-1] == pytest.approx(expected, rel=1e-14)


def test_duffing_forcing_is_time_dependent():
    sys_ = make_system("duffing")
    y = np.zeros(9)
    d0 = sys_.field(0.0, y)[-1]
    d1 = sys_.field(np.pi / 1.2, y)[-1]
    assert d0 == pytest.approx(0.3)
    assert d1 == pytest.approx(-0.3)


def test_duffing_scalar_alpha_pairs_with_default_second_order():
    bid = BenchmarkId("duffing", alpha=0.9)
    assert bid.alpha == (0.9, 0.8)


# -- configuration errors ------------------------------------------------


def test_unknown_system_name_rejected():
    with pytest.raises(ConfigError):
        BenchmarkId("lorentz")
    with pytest.raises(ConfigError):
        make_system("van_der_pol")


def test_parameter_domain_errors():
    with pytest.raises(ConfigError):
        BenchmarkId("lorenz", params={"beta": 0.0})
    with pytest.raises(ConfigError):
        BenchmarkId("chen", params={"b": 0.0})
    with pytest.raises(ConfigError):
        BenchmarkId("lorenz", params={"sigm": 1.0})
    with pytest.raises(ConfigError):
        BenchmarkId("lorenz", params={"rho": float("nan")})


def test_alpha_domain_errors():
    with pytest.raises(ConfigError):
        BenchmarkId("lorenz", alpha=1.5)
    with pytest.raises(ConfigError):
        BenchmarkId("lorenz", alpha=0.0)
    with pytest.raises(ConfigError):
        BenchmarkId("duffing", alpha=(0.9, 1.2))
    # alpha leads the chain: order_beta must sit below it
    for alpha in (0.8, 0.7, (0.5, 0.6)):
        with pytest.raises(ConfigError, match="order_beta"):
            BenchmarkId("duffing", alpha=alpha)


def test_parameter_override_applies():
    bid = BenchmarkId("lorenz", params={"rho": 14.0})
    sys_ = make_system(bid)
    # below the pitchfork at rho > 1 the wings sit at sqrt(beta*(rho-1))
    eqs = find_equilibria(sys_)
    xs = sorted(e.point[0] for e in eqs)
    assert xs[2] == pytest.approx(np.sqrt((8.0 / 3.0) * 13.0), abs=1e-9)


def test_missing_jacobian_rejected():
    bare = SystemSpec(name="bare", dim=1, field=lambda t, x: -x)
    with pytest.raises(ConfigError):
        find_equilibria(bare, guesses=[np.zeros(1)])
    with pytest.raises(ConfigError):
        jacobian_eigenvalues(bare, np.zeros(1))


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_non_finite_time_rejected(t):
    # a forced field frozen at a non-finite time has no equilibria to find
    with pytest.raises(ConfigError):
        find_equilibria(make_system("duffing"), t=t)


def test_default_guess_lattice():
    g = default_guesses(3)
    assert g.shape == (27, 3)
    assert {tuple(v) for v in g} == {
        (a, b, c)
        for a in (-20.0, 0.0, 20.0)
        for b in (-20.0, 0.0, 20.0)
        for c in (-20.0, 0.0, 20.0)
    }
