"""Tests for the Mittag-Leffler functions.

The reference oracle is direct series summation in extended precision
(mpmath), independent of the float64 contour and asymptotic routes under
test.  For
small alpha, where the series needs astronomically many terms, a
Mellin-Barnes contour integral provides a second, structurally different
oracle.  Its values are frozen in ``contour_oracle.json`` (written by
``contour_oracle.py``); the test marked ``slow`` recomputes them live:
``python -m pytest -m slow``.
"""

import math
import os
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contour_oracle import (GRIDS, grid_points, load_table,
                            ml_contour_oracle)
from fracdyn import ml_one, ml_two, mlf


def series_cost(alpha, beta, z):
    """A-priori (digits of cancellation, term count) for the series oracle."""
    az = abs(z)
    if az <= 1.0:
        return 0.0, 300
    m = az ** (1.0 / alpha)
    k_peak = max(0.0, (m - beta) / alpha)
    log_peak = max(0.0, k_peak * math.log(az)
                   - math.lgamma(alpha * k_peak + beta))
    return log_peak / math.log(10.0), int(math.e * m / alpha) + 300


def ml_series_oracle(alpha, beta, z, dps=None, max_terms=20000):
    """E_{alpha,beta}(z) by brute-force series summation at `dps` digits."""
    if dps is None:
        digits_lost, _ = series_cost(alpha, beta, z)
        dps = 40 + int(digits_lost)
    with mpmath.workdps(dps):
        zz = mpmath.mpmathify(z)
        # keep the gamma argument in working precision (a float alpha*k is
        # only ~1e-16 accurate, which the peak terms amplify enormously)
        aa = mpmath.mpf(alpha)
        bb = mpmath.mpf(beta)
        s = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (-dps + 6)
        for k in range(max_terms):
            term = zk / mpmath.gamma(aa * k + bb)
            s += term
            zk *= zz
            if k > 200 and abs(term) < tol * abs(s):
                return complex(s)
        raise RuntimeError("oracle did not converge; shrink |z| or raise alpha")


def test_exponential_identity():
    for z in [-10.0, -4.5, -1.0, -0.1, 0.0, 0.1, 2.0, 7.5, 10.0]:
        assert ml_one(1.0, z) == pytest.approx(math.exp(z), rel=1e-12)


def test_cosh_identity():
    for t in [0.0, 0.5, 1.0, 2.0, 3.5, 5.0]:
        assert ml_two(2.0, 1.0, t * t) == pytest.approx(math.cosh(t), rel=1e-12)


def test_cos_identity():
    for t in [0.5, 1.0, 2.0, 4.0, 7.0]:
        assert ml_two(2.0, 1.0, -t * t) == pytest.approx(math.cos(t), rel=1e-10, abs=1e-12)


def test_expm1_identity():
    # E_{1,2}(z) = (e^z - 1) / z
    for z in [-8.0, -1.0, -1e-3, 1e-3, 1.0, 8.0]:
        assert ml_two(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-12)


def test_erfc_identity():
    # E_{1/2}(z) = exp(z^2) * erfc(-z)
    for z in [-3.0, -1.0, -0.2, 0.0, 0.4, 1.5, 3.0]:
        expected = math.exp(z * z) * math.erfc(-z)
        assert ml_one(0.5, z) == pytest.approx(expected, rel=1e-11)


def test_value_at_zero():
    assert ml_one(0.7, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert ml_two(0.7, 2.5, 0.0) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-14)


def test_spot_value():
    # fixed reference computed once with the series oracle at 80 digits
    assert ml_two(0.8, 0.8, -0.5) == pytest.approx(0.4579314981011144, rel=1e-12)


def test_against_series_oracle():
    alphas = [0.4, 0.5, 0.7, 0.8, 0.9, 0.995, 1.0, 1.3, 1.7, 2.0]
    betas = [0.5, 1.0, 2.0]
    zs = [-50.0, -20.0, -5.0, -1.0, -0.1, 0.5, 3.0, 10.0]
    checked = 0
    for alpha in alphas:
        for beta in betas:
            for z in zs:
                # keep the oracle itself cheap and well-conditioned
                digits_lost, n_terms = series_cost(alpha, beta, z)
                if n_terms > 4000 or digits_lost > 80:
                    continue
                ref = ml_series_oracle(alpha, beta, z).real
                got = ml_two(alpha, beta, z)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-280), (
                    alpha, beta, z)
                checked += 1
    assert checked > 150


# tolerance of ml_two against the contour oracle, per grid of GRIDS
CONTOUR_TOL = {"deep_negative": dict(rel=1e-9, abs=1e-30),
               "small_alpha": dict(rel=1e-9)}


def assert_matches_contour_table(grid):
    """ml_two against the oracle values frozen in contour_oracle.json."""
    rows = load_table()[grid]
    assert [row[:3] for row in rows] == grid_points(grid)
    for alpha, beta, x, ref in rows:
        got = ml_two(alpha, beta, -x)
        assert got == pytest.approx(ref, **CONTOUR_TOL[grid]), (
            alpha, beta, -x)


def test_against_contour_oracle_deep_negative():
    # strong-cancellation band where the series oracle would be costly
    assert_matches_contour_table("deep_negative")


def test_against_contour_oracle_small_alpha():
    # the regime where only the asymptotic expansion is viable
    assert_matches_contour_table("small_alpha")


@pytest.mark.slow
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_contour_oracle_table_matches_live_mpmath(grid):
    # the frozen table is the live oracle's output, and ml_two meets the
    # live oracle as it meets the table
    for alpha, beta, x, frozen in load_table()[grid]:
        live = ml_contour_oracle(alpha, beta, x)
        assert frozen == pytest.approx(live, rel=1e-13, abs=1e-300), (
            alpha, beta, x)
        assert ml_two(alpha, beta, -x) == pytest.approx(
            live, **CONTOUR_TOL[grid]), (alpha, beta, -x)


def test_complex_argument():
    for alpha in [0.6, 0.9, 1.0, 1.5]:
        for z in [1 + 2j, -3 + 4j, -10 + 1j, 0.1 - 0.2j]:
            got = ml_two(alpha, 1.0, z)
            assert isinstance(got, complex)
            ref = ml_series_oracle(alpha, 1.0, z)
            assert abs(got - ref) <= 1e-10 * abs(ref)
            # Schwarz reflection
            mirrored = ml_two(alpha, 1.0, z.conjugate())
            assert abs(mirrored - got.conjugate()) <= 1e-12 * abs(got)


def test_complex_argument_on_the_real_axis():
    # the extended-precision route (E_{1/2}(-2), E_{1/2}(-3)) once raised
    # TypeError for a complex z with zero imaginary part
    for z in [-3.0, -2.0, -0.5, 1.5]:
        got = ml_two(0.5, 1.0, complex(z))
        assert isinstance(got, complex)
        assert got == ml_two(0.5, 1.0, z)


def test_recurrence_identity():
    # E_{a,b}(z) = 1/Gamma(b) + z * E_{a,a+b}(z)
    for alpha in [0.3, 0.5, 0.8, 1.0, 1.5]:
        for beta in [0.5, 1.0, 1.8]:
            for z in [-20.0, -3.0, -0.5, 0.7, 4.0]:
                lhs = ml_two(alpha, beta, z)
                rhs = 1.0 / math.gamma(beta) + z * ml_two(alpha, alpha + beta, z)
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_relaxation_is_monotone_and_positive():
    # t -> E_a(-t^a) is completely monotone for 0 < a <= 1
    for alpha in [0.3, 0.5, 0.9, 1.0]:
        prev = 1.0
        for i in range(1, 101):
            t = 0.1 * i
            v = ml_one(alpha, -(t ** alpha))
            assert 0.0 < v <= prev
            prev = v


def test_one_parameter_matches_two_parameter():
    for alpha in [0.3, 0.9, 1.4]:
        for z in [-12.0, -0.3, 2.2]:
            assert ml_one(alpha, z) == ml_two(alpha, 1.0, z)


def test_domain_errors():
    for bad_alpha in [0.0, -0.5, 2.5, math.inf, math.nan]:
        with pytest.raises(ValueError):
            ml_one(bad_alpha, 1.0)
    for bad_beta in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(ValueError):
            ml_two(0.8, bad_beta, 1.0)
    with pytest.raises(ValueError):
        ml_one(0.8, math.inf)
    with pytest.raises(ValueError):
        ml_one(0.8, math.nan)


def test_overflow_is_reported():
    with pytest.raises(OverflowError):
        ml_one(0.1, 10.0)  # ~exp(10^10)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.3, 2.0),
    beta=st.floats(0.5, 3.0),
    z=st.floats(-30.0, 3.0),
)
def test_recurrence_property(alpha, beta, z):
    lhs = ml_two(alpha, beta, z)
    rhs = 1.0 / math.gamma(beta) + z * ml_two(alpha, alpha + beta, z)
    assert math.isfinite(lhs)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


# -- the float64 contour route ---------------------------------------------

def _relaxation_arguments(alpha, lam, times):
    """lam * t^alpha as floats for a real rate, as complex numbers otherwise."""
    zs = [lam * t ** alpha for t in times]
    return [z.real for z in zs] if lam.imag == 0.0 else zs


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_contour_route_against_series_oracle(alpha, beta):
    # the asymptotic route certifies part of this grid first, so the
    # contour route is called directly: it must certify every point
    reals = [-15.0 + 2.0 * i for i in range(8)]
    rotations = _relaxation_arguments(alpha, complex(-0.6, -1.1),
                                      [0.5, 2.0, 4.5, 7.0, 10.0])
    for z in reals + rotations:
        got = mlf._contour(alpha, beta, z)
        assert got is not None, (alpha, beta, z)
        ref = ml_series_oracle(alpha, beta, z)
        assert abs(got - ref) <= 1e-10 * abs(ref), (alpha, beta, z)
        value, route = mlf.ml_route(alpha, beta, z)
        assert route != "mpmath", (alpha, beta, z)
        if route == "contour":
            assert value == got


def test_relaxation_grid_never_reaches_mpmath(monkeypatch):
    # the grid shape of the relaxation-oracle benchmark workload: 606 points,
    # of which z = 0 takes 6; the contour route must take the other 600,
    # which would otherwise need the mpmath series
    def no_mpmath(*args):
        raise AssertionError(f"mpmath route taken for {args}")

    monkeypatch.setattr(mlf, "_series_mp", no_mpmath)
    times = [0.1 * i for i in range(101)]
    routes = []
    for alpha in [0.5, 0.7, 0.9]:
        for lam in [complex(-1.75), complex(-0.6, -1.1)]:
            for z in _relaxation_arguments(alpha, lam, times):
                value, route = mlf.ml_route(alpha, 1.0, z)
                assert value == ml_one(alpha, z) and math.isfinite(abs(value))
                routes.append(route)
    assert {r: routes.count(r) for r in set(routes)} == {
        "zero": 6, "contour": 600}


@pytest.mark.parametrize("x", [10.0, 50.0])
def test_contour_rejection_falls_through_to_mpmath(x):
    # E_1(-x) = e^-x sits below the nodes' rounding bound (for x = 10 that
    # bound alone fails: the step difference and the tail pass), so the
    # contour route declines it and the closed form answers; the contour
    # declines its neighbour E_1.001(-x) too, and the extended-precision
    # series answers that
    assert mlf._contour(1.0, 1.0, -x) is None
    assert mlf.ml_route(1.0, 1.0, -x) == (complex(math.exp(-x)), "exp")
    value, route = mlf.ml_route(1.001, 1.0, -x)
    assert route == "mpmath"
    ref = ml_series_oracle(1.001, 1.0, -x)
    assert abs(value - ref) <= 1e-12 * abs(ref)


def test_contour_route_declines_overflow():
    # residues e^(s*) beyond the double range: None, not OverflowError
    assert mlf._contour(0.2, 1.0, 20.0) is None
    assert mlf._contour(1.0, 1.0, 800.0) is None
    assert mlf._contour(0.1, 1.0, 10.0) is None


def test_real_overflow_is_raised_before_the_mpmath_series(monkeypatch):
    # E_1(800) = e^800 overflows in the closed form; every term of
    # E_1,2(800) is positive and the largest is ~e^789, so that overflow
    # is known without summing the series
    def no_mpmath(*args):
        raise AssertionError(f"mpmath route taken for {args}")

    monkeypatch.setattr(mlf, "_series_mp", no_mpmath)
    with pytest.raises(OverflowError, match="exceeds the double range"):
        ml_one(1.0, 800.0)
    with pytest.raises(OverflowError, match="exceeds the double range"):
        ml_two(1.0, 2.0, 800.0)


def test_overflow_of_the_sum_is_raised_without_summing(monkeypatch):
    # E_1,2(717) = (e^717 - 1)/717 ~ e^710.4 overflows although its largest
    # term, ~e^706.2, does not: the bound on the terms near the peak must
    # see that at once, before the mpmath series is entered
    def never(*args):
        raise AssertionError("the mpmath series was entered")

    with monkeypatch.context() as patch:
        patch.setattr(mlf, "_series_mp", never)
        with pytest.raises(OverflowError, match="exceeds the double range"):
            mlf.ml_route(1.0, 2.0, 717.0)
        with pytest.raises(OverflowError, match="exceeds the double range"):
            mlf.ml_route(1.0, 1.0, 710.0)
        # e^709.5 is below the double maximum e^709.78 and is returned
        value, route = mlf.ml_route(1.0, 1.0, 709.5)
    assert (value.real, route) == (1.3549863193146328e308, "exp")


@pytest.mark.parametrize("alpha, beta, x, overflows", [
    (0.5, 1.0, 26.6, False),      # E_1/2(x) ~ 2 e^(x^2): e^708.3
    (0.5, 1.0, 26.7, True),       # e^713.6
    (2.0, 1.0, 710.0 ** 2, False),  # cosh(710) ~ e^709.3
    (2.0, 1.0, 711.0 ** 2, True),
    (0.01, 1.0, 1.07, True),      # ~100 e^867, window sampled by stride
    (1.0, 2.0, 715.0, False),     # (e^x - 1)/x: e^708.4
    (1.0, 2.0, 717.0, True),      # e^710.4
])
def test_series_overflow_bound(alpha, beta, x, overflows):
    assert mlf._series_overflows(alpha, beta, x) == overflows


def test_largest_term_below_the_double_range_is_summed():
    # E_1(709) = e^709 is below the double maximum e^709.78: no overflow
    assert ml_one(1.0, 709.0) == pytest.approx(math.exp(709.0), rel=1e-12)


def test_import_fracdyn_loads_neither_numpy_nor_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlf.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, fracdyn; "
            "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_asymptotic_route_keeps_large_arguments_out_of_mpmath(monkeypatch):
    # the contour route declines each of these; without the expansion the
    # values take seconds in mpmath, and so does finding the overflows
    def no_mpmath(*args):
        raise AssertionError(f"mpmath route taken for {args}")

    monkeypatch.setattr(mlf, "_series_mp", no_mpmath)
    for alpha, beta, z in [(0.5, 0.5, -80.0), (0.995, 1.0, 650.0)]:
        assert mlf.ml_route(alpha, beta, z)[1] == "asymptotic"
    for alpha, z in [(0.5, 30 - 2j), (0.2, 5 - 1j)]:
        with pytest.raises(OverflowError, match="exceeds the double range"):
            ml_one(alpha, z)
    # E_1/2,1/2(z) = 1/sqrt(pi) + z e^(z^2) erfc(-z); every term of
    # E_0.995(650) is positive, so the series oracle needs no extra digits
    with mpmath.workdps(40):
        ref = 1 / mpmath.sqrt(mpmath.pi) - 80 * mpmath.exp(6400) * mpmath.erfc(80)
    assert ml_two(0.5, 0.5, -80.0) == pytest.approx(float(ref), rel=1e-10)
    assert ml_one(0.995, 650.0) == pytest.approx(
        ml_series_oracle(0.995, 1.0, 650.0, dps=30).real, rel=1e-10)


def test_asymptotic_route_is_real_on_the_real_axis():
    value, route = mlf.ml_route(0.3, 1.0, complex(-20.0))
    assert route == "asymptotic"
    assert value.imag == 0.0
    assert ml_two(0.3, 1.0, complex(-20.0)) == ml_two(0.3, 1.0, -20.0)



# -- large beta -------------------------------------------------------------

@pytest.mark.parametrize("beta", [30.0, 50.0, 100.0, 170.0])
@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
def test_large_beta_against_series_oracle(alpha, beta):
    # for a large beta the asymptotic envelope grows from its first term, so
    # the expansion is not yet asymptotic and must not certify the value;
    # every value here is a normal double, so no absolute floor is needed
    for z in [-10.0, -2.0, 1.5, 2.0, 5.0, 10.0, 3 + 4j, -8 + 3j, 6 - 6j]:
        ref = ml_series_oracle(alpha, beta, z)
        got = mlf.ml_route(alpha, beta, z)[0]
        assert abs(got - ref) <= 1e-10 * abs(ref), (alpha, beta, z, got, ref)


def test_value_below_the_double_range_is_zero_or_subnormal():
    # E_0.5,175(2) = 1.8e-316 is subnormal; E_1,180(5) = 9.2e-328 and
    # E_1,1e6(5) ~ 1/Gamma(1e6) are below the smallest subnormal
    ref = ml_series_oracle(0.5, 175.0, 2.0).real
    assert 1e-316 < ref < 1e-315
    assert abs(ml_two(0.5, 175.0, 2.0) - ref) <= 1e-323
    assert ml_two(1.0, 180.0, 5.0) == 0.0
    assert ml_two(1.0, 1e6, 5.0) == 0.0


def test_contour_parameters_decline_a_power_outside_the_double_range():
    # the strength p = 2 (beta - alpha - 1) of the origin singularity is the
    # exponent of a power that underflows or overflows for a large beta
    log_tol = math.log(1e-15)
    # 0.1^336.2 underflows to 0, 2^(2e6) overflows, and so does
    # (sq_bar / sq_mu)^(-231) in the search right of the origin
    assert mlf._optimal_rb(0.0, 0.01, 336.2, log_tol) is None
    assert mlf._optimal_rb(0.0, 4.0, 2e6, log_tol) is None
    assert mlf._optimal_ru(0.0, 231.0, log_tol) is None
    for alpha, beta, z in [(0.9, 170.0, -8 + 3j), (0.5, 117.0, -2.0)]:
        ref = ml_series_oracle(alpha, beta, z)
        got = mlf.ml_route(alpha, beta, z)[0]
        assert abs(got - ref) <= 1e-10 * abs(ref), (alpha, beta, z)


def test_asymptotic_overflow_past_the_double_range_of_w():
    # w = z^(1/alpha) itself overflows: e^w overflows where Re w > 0 and
    # vanishes where Re w < 0, leaving the algebraic part
    with pytest.raises(OverflowError, match="exceeds the double range"):
        ml_one(0.5, 1e300)
    z = complex(math.cos(0.4 * math.pi), math.sin(0.4 * math.pi)) * 1e300
    with mpmath.workdps(30):
        ref = -sum(mpmath.mpc(z) ** -k * mpmath.rgamma(1 - 0.5 * k)
                   for k in range(1, 4))
    assert mlf.ml_route(0.5, 1.0, z) == (
        pytest.approx(complex(ref), rel=1e-12), "asymptotic")
