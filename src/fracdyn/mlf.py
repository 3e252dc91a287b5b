"""Mittag-Leffler functions E_a(z) and E_{a,b}(z).

These are the solution kernels of linear fractional relaxation and serve as
the accuracy oracle for the fractional solvers.  Evaluation strategy:

1. power series in float64 when cancellation is provably harmless,
2. an asymptotic expansion on the decaying side (0 < a < 1, large |z|),
   accepted only when its optimal-truncation error certifies the target,
3. the same power series in adaptive extended precision otherwise.

Every returned value is accurate to ~1e-12 relative, comfortably inside the
1e-10 contract for |z| <= 50.
"""

import cmath
import math

import mpmath

from .errors import NonConvergenceError

# internal accuracy target; the public contract is 1e-10
_REL_TOL = 1e-12

_MAX_TERMS_F64 = 100_000
_MAX_TERMS_MP = 400_000


def _gamma(x):
    """Real gamma function (bound to the platform Lanczos implementation)."""
    return math.gamma(x)


def _validate(alpha, beta, z):
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha > 2.0:
        raise ValueError(f"alpha > 2 is unsupported, got {alpha}")
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    if not (abs(z) < math.inf):
        raise ValueError(f"z must be finite, got {z!r}")


def _series_scales(alpha, beta, az):
    """A-priori peak log-magnitude and stopping index of the power series."""
    if az <= 1.0:
        return -math.lgamma(beta), 80
    m = az ** (1.0 / alpha)  # value of alpha*k + beta at the largest term
    k_peak = max(0.0, (m - beta) / alpha)
    log_peak = k_peak * math.log(az) - math.lgamma(alpha * k_peak + beta)
    k_stop = int((math.e * m - beta) / alpha) + 200
    return log_peak, k_stop


def _series_f64(alpha, beta, z, k_stop):
    """Float64 series pass.

    Returns (value, certified) where certified reports whether the
    rounding-error bound stayed inside _REL_TOL.
    """
    is_complex = isinstance(z, complex) and z.imag != 0.0
    log_az = math.log(abs(z))
    arg_z = cmath.phase(complex(z)) if is_complex else (math.pi if z.real < 0 else 0.0)
    negative_real = not is_complex and z.real < 0

    s = 0.0 + 0.0j
    sum_abs = 0.0
    below = 0
    k_final = 0
    for k in range(min(k_stop, _MAX_TERMS_F64) + 1):
        lm = k * log_az - math.lgamma(alpha * k + beta)
        if lm > 700.0:
            return None, False  # term overflows float64
        mag = math.exp(lm)
        if negative_real:
            term = complex(-mag if k % 2 else mag, 0.0)
        elif is_complex:
            term = cmath.rect(mag, k * arg_z)
        else:
            term = complex(mag, 0.0)
        s += term
        sum_abs += mag
        k_final = k
        if mag <= 1e-16 * abs(s) and k > 0:
            below += 1
            if below >= 2:
                break
        else:
            below = 0
    else:
        return None, False

    if abs(s) == 0.0:
        return None, False
    # rounding bound: eps * (sum of |term|), plus phase error for complex z,
    # plus the effect of the float-rounded gamma argument alpha*k + beta
    # (that argument is ~x*eps off, amplified by psi(x) in the log)
    x_max = alpha * k_final + beta
    gamma_arg_pen = 1.5 * x_max * max(1.0, math.log(x_max))
    err = 2.2e-16 * sum_abs * (
        3.0 + gamma_arg_pen + (1e-2 * k_final if is_complex else 0.0))
    if err > _REL_TOL * abs(s):
        return None, False
    return s, True


_LOG_PI = math.log(math.pi)


def _asymptotic(alpha, beta, z):
    """Large-|z| expansion for 0 < alpha < 1.

    Algebraic part: -sum_{k>=1} z^{-k} / Gamma(beta - alpha*k).  Raw term
    magnitudes oscillate between the gamma poles, so truncation is driven by
    the smooth envelope |z|^-k * Gamma(1 - beta + alpha*k) / pi (an upper
    bound by reflection); the envelope of the first omitted term bounds the
    truncation error.  The exponential part
    (1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)) is added whenever
    |arg z| < alpha*pi; it is negligible when recessive and required when
    dominant.

    Returns (value, error_estimate).
    """
    zc = complex(z)
    log_az = math.log(abs(zc))
    phi = cmath.phase(zc)
    s = 0.0 + 0.0j
    min_log_env = math.inf
    log_err = math.inf
    for k in range(1, 220):
        x = beta - alpha * k
        if x >= 0.5:
            log_env = -k * log_az - math.lgamma(x)
            sin_fac = 1.0
        else:
            log_env = -k * log_az + math.lgamma(1.0 - x) - _LOG_PI
            sin_fac = math.sin(math.pi * x)
        if log_env >= min_log_env:
            log_err = log_env  # envelope started growing: stop before this
            break
        min_log_env = log_env
        log_err = log_env
        scale = math.exp(log_env) if log_env > -745.0 else 0.0
        s += cmath.rect(scale * sin_fac, -k * phi)
        if abs(s) > 0.0 and log_env < math.log(abs(s)) - 41.5:
            break
    value = -s
    if abs(phi) < alpha * math.pi:
        w = cmath.exp(cmath.log(zc) / alpha)
        if w.real > 700.0:
            raise OverflowError(
                f"E_{{{alpha},{beta}}}({z!r}) exceeds the double range"
            )
        value = value + zc ** ((1.0 - beta) / alpha) * cmath.exp(w) / alpha
    return value, math.exp(min(log_err, 700.0))


def _series_mp(alpha, beta, z, log_peak, k_stop):
    """Power series in extended precision sized to absorb cancellation."""
    if k_stop > _MAX_TERMS_MP:
        raise NonConvergenceError(
            f"series for E_{{{alpha},{beta}}}({z!r}) needs ~{k_stop} terms; "
            "argument outside the supported regime"
        )
    peak_digits = max(0.0, log_peak / math.log(10.0))
    is_complex = isinstance(z, complex) and z.imag != 0.0
    dps = int(25 + peak_digits)
    for _attempt in range(5):
        with mpmath.workdps(dps):
            zz = mpmath.mpmathify(z if is_complex else z.real)
            # the gamma argument must be formed in working precision: a float
            # product alpha*k is ~1e-16 off, which the peak terms amplify
            aa = mpmath.mpf(alpha)
            bb = mpmath.mpf(beta)
            s = mpmath.mpf(0)
            zk = mpmath.mpf(1)
            stop = mpmath.mpf(10) ** (-(dps - 6))
            below = 0
            for k in range(k_stop + 1):
                term = zk / mpmath.gamma(aa * k + bb)
                s += term
                zk *= zz
                if k > 0 and abs(term) <= stop * abs(s):
                    below += 1
                    if below >= 2:
                        break
                else:
                    below = 0
            else:
                raise NonConvergenceError(
                    f"series for E_{{{alpha},{beta}}}({z!r}) did not converge "
                    f"within {k_stop} terms"
                )
            # digits actually cancelled; invisible a priori because the
            # result magnitude enters (e.g. E_1(-50) = e^-50)
            if abs(s) > 0:
                lost = peak_digits - math.log10(float(abs(s)) or 1e-300)
            else:
                lost = peak_digits + dps
            if dps - lost >= 18.0:
                if is_complex:
                    out = complex(s)
                else:
                    out = float(s)
                if not (abs(out) < math.inf):
                    raise OverflowError(
                        f"E_{{{alpha},{beta}}}({z!r}) exceeds the double range"
                    )
                return complex(out)
            dps = int(lost + 25)
    raise NonConvergenceError(
        f"E_{{{alpha},{beta}}}({z!r}): could not certify the accuracy target"
    )


def _asymptotic_certified(alpha, beta, z):
    """Asymptotic value, or None when its error estimate misses the target."""
    value, err = _asymptotic(alpha, beta, z)
    if abs(value) > 0.0 and err <= 0.05 * _REL_TOL * abs(value):
        return value
    return None


def _ml_eval(alpha, beta, z):
    if z == 0:
        return complex(1.0 / _gamma(beta))
    log_peak, k_stop = _series_scales(alpha, beta, abs(z))
    zr = complex(z)
    asym_applies = 0.0 < alpha < 1.0 and abs(z) > 1.0
    # on the strongly decaying side the expansion is both cheap and the
    # only numerically stable route, so consult it before the series
    asym_first = asym_applies and zr.imag == 0.0 and zr.real <= -5.0

    if asym_first:
        value = _asymptotic_certified(alpha, beta, z)
        if value is not None:
            return value

    if k_stop <= _MAX_TERMS_F64:
        value, ok = _series_f64(alpha, beta, z, k_stop)
        if ok:
            return value

    if asym_applies and not asym_first:
        value = _asymptotic_certified(alpha, beta, z)
        if value is not None:
            return value

    return _series_mp(alpha, beta, z, log_peak, k_stop)


def ml_two(alpha, beta, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta)

    Parameters
    ----------
    alpha : float in (0, 2]
    beta : float > 0
    z : real or complex argument

    Returns a float for real ``z``, a complex for complex ``z``.  Accuracy is
    1e-10 relative or better for |z| <= 50.

    Raises ``ValueError`` for parameters outside the supported domain,
    ``OverflowError`` when the value exceeds the double range and
    ``NonConvergenceError`` when the accuracy target cannot be certified.
    """
    _validate(alpha, beta, z)
    value = _ml_eval(float(alpha), float(beta), z)
    if isinstance(z, complex):
        return value
    return value.real


def ml_one(alpha, z):
    """One-parameter Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z).

    The solution of the linear relaxation equation of order alpha is
    x(t) = x(0) * E_alpha(lambda * t**alpha).
    """
    return ml_two(alpha, 1.0, z)
