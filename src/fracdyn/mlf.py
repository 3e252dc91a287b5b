"""Mittag-Leffler functions E_a(z) and E_{a,b}(z).

These are the solution kernels of linear fractional relaxation and serve as
the accuracy oracle for the fractional solvers.  Evaluation routes, tried in
this order:

1. ``zero``: z = 0 is the exact value 1/Gamma(b), and for b >= 180 the
   value is 0 wherever a bound of ``_negligible`` puts it below half the
   smallest subnormal.  For a huge b (1e300), which the other routes
   cannot evaluate, that leaves |z|^(1/a) > b, where every asymptotic term
   is zero and the exponential part is zero or past the double range;
2. ``exp``: a = b = 1 is the closed form e^z;
3. ``asymptotic``: the large-|z| expansion for 0 < a < 1 and |z| > 1,
   accepted when its term envelope falls from the first term (for a large
   b it grows from there, and the expansion is not yet asymptotic) and the
   envelope of its first omitted term certifies the target, or as zero
   when every term and the exponential part round to zero and that
   envelope lies below the smallest subnormal (E_{1/2,1/2}(-1e300), where
   no other route can form |z|^(1/a) in double range);
4. ``contour``: Garrappa's inverse Laplace transform on a parabolic contour
   in float64, accepted when its step-halving difference, its truncated
   tail and its rounding bound each certify the target;
5. ``mpmath``: the power series in adaptive extended precision, sized from
   the digits the series actually cancels; the last route.  Real z whose
   sum exceeds the double range raises ``OverflowError`` before it.

The contour route certifies nearly every argument on its own.  The
asymptotic route stays for the large |z| the contour declines: without it
E_{1/2,1/2}(-80) and E_{0.995,1}(650) take seconds in mpmath, and so does
finding that E_{1/2,1}(30-2i) overflows.  Every returned value is accurate
to ~1e-12 relative, comfortably inside the 1e-10 contract for |z| <= 50.
"""

import cmath
import math
import sys

from .errors import NonConvergenceError

# internal accuracy target; the public contract is 1e-10
_REL_TOL = 1e-12

_MAX_TERMS_MP = 400_000

# from this beta on, 2 / Gamma(beta) (<= 1.8e-327) is below half the
# smallest subnormal, so the value rounds to 0 wherever 2 / Gamma(beta)
# bounds it
_BETA_NEGLIGIBLE = 180.0


def _validate(alpha, beta, z):
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha > 2.0:
        raise ValueError(f"alpha > 2 is unsupported, got {alpha}")
    if not (0.0 < beta < math.inf):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not (abs(z) < math.inf):
        raise ValueError(f"z must be finite, got {z!r}")


def _overflow(alpha, beta, z):
    return OverflowError(
        f"E_{{{alpha},{beta}}}({z!r}) exceeds the double range")


def _series_scales(alpha, beta, az):
    """A-priori peak log-magnitude of the power series and an estimate of
    the terms it needs; ``_series_mp`` refuses an argument whose estimate
    exceeds ``_MAX_TERMS_MP``."""
    if az <= 1.0:
        return -math.lgamma(beta), 80
    m = az ** (1.0 / alpha)  # value of alpha*k + beta at the largest term
    k_peak = max(0.0, (m - beta) / alpha)
    log_peak = k_peak * math.log(az) - math.lgamma(alpha * k_peak + beta)
    k_stop = int(max(0.0, math.e * m - beta) / alpha) + 200
    return log_peak, k_stop


_LOG_DBL_MAX = math.log(sys.float_info.max)
# at most 2 * _OVERFLOW_SAMPLES + 1 terms enter the overflow bound
_OVERFLOW_SAMPLES = 256


def _series_overflows(alpha, beta, x):
    """True when real ``x`` > 1 gives a series sum past the double range.

    Every term x^k / Gamma(alpha*k + beta) is then positive, so the sum of
    the terms within a few widths sqrt(m)/alpha of the peak of
    ``_series_scales`` bounds the series from below.  Their log is concave
    in k, so when the window holds more than ``2 * _OVERFLOW_SAMPLES``
    terms each run of ``stride`` terms is bounded by the smaller log at its
    two ends.  The margin covers the rounding of each logarithm.
    """
    log_x = math.log(x)
    m = x ** (1.0 / alpha)
    peak = round(max(0.0, (m - beta) / alpha))
    half = math.ceil(6.0 * math.sqrt(m) / alpha)
    lo, hi = max(0, peak - half), peak + half
    stride = max(1, math.ceil((hi - lo) / (2 * _OVERFLOW_SAMPLES)))
    ks = range(lo, hi + stride, stride)
    logs = [k * log_x - math.lgamma(alpha * k + beta) for k in ks]
    if stride > 1:
        logs = [math.log(stride) + min(a, b) for a, b in zip(logs, logs[1:])]
    top = max(logs)
    bound = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    return bound > _LOG_DBL_MAX + 1e-9 * max(1.0, ks[-1] * log_x)


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

    Returns the value, or None when the envelope grows from the first term
    or the envelope of the first omitted term misses the accuracy target.
    When every term and the exponential part round to zero, and the
    exponential part and the error bound lie below the smallest subnormal,
    the value is returned as zero.
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
            try:
                log_env = -k * log_az - math.lgamma(x)
            except OverflowError:
                # Gamma(x) > e^(1.7e308) zeroes every term; the zero rule
                # leaves |z| > beta^alpha > Gamma(x) / Gamma(x - alpha)
                # here, so the envelope falls at every k
                log_err = -math.inf
                break
            sin_fac = 1.0
        else:
            log_env = -k * log_az + math.lgamma(1.0 - x) - _LOG_PI
            sin_fac = math.sin(math.pi * x)
        if log_env >= min_log_env:
            if k == 2:
                return None  # growing from the first term: not asymptotic
            log_err = log_env  # envelope started growing: stop before this
            break
        min_log_env = log_env
        log_err = log_env
        scale = math.exp(log_env) if log_env > -745.0 else 0.0
        s += cmath.rect(scale * sin_fac, -k * phi)
        if abs(s) > 0.0 and log_env < math.log(abs(s)) - 41.5:
            break
    value = -s
    log_exp = -math.inf  # log magnitude of the exponential part
    if abs(phi) < alpha * math.pi:
        log_w = cmath.log(zc) / alpha
        if log_w.real > 700.0:
            # |w| > e^700: e^w overflows, or vanishes when Re w < 0
            if math.cos(log_w.imag) > 0.0:
                raise _overflow(alpha, beta, z)
        else:
            w = cmath.exp(log_w)
            if w.real > 700.0:
                raise _overflow(alpha, beta, z)
            log_exp = w.real + (1.0 - beta) / alpha * log_az - math.log(alpha)
            value = value + zc ** ((1.0 - beta) / alpha) * cmath.exp(w) / alpha
    err = math.exp(min(log_err, 700.0))
    if abs(value) > 0.0 and err <= 0.05 * _REL_TOL * abs(value):
        return complex(value.real) if zc.imag == 0.0 else value
    # every term and the exponential part rounded to zero, and neither the
    # exponential part nor the omitted terms reach the smallest subnormal
    if value == 0 and max(log_exp, log_err) < math.log(math.ulp(0.0)):
        return 0j
    return None


def _series_mp(alpha, beta, z):
    """Power series in extended precision sized to absorb cancellation."""
    # imported here: mpmath would be most of ``import fracdyn``'s time, and
    # the float64 routes serve nearly every argument
    import mpmath

    log_peak, k_stop = _series_scales(alpha, beta, abs(z))
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
            if bb + aa == bb:
                # every gamma argument would be beta: no term ever shrinks
                raise NonConvergenceError(
                    f"series for E_{{{alpha},{beta}}}({z!r}): beta + "
                    f"alpha k rounds to beta at {dps} digits; argument "
                    "outside the supported regime")
            s = mpmath.mpf(0)
            zk = mpmath.mpf(1)
            stop = mpmath.mpf(10) ** (-(dps - 6))
            below = 0
            # summed until the stopping rule holds: a sum far below the
            # peak (E_{1.001}(-200) ~ 5e-6 under a peak near e^200) needs
            # terms past the a-priori k_stop
            for k in range(_MAX_TERMS_MP + 1):
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
                    f"within {_MAX_TERMS_MP} terms"
                )
            # digits actually cancelled; invisible a priori because the
            # result magnitude enters (e.g. E_1(-50) = e^-50)
            if abs(s) > 0:
                lost = (log_peak / math.log(10.0)
                        - float(mpmath.log10(abs(s))))
            else:
                lost = peak_digits + dps
            if dps - lost >= 18.0:
                if is_complex:
                    out = complex(s)
                else:
                    out = float(s)
                if not (abs(out) < math.inf):
                    raise _overflow(alpha, beta, z)
                return complex(out)
            dps = int(lost + 25)
    raise NonConvergenceError(
        f"E_{{{alpha},{beta}}}({z!r}): could not certify the accuracy target"
    )


_EPS = 2.220446049250313e-16
_LOG_EPS = math.log(_EPS)
# quadrature targets, relaxed tenfold while the fewest nodes still exceed N
_CONTOUR_TARGETS = (1e-15, 1e-14, 1e-13)
_CONTOUR_MAX_NODES = 200
_ROUND_SAFETY = 4.0


def _optimal_rb(phi_j, phi_j1, p, log_tol):
    """Garrappa's OptimalParam_RB: (mu, h, N) for the parabola between the
    singularities with phi = phi_j and phi_j1, of strengths p and 1."""
    f_max = math.exp(log_tol - _LOG_EPS)
    sq_j = math.sqrt(phi_j)
    sq_j1 = min(math.sqrt(phi_j1), 2.0 * math.sqrt(log_tol - _LOG_EPS) - sq_j)
    if p < 1e-14:
        f_min = 1.01 * sq_j / (sq_j1 - sq_j) if sq_j > 0.0 else 1.01
        if f_min >= f_max:
            return None
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fq = 1.0 / f_bar
        bar_j = sq_j
        bar_j1 = (2.0 * sq_j1 - fq * sq_j) / (2.0 + fq)
    else:
        try:
            f_min = 1.01 * (sq_j + sq_j1) / (sq_j1 - sq_j) ** max(p, 1.0)
        except (OverflowError, ZeroDivisionError):
            return None  # the power leaves the double range for a large p
        if f_min >= f_max:
            return None
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p)
        fq = 1.0 / f_bar
        w = -phi_j1 / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        bar_j = ((2.0 + w + fq) * sq_j + fp * sq_j1) / den
        bar_j1 = (-(1.0 + w) * fq * sq_j
                  + (2.0 + w - (1.0 + w) * fp) * sq_j1) / den
    log_tol -= math.log(f_bar)
    w = -bar_j1 * bar_j1 / log_tol
    mid = (1.0 + w) * bar_j + bar_j1
    mu = (mid / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (bar_j1 - bar_j) / mid
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _optimal_ru(phi_j, p, log_tol):
    """Garrappa's OptimalParam_RU: (mu, h, N) for the parabola right of the
    rightmost singularity, phi = phi_j of strength p."""
    sq_j = math.sqrt(phi_j)
    phi_bar = 1.01 * phi_j if phi_j > 0.0 else 0.01
    sq_bar = math.sqrt(phi_bar)
    for _ in range(50):
        log_ratio = log_tol / phi_bar
        n = math.ceil(phi_bar / math.pi * (
            1.0 - 1.5 * log_ratio + math.sqrt(1.0 - 2.0 * log_ratio)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        try:
            if p < 1e-14 or 1.0 < ((sq_bar - sq_j) / sq_mu) ** (-p) < 10.0:
                break
        except OverflowError:
            pass  # the power is far above 10 for a large p
        sq_bar = 5.0 ** (-1.0 / p) * sq_mu + sq_j
        phi_bar = sq_bar * sq_bar
    else:
        return None
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # keep the rounding of e^mu below the target
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * sq_mu
        phi_bar = (q + sq_j) ** 2
        if phi_bar >= threshold:
            return None
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phi_bar / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _contour(alpha, beta, z):
    """Inverse Laplace transform on Garrappa's optimal parabola.

    E_{a,b}(z) = (1/2 pi i) int e^s s^(a-b) / (s^a - z) ds along
    s(u) = mu (1 + iu)^2, plus the residues (1/a) s*^(1-b) e^(s*) of the poles
    s* of 1/(s^a - z) right of the parabola (R. Garrappa, SIAM J. Numer. Anal.
    53(3), 2015; parabolic contours after Weideman & Trefethen, Math. Comp.
    76, 2007).  (mu, h, N) come from the region between singularities that
    needs the fewest nodes N at the target 1e-15, relaxed tenfold while
    N > 200.  The trapezoid rule runs at step h/2 over |u| <= N h.  The value
    is accepted only when each of these stays inside _REL_TOL: its
    difference from the step-h sum (every other node), the geometric bound
    on the omitted tail, and the rounding bound.

    Returns the value (real-valued for real z), or None when a check fails
    or a residue would overflow.
    """
    zc = complex(z)
    if math.log(abs(zc)) > 700.0 * alpha:
        return None  # |s*| = |z|^(1/a) is out of the double range
    r = abs(zc) ** (1.0 / alpha)
    theta = cmath.phase(zc)
    ks = range(math.ceil(-alpha / 2.0 - theta / (2.0 * math.pi)),
               math.floor(alpha / 2.0 - theta / (2.0 * math.pi)) + 1)
    # phi(s) = (Re s + |s|)/2 is the mu of the parabola through s; poles on
    # the negative real axis (phi = 0) lie left of every parabola
    right = sorted(
        (s for s in (cmath.rect(r, (theta + 2.0 * math.pi * k) / alpha)
                     for k in ks) if s.real + abs(s) > 2e-15),
        key=lambda s: s.real + abs(s))
    phis = [0.0] + [(s.real + abs(s)) / 2.0 for s in right] + [math.inf]
    strength = [max(0.0, -2.0 * (alpha - beta + 1.0))] + [1.0] * len(right)
    # regions whose left singularity keeps e^mu's rounding below the target
    regions = [j for j in range(len(right) + 1)
               if phis[j] < math.log(_CONTOUR_TARGETS[0]) - _LOG_EPS
               and phis[j] < phis[j + 1]]
    for target in _CONTOUR_TARGETS:
        log_tol = math.log(target)
        best = None
        for j in regions:
            if j < len(right):
                params = _optimal_rb(phis[j], phis[j + 1], strength[j],
                                     log_tol)
            else:
                params = _optimal_ru(phis[j], strength[j], log_tol)
            if params is not None and (best is None or params[2] < best[2]):
                best, region = params, j
        if best is not None and best[2] <= _CONTOUR_MAX_NODES:
            break
    else:
        return None
    mu, h, n = best
    # imported here, like mpmath, so that ``import fracdyn`` stays light
    import numpy as np

    poles = right[region:]
    exponents = [s + (1.0 - beta) * cmath.log(s) for s in poles]
    if any(x.real > 700.0 for x in exponents):
        return None
    residues = [cmath.exp(x) / alpha for x in exponents]

    step = 0.5 * h
    u = step * np.arange(-2 * n, 2 * n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    log_s = np.log(s)
    s_alpha = np.exp(alpha * log_s)
    pole = s_alpha - zc
    terms = np.exp(s + (alpha - beta) * log_s) / pole * (2.0 * mu * (1j - u))
    fine = complex(terms.sum()) * (step / (2j * math.pi))
    coarse = complex(terms[::2].sum()) * (h / (2j * math.pi))
    value = fine + sum(residues)
    mag = np.abs(terms)
    # truncation: the nodes decay like e^(-mu u^2), so the omitted tail on
    # each side is below a geometric series at the last nodes' ratio
    tail = 0.0
    for last, inner in ((mag[0], mag[1]), (mag[-1], mag[-2])):
        if not last < inner:
            return None
        tail += step / (2.0 * math.pi) * last / (1.0 - last / inner)
    # rounding: a node is off by ~eps (|s| + |s^a| / |s^a - z|) of itself,
    # from the phase of e^s and the cancellation in s^a - z; a residue by
    # ~eps |s*| (1 + |log |s*||), the error of s* = |z|^(1/a) e^(i arg/a)
    bound = _EPS * (
        step / (2.0 * math.pi) * float(mag @ (
            _ROUND_SAFETY + mu * (1.0 + u * u)
            + np.abs(s_alpha) / np.abs(pole)))
        + sum(abs(res) * (_ROUND_SAFETY
                          + abs(p) * (1.0 + abs(math.log(abs(p)))))
              for res, p in zip(residues, poles)))
    scale = _REL_TOL * abs(value)
    if not (abs(fine - coarse) <= scale and tail <= scale and bound <= scale):
        return None
    return complex(value.real) if zc.imag == 0.0 else value


def _negligible(alpha, beta, z):
    """True when a bound puts |E_{alpha,beta}(z)|, beta >= 180, below half
    the smallest subnormal.  With s = alpha k, log Gamma's convexity,
    psi(beta) > log(beta) - 1/beta and psi' > 1/x bound the k-th term by
    2^-k / Gamma(beta) for |z| <= (beta e^(-1/beta))^alpha / 2, so |E| <=
    2 / Gamma(beta); and for |z| <= beta^alpha by e^(1 - s^2 / (4 beta)) /
    Gamma(beta) while s <= beta and e^(-s/5) / Gamma(beta) past it, so |E|
    <= 3 beta / (alpha Gamma(beta)), where (beta - 1/2) log(beta) - beta
    bounds log Gamma(beta) from below.  For real z < 0 and alpha <= 1, E is
    completely monotone in -z (Schneider, Expo. Math. 14, 1996), so 0 <= E
    <= 1 / Gamma(beta)."""
    if z == 0 or (z.imag == 0.0 and z.real < 0.0 and alpha <= 1.0):
        return True
    log_az, log_beta = math.log(abs(z)), math.log(beta)
    return log_az <= alpha * (log_beta - 1.0 / beta) - math.log(2.0) or (
        log_az <= alpha * log_beta
        and math.log(3.0 / alpha) + log_beta + beta - (beta - 0.5) * log_beta
        < math.log(math.ulp(0.0)) - math.log(2.0))


def ml_two(alpha, beta, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta)

    Parameters
    ----------
    alpha : float in (0, 2]
    beta : float > 0
    z : real or complex argument

    Returns a float for real ``z``, a complex for complex ``z``.  Accuracy is
    1e-10 relative or better for |z| <= 50.  A value below the double range
    comes back as 0.0 or a subnormal.

    Raises ``ValueError`` for parameters outside the supported domain,
    ``OverflowError`` when the value exceeds the double range and
    ``NonConvergenceError`` when the accuracy target cannot be certified.
    """
    value, _route = ml_route(alpha, beta, z)
    if isinstance(z, complex):
        return value
    return value.real


def ml_route(alpha, beta, z):
    """E_{alpha,beta}(z) as a complex, and the name of the route that
    evaluated it: ``zero``, ``exp``, ``asymptotic``, ``contour`` or
    ``mpmath``.  Raises what ``ml_two`` raises.
    """
    _validate(alpha, beta, z)
    alpha, beta = float(alpha), float(beta)
    if beta >= _BETA_NEGLIGIBLE and _negligible(alpha, beta, complex(z)):
        return 0j, "zero"
    if z == 0:
        try:
            return complex(1.0 / math.gamma(beta)), "zero"
        except OverflowError:
            # past Gamma's double range (beta > 171.62) 1/Gamma(beta) is a
            # subnormal up to beta ~ 178.4.  Nine steps of Gamma(b + 1) =
            # b Gamma(b) bring Gamma back into range, and one division
            # rounds into the subnormals: within 5e-324 of mpmath's
            # rgamma, where exp(-lgamma(beta)) is 6e-322 off
            steps = math.prod(beta - j for j in range(1, 10))
            return complex(1.0 / math.gamma(beta - 9.0) / steps), "zero"
    zr = complex(z)
    if alpha == 1.0 and beta == 1.0:
        try:
            if zr.imag == 0.0:
                return complex(math.exp(zr.real)), "exp"
            return cmath.exp(zr), "exp"
        except OverflowError:
            raise _overflow(alpha, beta, z) from None

    if alpha < 1.0 and abs(z) > 1.0:
        value = _asymptotic(alpha, beta, z)
        if value is not None:
            return value, "asymptotic"

    value = _contour(alpha, beta, z)
    if value is not None:
        return value, "contour"

    if zr.imag == 0.0 and zr.real > 1.0 and _series_overflows(
            alpha, beta, zr.real):
        raise _overflow(alpha, beta, z)
    return _series_mp(alpha, beta, z), "mpmath"


def ml_one(alpha, z):
    """One-parameter Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z).

    The solution of the linear relaxation equation of order alpha is
    x(t) = x(0) * E_alpha(lambda * t**alpha).
    """
    return ml_two(alpha, 1.0, z)
