"""Catalog of five benchmark chaotic systems and equilibrium analysis.

Parameters default to the published values for each model.  All fields and
Jacobians are hand-coded; ``find_equilibria`` runs a damped Newton iteration
from a guess lattice and returns equilibria together with the spectrum of
the Jacobian there.

The Duffing oscillator is a scalar equation with two derivative orders
    D^alpha x + delta * D^order_beta x + gamma * x + cubic_coeff * x^3
        = forcing_amp * cos(forcing_freq * t)
and is returned pre-commensurized as a chain of order-0.1 stages.  (Its
published form reuses one symbol for both the second derivative order and
the cubic coefficient; here they are named `order_beta` and `cubic_coeff`.)
"""

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .solvers import MultiTermSpec, SystemSpec, multi_term_to_system

logger = logging.getLogger(__name__)

BENCHMARK_NAMES = ("lorenz", "duffing", "chen", "rossler", "chua")

_DEFAULT_PARAMS = {
    "lorenz": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
    "duffing": {"delta": 0.2, "gamma": 1.0, "cubic_coeff": 5.0,
                "forcing_amp": 0.3, "forcing_freq": 1.2},
    "chen": {"a": 35.0, "b": 3.0, "c": 28.0},
    "rossler": {"a": 0.2, "b": 0.2, "c": 5.7},
    "chua": {"a": 9.8, "b": 14.87, "m0": -1.27, "m1": -0.68},
}

# fractional order(s) used when the caller does not pick one; Duffing's pair
# is (alpha, order_beta) from its published chaotic regime
_DEFAULT_ALPHA = {
    "lorenz": 0.995,
    "duffing": (0.9, 0.8),
    "chen": 0.9,
    "rossler": 0.9,
    "chua": 0.98,
}

_DEFAULT_X0 = {
    "lorenz": (1.0, 1.0, 1.0),
    "duffing": (0.1,),          # x(0); the chain pads with zeros
    "chen": (-9.0, -5.0, 14.0),
    "rossler": (1.0, 1.0, 0.0),
    "chua": (0.7, 0.0, 0.0),
}


def _order(value):
    """``float(value)`` for a derivative order; a bool is not a number."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


@dataclass(frozen=True)
class BenchmarkId:
    """Identifies a catalog system plus its parameter values and order(s)."""

    name: str
    params: dict = None
    alpha: object = None  # float, or (alpha, order_beta) for duffing

    def __post_init__(self):
        if self.name not in BENCHMARK_NAMES:
            raise ConfigError(
                f"unknown system {self.name!r}; "
                f"known: {', '.join(BENCHMARK_NAMES)}")
        merged = dict(_DEFAULT_PARAMS[self.name])
        if self.params:
            unknown = set(self.params) - set(merged)
            if unknown:
                raise ConfigError(
                    f"unknown parameter(s) for {self.name}: {sorted(unknown)}")
            merged.update({k: float(v) for k, v in self.params.items()})
        if any(not math.isfinite(v) for v in merged.values()):
            raise ConfigError(f"non-finite parameter in {merged}")
        object.__setattr__(self, "params", merged)
        alpha = self.alpha if self.alpha is not None else _DEFAULT_ALPHA[self.name]
        try:
            if self.name != "duffing":
                alpha = _order(alpha)
            elif np.isscalar(alpha):
                alpha = (_order(alpha), _DEFAULT_ALPHA["duffing"][1])
            else:
                alpha = (_order(alpha[0]), _order(alpha[1]))
        except (TypeError, ValueError, IndexError):
            raise ConfigError(
                f"alpha must be a number, got {alpha!r}") from None
        if self.name == "duffing":
            if not all(0.0 < o <= 1.0 for o in alpha):
                raise ConfigError(f"orders must lie in (0, 1], got {alpha}")
            # the chain leads with alpha, so the damping order sits below it
            if alpha[0] <= alpha[1]:
                raise ConfigError(
                    f"duffing's alpha ({alpha[0]}) must exceed its "
                    f"order_beta ({alpha[1]})")
        else:
            if not (0.0 < alpha <= 1.0):
                raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        # domain guards beyond finiteness
        if self.name == "lorenz" and merged["beta"] == 0.0:
            raise ConfigError("lorenz requires beta != 0")
        if self.name == "chen" and merged["b"] == 0.0:
            raise ConfigError("chen requires b != 0")


def _from_template(template, x):
    """Jacobians at states ``x`` of shape (..., dim): copies of the constant
    ``template`` stacked over the leading axes, for the state-dependent
    entries to be set."""
    return np.broadcast_to(template, x.shape[:-1] + template.shape).copy()


def _lorenz(p):
    sigma, rho, beta = p["sigma"], p["rho"], p["beta"]
    template = np.array([
        [-sigma, sigma, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -beta],
    ])

    def field(t, x):
        x0, x1, x2 = x.tolist()
        return np.array((
            sigma * (x1 - x0),
            x0 * (rho - x2) - x1,
            x0 * x1 - beta * x2,
        ))

    def jacobian(t, x):
        jac = _from_template(template, x)
        jac[..., 1, 0] = rho - x[..., 2]
        jac[..., 1, 2] = -x[..., 0]
        jac[..., 2, 0] = x[..., 1]
        jac[..., 2, 1] = x[..., 0]
        return jac

    return field, jacobian


def _chen(p):
    a, b, c = p["a"], p["b"], p["c"]
    template = np.array([
        [-a, a, 0.0],
        [0.0, c, 0.0],
        [0.0, 0.0, -b],
    ])

    def field(t, x):
        x0, x1, x2 = x.tolist()
        return np.array((
            a * (x1 - x0),
            (c - a) * x0 - x0 * x2 + c * x1,
            x0 * x1 - b * x2,
        ))

    def jacobian(t, x):
        jac = _from_template(template, x)
        jac[..., 1, 0] = c - a - x[..., 2]
        jac[..., 1, 2] = -x[..., 0]
        jac[..., 2, 0] = x[..., 1]
        jac[..., 2, 1] = x[..., 0]
        return jac

    return field, jacobian


def _rossler(p):
    a, b, c = p["a"], p["b"], p["c"]
    template = np.array([
        [0.0, -1.0, -1.0],
        [1.0, a, 0.0],
        [0.0, 0.0, 0.0],
    ])

    def field(t, x):
        x0, x1, x2 = x.tolist()
        return np.array((
            -x1 - x2,
            x0 + a * x1,
            b + x2 * (x0 - c),
        ))

    def jacobian(t, x):
        jac = _from_template(template, x)
        jac[..., 2, 0] = x[..., 2]
        jac[..., 2, 2] = x[..., 0] - c
        return jac

    return field, jacobian


def chua_nonlinearity(x, m0=-1.27, m1=-0.68):
    """Piecewise-linear diode characteristic m1*x + (m0-m1)*(|x+1|-|x-1|)/2."""
    return m1 * x + 0.5 * (m0 - m1) * (abs(x + 1.0) - abs(x - 1.0))


def _chua(p):
    a, b, m0, m1 = p["a"], p["b"], p["m0"], p["m1"]
    template = np.array([
        [0.0, a, 0.0],
        [1.0, -1.0, 1.0],
        [0.0, -b, 0.0],
    ])

    def hprime(x):
        # one-sided slope at the |x| = 1 kinks (outer branch)
        return np.where(np.abs(x) < 1.0, m0, m1)

    def field(t, x):
        x0, x1, x2 = x.tolist()
        return np.array((
            a * (x1 - chua_nonlinearity(x0, m0, m1)),
            x0 - x1 + x2,
            -b * x1,
        ))

    def jacobian(t, x):
        jac = _from_template(template, x)
        jac[..., 0, 0] = -a * hprime(x[..., 0])
        return jac

    return field, jacobian


def make_system(bid: BenchmarkId) -> SystemSpec:
    """Build the SystemSpec for a catalog system.

    Duffing comes back as its 9-stage commensurate chain (base order 0.1
    for the default orders), with ``observables`` marking the two physical
    coordinates (x, D^order_beta x); everything else is a plain 3-d field.
    """
    if isinstance(bid, str):
        bid = BenchmarkId(name=bid)
    p = bid.params
    name = bid.name
    if name == "duffing":
        delta, gam = p["delta"], p["gamma"]
        cubic, famp, freq = p["cubic_coeff"], p["forcing_amp"], p["forcing_freq"]

        def rhs(t, x):
            return famp * math.cos(freq * t) - gam * x - cubic * x ** 3

        def rhs_dx(t, x):
            return -gam - 3.0 * cubic * x * x

        mt = MultiTermSpec(orders=bid.alpha, coeffs=(1.0, delta), rhs=rhs,
                           x0=_DEFAULT_X0["duffing"][0], name="duffing",
                           rhs_dx=rhs_dx)
        system, x0_chain = multi_term_to_system(mt)
        params = dict(p)
        params.update(system.params)
        params["default_x0"] = tuple(x0_chain)
        params["default_alpha"] = system.params["base_order"]
        return SystemSpec(name="duffing", dim=system.dim, field=system.field,
                          jacobian=system.jacobian, params=params,
                          observables=system.observables)

    builders = {"lorenz": _lorenz, "chen": _chen, "rossler": _rossler,
                "chua": _chua}
    field, jacobian = builders[name](p)
    params = dict(p)
    params["default_x0"] = _DEFAULT_X0[name]
    params["default_alpha"] = bid.alpha
    return SystemSpec(name=name, dim=3, field=field, jacobian=jacobian,
                      params=params)


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    eigenvalues: np.ndarray  # complex, sorted by descending real part


def default_guesses(dim: int) -> np.ndarray:
    """Guess lattice for equilibrium search.

    3-dim systems get the 27-point lattice {-20, 0, 20}^3; other dimensions
    get the origin plus +-20 along each axis.
    """
    if dim == 3:
        g = np.array(np.meshgrid(*[[-20.0, 0.0, 20.0]] * 3)).reshape(3, -1).T
        return g
    pts = [np.zeros(dim)]
    for i in range(dim):
        for s in (-20.0, 20.0):
            v = np.zeros(dim)
            v[i] = s
            pts.append(v)
    return np.array(pts)


def jacobian_eigenvalues(system: SystemSpec, point, t: float = 0.0) -> np.ndarray:
    """Spectrum of the Jacobian at a point, sorted by descending real part."""
    if system.jacobian is None:
        raise ConfigError(f"system {system.name!r} has no Jacobian")
    jac = np.asarray(system.jacobian(t, np.asarray(point, dtype=float)))
    eig = np.linalg.eigvals(jac)
    order = np.lexsort((-eig.imag, -eig.real))
    return eig[order]


# a Newton search converges at |field| < _NEWTON_TOL in _NEWTON_MAX_ITER steps
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100


def find_equilibria(system: SystemSpec, guesses: Optional[np.ndarray] = None,
                    t: float = 0.0):
    """Damped-Newton equilibrium search from each guess.

    Solves field(t, x) = 0 (forced systems are frozen at time ``t``).
    Newton steps are halved until the residual norm decreases; guesses that
    fail to converge are dropped.  Converged roots are de-duplicated at
    pairwise distance 1e-6 and returned as ``Equilibrium`` records with the
    eigenvalues of the analytic Jacobian, sorted by descending real part.
    """
    if system.jacobian is None:
        raise ConfigError(f"system {system.name!r} has no Jacobian")
    if not math.isfinite(t):
        raise ConfigError(f"t must be finite, got {t}")
    if guesses is None:
        guesses = default_guesses(system.dim)
    guesses = np.atleast_2d(np.asarray(guesses, dtype=float))
    found = []
    dropped = 0
    for g in guesses:
        x = g.copy()
        converged = False
        fx = np.asarray(system.field(t, x), dtype=float)
        for _ in range(_NEWTON_MAX_ITER):
            res = np.linalg.norm(fx)
            if res < _NEWTON_TOL:
                converged = True
                break
            try:
                step = np.linalg.solve(system.jacobian(t, x), -fx)
            except np.linalg.LinAlgError:
                break
            lam = 1.0
            for _ in range(30):
                x_new = x + lam * step
                f_new = np.asarray(system.field(t, x_new), dtype=float)
                if np.linalg.norm(f_new) < res:
                    break
                lam *= 0.5
            else:
                break  # no damping factor reduced the residual
            x, fx = x_new, f_new
        else:
            converged = np.linalg.norm(fx) < _NEWTON_TOL
        if not converged:
            dropped += 1
            continue
        if any(np.linalg.norm(x - e.point) <= 1e-6 for e in found):
            continue
        found.append(Equilibrium(
            point=x,
            eigenvalues=jacobian_eigenvalues(system, x, t=t),
        ))
    if dropped:
        logger.info("find_equilibria: %d of %d guesses did not converge",
                    dropped, len(guesses))
    return found
