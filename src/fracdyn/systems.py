"""Catalog of five benchmark chaotic systems and equilibrium analysis.

Parameters default to the published values for each model.  All fields and
Jacobians are hand-coded; ``find_equilibria`` runs a damped Newton iteration
from a guess lattice and returns equilibria together with the spectrum of
the Jacobian there.

The Duffing oscillator is a scalar equation with two derivative orders
    D^alpha x + delta * D^order_beta x + gamma * x + cubic_coeff * x^3
        = forcing_amp * cos(forcing_freq * t)
and is built as its commensurate chain: n stages of the base order q that
``commensurate_order`` finds (q = 0.1, n = 9 for the default orders).  (Its
published form reuses one symbol for both the second derivative order and
the cubic coefficient; here they are named `order_beta` and `cubic_coeff`.)

``_CATALOG`` holds one record per system: its builder, published
parameters, default order(s), leading order first, and default x0.  One
rule sets every system's orders: a number sets the leading order and the
others keep their defaults; a sequence must hold exactly as many orders as
the defaults, so a one-order system takes a number only; every order lies
in (0, 1], and the orders descend strictly.  With ``commensurate_order``'s
rule, that Duffing's orders share a base order, every rule about orders
lives in this module.
"""

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, IncommensurableOrdersError
from .solvers import SystemSpec

logger = logging.getLogger(__name__)


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
        entry = _CATALOG[self.name]
        merged = dict(entry.params)
        if self.params:
            unknown = set(self.params) - set(merged)
            if unknown:
                raise ConfigError(
                    f"unknown parameter(s) for {self.name}: {sorted(unknown)}")
            merged.update({k: float(v) for k, v in self.params.items()})
        if any(not math.isfinite(v) for v in merged.values()):
            raise ConfigError(f"non-finite parameter in {merged}")
        object.__setattr__(self, "params", merged)
        orders, value = entry.orders, self.alpha
        if value is not None:
            try:
                if np.ndim(value) == 0:
                    orders = (_order(value),) + orders[1:]
                elif len(value) == len(orders) > 1:
                    orders = tuple(_order(v) for v in value)
                else:
                    raise TypeError(value)
            except (TypeError, ValueError):
                more = f" or {len(orders)} numbers" if len(orders) > 1 else ""
                raise ConfigError(
                    f"alpha must be a number{more}, got {value!r}") from None
        alpha = orders if len(orders) > 1 else orders[0]
        if not all(0.0 < o <= 1.0 for o in orders):
            raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
        # the chain leads with alpha, so each later order (Duffing's
        # order_beta) sits below the one before it
        if any(a <= b for a, b in zip(orders, orders[1:])):
            raise ConfigError(
                f"{self.name}'s alpha ({orders[0]}) must exceed its "
                f"order_beta ({orders[1]})")
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


def _lorenz(p, alpha, x0):
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

    return SystemSpec("lorenz", 3, field, jacobian), x0, alpha


def _chen(p, alpha, x0):
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

    return SystemSpec("chen", 3, field, jacobian), x0, alpha


def _rossler(p, alpha, x0):
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

    return SystemSpec("rossler", 3, field, jacobian), x0, alpha


def chua_nonlinearity(x, m0=-1.27, m1=-0.68):
    """Piecewise-linear diode characteristic m1*x + (m0-m1)*(|x+1|-|x-1|)/2."""
    return m1 * x + 0.5 * (m0 - m1) * (abs(x + 1.0) - abs(x - 1.0))


def _chua(p, alpha, x0):
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

    return SystemSpec("chua", 3, field, jacobian), x0, alpha


# how far an order may sit from its rational form and from a multiple of q
_ORDER_TOL = 1e-9


def commensurate_order(orders) -> float:
    """Largest base order q such that every order is an integer multiple.

    Orders are rationalized with denominators up to 1000; raises
    ``IncommensurableOrdersError`` when no common base exists within
    ``_ORDER_TOL``.
    """
    fracs = []
    for o in orders:
        fr = Fraction(o).limit_denominator(1000)
        if abs(float(fr) - o) > _ORDER_TOL:
            raise IncommensurableOrdersError(
                f"order {o} is not a ratio of small integers")
        fracs.append(fr)
    base = fracs[0]
    for fr in fracs[1:]:
        # gcd of fractions: gcd of numerators / lcm of denominators
        base = Fraction(math.gcd(base.numerator * fr.denominator,
                                 fr.numerator * base.denominator),
                        base.denominator * fr.denominator)
    q = float(base)
    for o in orders:
        if abs(round(o / q) - o / q) > _ORDER_TOL / q:
            raise IncommensurableOrdersError(
                f"order {o} is not an integer multiple of base {q}")
    return q


def _chain_observables(n):
    """The observables of an n-stage chain: its first stage, the scalar
    itself, and its last."""
    return (0, n - 1)


def _duffing(p, alpha, x0):
    """Duffing's scalar equation as its commensurate chain.

    With base order q = commensurate_order(alpha), n = alpha / q and
    r = order_beta / q, the stages y_i = D^(i q) x, i < n, obey

        D^q y_i     = y_{i+1}                                  (i < n - 1)
        D^q y_{n-1} = famp cos(freq t) - gam y_0 - cubic y_0^3 - delta y_r

    The chain's x0 pads x(0) with zeros, its order is q, and its
    ``observables`` are y_0 (x itself) and y_{n-1}.
    """
    delta, gam = p["delta"], p["gamma"]
    cubic, famp, freq = p["cubic_coeff"], p["forcing_amp"], p["forcing_freq"]
    q = commensurate_order(alpha)
    n, r = (int(round(o / q)) for o in alpha)
    # y[shift] is y moved up one row; its last entry is overwritten
    shift = np.minimum(np.arange(1, n + 1), n - 1)
    template = np.eye(n, k=1)
    template[n - 1, r] = -delta

    def field(t, y):
        dy = y[shift]
        x = y[0]
        dy[-1] = (famp * math.cos(freq * t) - gam * x - cubic * x ** 3
                  - delta * y[r])
        return dy

    def jacobian(t, y):
        jac = _from_template(template, y)
        x = y[..., 0]
        jac[..., n - 1, 0] += -gam - 3.0 * cubic * x * x
        return jac

    x0_chain = np.zeros(n)
    x0_chain[0] = x0[0]
    system = SystemSpec("duffing", n, field, jacobian,
                        params={"base_order": q},
                        observables=_chain_observables(n))
    return system, tuple(x0_chain), q


class _System(NamedTuple):
    """One catalog record; ``build(params, alpha, x0)`` returns the
    SystemSpec with its x0 and its order, and a chain's ``observables(n)``
    the observables it marks at n stages."""

    build: Callable
    params: dict
    orders: tuple  # leading order first
    x0: tuple
    observables: Optional[Callable] = None


_CATALOG = {
    "lorenz": _System(_lorenz, {"sigma": 10.0, "rho": 28.0,
                                "beta": 8.0 / 3.0},
                      (0.995,), (1.0, 1.0, 1.0)),
    # (alpha, order_beta) from the published chaotic regime; x0 is x(0)
    "duffing": _System(_duffing, {"delta": 0.2, "gamma": 1.0,
                                  "cubic_coeff": 5.0, "forcing_amp": 0.3,
                                  "forcing_freq": 1.2},
                       (0.9, 0.8), (0.1,), _chain_observables),
    "chen": _System(_chen, {"a": 35.0, "b": 3.0, "c": 28.0},
                    (0.9,), (-9.0, -5.0, 14.0)),
    "rossler": _System(_rossler, {"a": 0.2, "b": 0.2, "c": 5.7},
                       (0.9,), (1.0, 1.0, 0.0)),
    "chua": _System(_chua, {"a": 9.8, "b": 14.87, "m0": -1.27, "m1": -0.68},
                    (0.98,), (0.7, 0.0, 0.0)),
}

BENCHMARK_NAMES = tuple(_CATALOG)


def make_system(bid: BenchmarkId) -> SystemSpec:
    """Build the SystemSpec for a catalog system.

    Duffing comes back as its commensurate chain (9 stages of base order
    0.1 at the default orders; orders with no common base raise
    ``IncommensurableOrdersError``), with ``observables`` marking x and
    its highest stage D^(alpha - q) x; everything else is a plain 3-d
    field.
    """
    if isinstance(bid, str):
        bid = BenchmarkId(name=bid)
    entry = _CATALOG[bid.name]
    system, x0, alpha = entry.build(bid.params, bid.alpha, entry.x0)
    params = {**bid.params, **system.params, "default_x0": x0,
              "default_alpha": alpha}
    return replace(system, name=bid.name, params=params)


def observable_columns(name: str, dim: int) -> list:
    """The 0-based state columns that carry the physical coordinates of a
    ``dim``-state trajectory of system ``name``: the observables that
    ``make_system`` marks on a chain of that many stages (Duffing's x and
    its highest stage), or all ``dim`` for any other system, a name outside
    the catalog included."""
    entry = _CATALOG.get(name)
    if entry is None or entry.observables is None:
        return list(range(dim))
    return list(entry.observables(dim))


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
