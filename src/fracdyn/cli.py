"""Command-line front end: simulate, analyze, and report.

Subcommands
-----------
simulate      integrate a catalog system and write its trajectory
              (.npz, or CSV text for any other suffix)
lyapunov      exponent spectrum + stability report as a JSON document
dimension     box-counting dimension of a trajectory's point cloud
stability     equilibria, critical orders alpha*, saddle-focus condition
mlf           evaluate the one/two-parameter Mittag-Leffler function
list-systems  one line per catalog system with defaults
reproduce     run the full pipeline for a documented benchmark case

Configuration precedence is flags > config document (--config JSON) >
catalog defaults.  ``reproduce N`` passes case N's row of ``_CASES`` as the
config document, so it writes exactly what ``simulate``, ``lyapunov``,
``dimension --transient 0.2`` (on its own ``trajectory.npz``) and
``stability`` write for the case's settings, plus ``comparison.txt``.

Each equilibrium of the stability report is stable at order alpha iff
alpha < alpha*; ``criteria.saddle_focus_unstable`` (some index-2
saddle-focus with alpha > alpha*) is necessary for chaos, not a verdict.

All file writes are atomic (temp file + rename), JSON reports carry
``schema_version`` and fixed field order, and repeated identical
invocations produce byte-identical files.  Exit codes: 0 on success, 1 on
domain errors, 2 on usage errors.
"""

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from .chaos import (
    TANGENT_HISTORIES,
    classify_attractor,
    dimension_instability_check,
    lyapunov_spectrum,
    stability_report,
)
from .errors import ConfigError, FracdynError
from .geometry import box_dimension
from .mlf import ml_route
from .mlf import ml_two  # noqa: F401  (bench/run.py traces cli.ml_two)
from .solvers import (
    SolverConfig,
    atomic_write,
    read_trajectory,
    solve,
    write_trajectory,
)
# bench/run.py traces cli.write_trajectory_csv, which only a CSV path calls
from .solvers import write_trajectory_csv  # noqa: F401
from .systems import (BENCHMARK_NAMES, BenchmarkId, make_system,
                      observable_columns)

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 2


# --------------------------------------------------------------- plumbing

def _json_default(value):
    """``json.dumps`` hook for the values json cannot encode itself."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path, report):
    atomic_write(path, json.dumps(report, indent=2, default=_json_default)
                 + "\n")


# every key any command reads from a config document, so one document can
# serve several commands; any other key is a ConfigError
_CONFIG_KEYS = frozenset({
    "system", "params", "alpha", "x0", "h", "t_end", "t0", "scheme",
    "renorm_every", "transient", "tangent_history",
})


def _load_config_doc(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(
                f"config document {path!r} is not JSON: {err}") from None
        except UnicodeDecodeError as err:
            raise ConfigError(f"config document {path!r} is not UTF-8 "
                              f"text ({err.reason})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config document {path!r} must hold an object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(
            f"config document {path!r} has unknown key(s) "
            + ", ".join(repr(k) for k in unknown)
            + f"; known keys: {', '.join(sorted(_CONFIG_KEYS))}")
    return doc


def _number(kind, value, name):
    """``kind(value)`` for a flag or config value; ConfigError if it fails.

    No number takes a bool, and an integer takes no number with a
    fractional part, which ``int`` would truncate."""
    try:
        number = kind(value)
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and number != value):
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}") from None


def _resolve(args, doc, key, default=None, kind=None):
    """Flag, else config document, else ``default``; ``kind`` converts a
    value that is not None."""
    value = getattr(args, key, None)
    if value is None:
        value = doc.get(key, default)
    return value if kind is None or value is None else _number(
        kind, value, key)


class _UsageError(Exception):
    """A command line that argparse accepts but cannot run (exit code 2)."""


def _parse_params(pairs, doc):
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config key 'params' must hold an object")
    params = {k: _number(float, v, f"param {k}") for k, v in params.items()}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError(f"--param needs NAME=VALUE, got {pair!r}")
        params[name] = _number(float, value, f"--param {name}")
    return params


def _build_system(args, doc):
    name = _resolve(args, doc, "system")
    if name is None:
        raise _UsageError("--system is required (flag or config document)")
    params = _parse_params(getattr(args, "param", None), doc)
    return make_system(BenchmarkId(name=name, params=params,
                                   alpha=_resolve(args, doc, "alpha")))


def _parse_x0(x0, system):
    """Initial state from comma-separated text or a config list."""
    if isinstance(x0, str):
        x0 = x0.split(",")
    elif not isinstance(x0, list):
        x0 = [x0]
    values = np.array([_number(float, v, "x0") for v in x0])
    if values.size == system.dim:
        return values
    if system.observables and values.size == 1:
        padded = np.zeros(system.dim)
        padded[0] = values[0]
        return padded
    raise ConfigError(
        f"x0 needs {system.dim} components for {system.name}, "
        f"got {values.size}")


def _solver_config(args, doc, system):
    x0 = _resolve(args, doc, "x0")
    if x0 is None:
        x0 = np.asarray(system.params["default_x0"], dtype=float)
    else:
        x0 = _parse_x0(x0, system)
    return SolverConfig(
        alpha=float(system.params["default_alpha"]),
        h=_resolve(args, doc, "h", 0.005, float),
        t_end=_resolve(args, doc, "t_end", 100.0, float),
        x0=x0,
        t0=_resolve(args, doc, "t0", 0.0, float),
        scheme=_resolve(args, doc, "scheme", "gl"),
    )


# --------------------------------------------------------------- commands

def _cmd_simulate(args):
    doc = _load_config_doc(args.config)
    system = _build_system(args, doc)
    config = _solver_config(args, doc, system)
    traj = solve(system, config)
    write_trajectory(traj, args.out)
    print(f"wrote {traj.t.size} rows for {system.name} "
          f"(alpha={config.alpha}, scheme={config.scheme}) to {args.out}")
    return 0


def _stability_doc(system, alpha, t=0.0):
    """The ``stability`` report: equilibria, their critical orders and the
    saddle-focus condition."""
    equilibria = [{
        "point": a.equilibrium.point,
        "eigenvalues": list(a.equilibrium.eigenvalues),
        "margins": a.margins,
        "classification": a.classification,
        "alpha_star": a.alpha_star,
        "saddle_focus": a.saddle_focus,
    } for a in stability_report(system, alpha, t=t)]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "stability",
        "system": system.name,
        "alpha": alpha,
        "equilibria": equilibria,
        "criteria": {
            "saddle_focus_unstable": any(
                e["saddle_focus"] and e["classification"] == "unstable"
                for e in equilibria),
        },
    }


def _lyapunov_run(args, doc, system, config, base_trajectory=None):
    """Run the spectrum; return it with its stability and lyapunov reports."""
    renorm = _resolve(args, doc, "renorm_every", 10, int)
    tangent_history = _resolve(args, doc, "tangent_history", "restart")
    result = lyapunov_spectrum(
        system, config,
        renorm_every=renorm,
        transient=_resolve(args, doc, "transient", kind=float),
        tangent_history=tangent_history,
        base_trajectory=base_trajectory,
    )
    stab_doc = _stability_doc(system, config.alpha)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "lyapunov",
        "system": system.name,
        "alpha": config.alpha,
        "settings": {
            "h": config.h,
            "t_end": config.t_end,
            "t0": config.t0,
            "scheme": config.scheme,
            "renorm_every": renorm,
            "tangent_history": tangent_history,
            "transient_discarded": result.transient_discarded,
        },
        "exponents": result.exponents,
        "d_ky": result.d_ky,
        "classification": classify_attractor(result),
        "converged": result.converged,
        "drift": result.drift,
        "equilibria": stab_doc["equilibria"],
        "criteria": {
            **stab_doc["criteria"],
            "dimension_instability": dimension_instability_check(
                result.d_ky, result.exponents.size),
        },
    }
    return result, stab_doc, report


def _cmd_lyapunov(args):
    doc = _load_config_doc(args.config)
    system = _build_system(args, doc)
    config = _solver_config(args, doc, system)
    result, _, report = _lyapunov_run(args, doc, system, config)
    _write_json(args.out, report)
    lams = ", ".join(f"{v:.4f}" for v in result.exponents)
    print(f"{system.name}: exponents ({lams}), d_ky={result.d_ky:.4f}, "
          f"{report['classification']} -> {args.out}")
    return 0


def _parse_columns(text, traj):
    """0-based state columns from ``--columns`` text; without it, the
    observable columns of ``traj``'s system."""
    dim = traj.x.shape[1]
    if text is None:
        return observable_columns(traj.system_name, dim)
    cols = []
    for piece in text.split(","):
        idx = _number(int, piece, "--columns")
        if idx < 2 or idx > dim + 1:
            raise ConfigError(
                f"column {idx} out of range (2..{dim + 1}; column 1 is time)")
        cols.append(idx - 2)
    return cols


def _dimension_report(traj, input_name, cols, transient, **box_kwargs):
    """The ``dimension`` report: box-count state columns ``cols`` (0-based)
    after dropping the leading ``transient`` fraction of rows."""
    if not 0.0 <= transient < 1.0:
        raise ConfigError(
            f"transient must be a fraction in [0, 1), got {transient}")
    skip = int(round(transient * traj.x.shape[0]))
    every = cols == list(range(traj.x.shape[1]))
    pts = traj.x[skip:] if every else traj.x[skip:, cols]  # view or copy
    if pts.shape[0] == 0:
        raise ConfigError("transient fraction discards every row")
    res = box_dimension(pts, **box_kwargs)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "dimension",
        "input": input_name,
        "columns": [c + 2 for c in cols],
        "transient": transient,
        "n_points": pts.shape[0],
        "scales": res.scales,
        "counts": res.counts,
        "d_f": res.slope,
        "intercept": res.intercept,
        "r2": res.r2,
        "window": list(res.window),
    }


def _cmd_dimension(args):
    traj = read_trajectory(args.input)
    cols = _parse_columns(args.columns, traj)
    box_kwargs = {k: getattr(args, k) for k in ("eps_max", "eps_min", "levels")
                  if getattr(args, k) is not None}
    report = _dimension_report(traj, args.input, cols, args.transient,
                               **box_kwargs)
    _write_json(args.out, report)
    plot_out = args.plot_out
    if plot_out is None:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        plot_out = stem + ".plot.txt"
    lines = ["# log(1/eps) logN"]
    for eps, count in zip(report["scales"], report["counts"]):
        lines.append("%.17g %.17g" % (math.log(1.0 / eps), math.log(count)))
    atomic_write(plot_out, "\n".join(lines) + "\n")
    print(f"d_f={report['d_f']:.4f} (r2={report['r2']:.5f}, "
          f"{report['n_points']} points) -> {args.out}, {plot_out}")
    return 0


def _cmd_stability(args):
    doc = _load_config_doc(args.config)
    system = _build_system(args, doc)
    alpha = float(system.params["default_alpha"])
    report = _stability_doc(system, alpha, t=args.t)
    equilibria = report["equilibria"]
    if args.out:
        _write_json(args.out, report)
    n_stable = sum(e["classification"] == "stable" for e in equilibria)
    print(f"{system.name} at alpha={alpha}: {len(equilibria)} equilibria, "
          f"{n_stable} stable, saddle_focus_unstable="
          f"{report['criteria']['saddle_focus_unstable']} (necessary only)"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_mlf(args):
    z = complex(args.z)
    try:
        value, route = ml_route(args.alpha, args.beta, z)
    except (ValueError, OverflowError) as err:
        raise ConfigError(str(err)) from None
    print(f"route: {route}", file=sys.stderr)
    if args.out:
        _write_json(args.out, {
            "schema_version": SCHEMA_VERSION,
            "command": "mlf",
            "alpha": args.alpha,
            "beta": args.beta,
            "z": z,
            "value": value,
        })
    shown = value.real if value.imag == 0.0 else value
    print(f"E_[{args.alpha},{args.beta}]({args.z}) = {shown}")
    return 0


def _cmd_list_systems(args):
    for name in BENCHMARK_NAMES:
        bid = BenchmarkId(name=name)
        system = make_system(bid)
        if isinstance(bid.alpha, tuple):
            alpha = ",".join(repr(a) for a in bid.alpha)
        else:
            alpha = repr(bid.alpha)
        params = " ".join(f"{k}={bid.params[k]!r}" for k in bid.params)
        print(f"{name}  {system.dim}  {alpha}  {params}")
    return 0


# --------------------------------------------------------------- reproduce

# documented cases: each row is the config document of its run, plus the
# target values and qualitative claims that comparison.txt checks
_CASES = {
    1: {"system": "lorenz", "h": 0.005, "t_end": 500.0, "renorm_every": 20,
        "claims": [("classification", "strange"), ("d_ky_in", (2.0, 3.0))]},
    2: {"system": "duffing", "h": 0.01, "t_end": 300.0, "renorm_every": 10,
        "claims": [("lambda", 0, 0.143), ("lambda", 1, -0.245),
                   ("d_ky_near", 1.584)]},
    3: {"system": "chen", "h": 0.002, "t_end": 200.0, "renorm_every": 20,
        "claims": [("sign_pattern", None), ("d_ky_noninteger", None)]},
    4: {"system": "rossler", "h": 0.005, "t_end": 500.0, "renorm_every": 20,
        "claims": [("sign_pattern", None), ("d_ky_noninteger", None)]},
    5: {"system": "chua", "h": 0.002, "t_end": 200.0, "renorm_every": 20,
        "claims": [("sign_pattern", None), ("d_ky_noninteger", None)]},
}


def _band(err, pass_tol):
    """pass within ``pass_tol``, soft-pass within 0.15, else (NaN too) fail."""
    return ("pass" if err <= pass_tol
            else "soft-pass" if err <= 0.15 else "fail")


def _noninteger(value):
    return abs(value - round(value)) > 0.01


def _verdict_rows(claims, result, classification):
    lam, d_ky = result.exponents, result.d_ky
    rows = []
    for claim in claims:
        kind = claim[0]
        if kind == "classification":
            expected = claim[1]
            verdict = "pass" if classification == expected else "fail"
            rows.append(("classification", expected, classification, verdict))
        elif kind == "d_ky_in":
            lo, hi = claim[1]
            ok = lo < d_ky < hi and _noninteger(d_ky)
            rows.append(("kaplan-yorke dimension",
                         f"non-integer in ({lo}, {hi})",
                         f"{d_ky:.4f}", "pass" if ok else "fail"))
        elif kind == "lambda":
            idx, target = claim[1], claim[2]
            got = lam[idx] if idx < lam.size else float("nan")
            verdict = _band(abs(got - target), max(0.02, 0.1 * abs(target)))
            rows.append((f"exponent {idx + 1}", f"{target:+.3f}",
                         f"{got:+.4f}", verdict))
        elif kind == "d_ky_near":
            target = claim[1]
            rows.append(("kaplan-yorke dimension", f"{target:.3f}",
                         f"{d_ky:.4f}", _band(abs(d_ky - target), 0.05)))
        elif kind == "sign_pattern":
            l1, l2, l3 = lam[0], lam[1], lam[-1]
            if l1 > 0.01 and abs(l2) <= 0.05 and l3 < -0.01:
                verdict = "pass"
            elif l1 > 0.0 and l3 < 0.0 and abs(l2) <= 0.1:
                verdict = "soft-pass"
            else:
                verdict = "fail"
            rows.append(("exponent signs", "+, 0, -",
                         ", ".join(f"{v:+.4f}" for v in lam), verdict))
        elif kind == "d_ky_noninteger":
            ok = d_ky > 0.0 and _noninteger(d_ky)
            rows.append(("kaplan-yorke dimension", "non-integer",
                         f"{d_ky:.4f}", "pass" if ok else "fail"))
    return rows


def _format_table(example_id, system_name, rows):
    """comparison.txt: the header and one row per claim, in columns at
    least two spaces apart, with the verdict last on every line."""
    table = [("claim", "expected", "computed", "verdict")] + list(rows)
    widths = [max(len(r[k]) for r in table) + 2 for k in range(3)]
    lines = [f"benchmark case {example_id} ({system_name}): "
             "computed vs documented values"]
    for row in table:
        lines.append("".join(cell.ljust(w) for cell, w in zip(row, widths))
                     + row[3])
    return "\n".join(lines) + "\n"


def _cmd_reproduce(args):
    example_id = args.example
    case = _CASES[example_id]
    written = []

    def out(name):
        written.append(name)
        return os.path.join(args.out_dir, name)

    system = _build_system(args, case)
    config = _solver_config(args, case, system)
    traj = solve(system, config)
    result, stab_doc, report = _lyapunov_run(args, case, system, config, traj)
    cols = observable_columns(system.name, system.dim)
    dim_doc = _dimension_report(traj, "trajectory.npz", cols, 0.2)
    rows = _verdict_rows(case["claims"], result, report["classification"])
    # made after every report, so a case that fails leaves no directory
    os.makedirs(args.out_dir, exist_ok=True)
    write_trajectory(traj, out("trajectory.npz"))
    _write_json(out("lyapunov.json"), report)
    _write_json(out("dimension.json"), dim_doc)
    _write_json(out("stability.json"), stab_doc)
    atomic_write(out("comparison.txt"),
                 _format_table(example_id, system.name, rows))

    verdicts = [r[3] for r in rows]
    print(f"case {example_id} ({system.name}): {len(written)} artifacts in "
          f"{args.out_dir}; claims: {verdicts.count('pass')} pass, "
          f"{verdicts.count('soft-pass')} soft-pass, "
          f"{verdicts.count('fail')} fail")
    return 0


# ------------------------------------------------------------------ parser

def _add_system_flags(sp):
    sp.add_argument("--system", help="catalog system name (see list-systems)")
    sp.add_argument("--config", help="JSON document supplying flag defaults")
    sp.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="override one system parameter (repeatable)")
    sp.add_argument("--alpha", type=float,
                    help="derivative order (default: catalog value)")


def _add_solver_flags(sp):
    sp.add_argument("--h", type=float, help="step size (default 0.005)")
    sp.add_argument("--t-end", type=float, dest="t_end",
                    help="integration horizon (default 100)")
    sp.add_argument("--t0", type=float, help="start time (default 0)")
    sp.add_argument("--x0", help="comma-separated initial state")


def _complex_text(text):
    """argparse type: a real or complex literal, kept as typed for display."""
    try:
        complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a real or complex number: {text!r}") from None
    return text


def _is_number_list(text):
    """Whether ``text`` is a real or complex number, or a comma list of
    numbers."""
    try:
        for piece in text.split(","):
            complex(piece)
    except ValueError:
        return False
    return True


def _bind_negative_values(argv):
    """Join ``--x0 -9,-5,14`` into ``--x0=-9,-5,14``: argparse takes a
    separate value that starts with '-' for an option unless it is a plain
    negative real, so a number, complex number or comma list of numbers
    that starts with '-' is bound to the ``--flag`` before it."""
    joined = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (arg.startswith("-") and flag.startswith("--") and len(flag) > 2
                and "=" not in flag and _is_number_list(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracdyn", allow_abbrev=False,
        description="Simulate fractional-order systems and quantify chaos. "
                    "Flag precedence: command line > --config document > "
                    "catalog defaults.")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are spelt in full: ``reproduce --out`` is not ``--out-dir``
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add_parser("simulate", help="integrate and write the trajectory")
    _add_system_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--scheme", choices=["gl", "abm"],
                    help="integration scheme (default gl)")
    sp.add_argument("--out", required=True,
                    help="output path: a .npz path gets NumPy's binary zip, "
                         "any other suffix CSV text; both are lossless")
    sp.set_defaults(func=_cmd_simulate)

    sp = add_parser(
        "lyapunov", help="exponent spectrum JSON report",
        description="Lyapunov spectrum by tangent-frame QR over a GL base "
                    "trajectory, with the stability report.  "
                    "--tangent-history names the convention: 'restart' "
                    "restarts the tangent history at every QR and gives "
                    "finite-time exponents over T = renorm_every * h, which "
                    "depend on T for alpha < 1; 'exact' pushes each QR "
                    "factor through the stored history, solves the "
                    "variational equation exactly and does not depend on T, "
                    "at O(N) cost in the steps N: its far history is a sum "
                    "of decaying exponentials.")
    _add_system_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--renorm-every", type=int, dest="renorm_every",
                    help="steps between orthonormalizations (default 10)")
    sp.add_argument("--transient", type=float,
                    help="time discarded before accumulation (default 20%%)")
    sp.add_argument("--tangent-history", dest="tangent_history",
                    choices=TANGENT_HISTORIES,
                    help="Lyapunov convention (default restart)")
    sp.add_argument("--out", required=True, help="output JSON path")
    sp.set_defaults(func=_cmd_lyapunov)

    sp = add_parser("dimension",
                    help="box-counting dimension of a trajectory")
    sp.add_argument("--input", required=True,
                    help="trajectory path as simulate writes it: .npz, or "
                         "CSV for any other suffix")
    sp.add_argument("--columns",
                    help="1-based columns to use, in either format: column "
                         "1 is time and column k + 2 state x_k (default: the "
                         "system's observables: all state columns, or a "
                         "chain's first and last, 2 and dim + 1)")
    sp.add_argument("--transient", type=float, default=0.0,
                    help="fraction of leading rows to discard (default 0)")
    sp.add_argument("--eps-max", type=float, dest="eps_max",
                    help="largest scale (default extent/4)")
    sp.add_argument("--eps-min", type=float, dest="eps_min",
                    help="smallest scale (default extent/4096)")
    sp.add_argument("--levels", type=int, help="ladder size (default 12)")
    sp.add_argument("--out", required=True, help="output JSON path")
    sp.add_argument("--plot-out", dest="plot_out",
                    help="two-column log-log data path "
                         "(default: OUT with .plot.txt suffix)")
    sp.set_defaults(func=_cmd_dimension)

    sp = add_parser(
        "stability", help="equilibria, critical orders alpha*, saddle-foci",
        description="Equilibria at the system's order (--alpha), each with "
                    "its critical order alpha* = (2/pi) min|arg mu|, below "
                    "which it is stable, and whether it is an index-2 "
                    "saddle-focus.  criteria.saddle_focus_unstable (some "
                    "saddle-focus with alpha > alpha*) is necessary for "
                    "chaos, not a verdict.")
    _add_system_flags(sp)
    sp.add_argument("--t", type=float, default=0.0,
                    help="time at which forced fields are frozen (default 0)")
    sp.add_argument("--out", help="optional output JSON path")
    sp.set_defaults(func=_cmd_stability)

    sp = add_parser("mlf", help="evaluate E_[alpha,beta](z)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--z", required=True, type=_complex_text,
                    help="argument, real or complex ('1.5', '-2+0.5j')")
    sp.add_argument("--out", help="optional output JSON path")
    sp.set_defaults(func=_cmd_mlf)

    sp = add_parser("list-systems", help="print the system catalog")
    sp.set_defaults(func=_cmd_list_systems)

    sp = add_parser("reproduce",
                    help="full pipeline for one documented case (1-5)")
    sp.add_argument("example", type=int, choices=sorted(_CASES),
                    help="case number, 1-5")
    sp.add_argument("--out-dir", required=True, dest="out_dir")
    sp.add_argument("--h", type=float, help="override the documented step")
    sp.add_argument("--t-end", type=float, dest="t_end",
                    help="override the documented horizon")
    sp.set_defaults(func=_cmd_reproduce)

    return parser


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    """``warnings.showwarning`` for the CLI: the message alone, as one
    line on stderr, without the source path and text of Python's form."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(
        _bind_negative_values(sys.argv[1:] if argv is None else argv))
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except _UsageError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return 2
        except (FracdynError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
