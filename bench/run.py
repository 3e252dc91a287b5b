"""Benchmark for fracdyn: end-to-end metrics and a traced per-layer run.

Run from the repository root (the package is imported from ``src/``):

    python3 bench/run.py --workload relaxation-oracle --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

One workload runs in one process.  ``--trace 0`` measures untraced and
reports the end-to-end metrics; ``--trace 1`` spends a third of the time
untraced and the rest with every layer boundary traced, and reports the
per-layer metrics.  ``--workload all`` runs each workload both ways in
child processes and prints every metric.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 1 when an output check fails.  Records and spans are written
under ``bench/_out/``.  See ``bench/README.md``.
"""

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Tracer, overlap_time, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
LAYERS = ("errors", "solvers", "systems", "chaos", "geometry", "mlf", "cli")
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s"),
    ("members_per_s", "1/s"), ("member_p50_s", "s"), ("member_p90_s", "s"),
    ("completed_frac", "ratio"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("solvers.solve.calls", "count"), ("solvers.solve.steps", "count"),
    ("solvers.solve.self_s", "s"), ("solvers.solve.us_per_step", "us"),
    ("solvers.solve.diverged", "count"),
    ("solvers.solve.oracle_err_full", "1"),
    ("solvers.solve.oracle_err_window", "1"),
    ("solvers.write_trajectory_csv.self_s", "s"),
    ("solvers.write_trajectory_csv.bytes", "B"),
    ("systems.field.calls", "count"), ("systems.field.self_s", "s"),
    ("systems.jacobian.calls", "count"), ("systems.jacobian.self_s", "s"),
    ("systems.find_equilibria.self_s", "s"),
    ("chaos.lyapunov_spectrum.calls", "count"),
    ("chaos.lyapunov_spectrum.self_s", "s"),
    ("chaos.lyapunov_spectrum.tangent_steps", "count"),
    ("chaos.lyapunov_spectrum.us_per_tangent_step", "us"),
    ("chaos.lyapunov_spectrum.converged_frac", "ratio"),
    ("chaos.stability_report.self_s", "s"),
    ("geometry.box_dimension.self_s", "s"),
    ("geometry.box_dimension.points", "count"),
    ("geometry.box_count.calls", "count"),
    ("geometry.box_count.us_per_point", "us"),
    ("mlf.ml_two.calls", "count"), ("mlf.ml_two.self_s", "s"),
    ("mlf.ml_two.p50_us", "us"), ("mlf.ml_two.p99_us", "us"),
    ("cli.reproduce.self_s", "s"), ("cli.reproduce.overlap_s", "s"),
    ("cli.reproduce.claims_pass", "count"),
    ("run.failed_frac", "ratio"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


def load_layers():
    """Import the package modules from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "fracdyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no fracdyn package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"fracdyn.{name}")
            for name in LAYERS}
    return SimpleNamespace(**mods)


# ------------------------------------------------------------------ tracing

def _steps(arguments, result, error):
    if error is not None:
        step = getattr(error, "step", None)
        return {"steps": step or 0, "diverged": int(step is not None)}
    return {"steps": result.t.size - 1}


def _tangent_steps(arguments, result, error):
    if error is not None:
        return {}
    n, every = arguments["config"].n_steps, arguments["renorm_every"]
    return {"tangent_steps": n // every * every,
            "converged": int(result.converged)}


def _csv_bytes(arguments, result, error):
    path = Path(arguments["path"])
    return {"bytes": path.stat().st_size} if error is None else {}


def _points(arguments, result, error):
    return {"points": len(arguments["points"])}


# (modules looked up through, attribute, span name, counters)
TRACED = (
    (("solvers", "cli", "chaos"), "solve", "solvers.solve", _steps),
    (("solvers", "cli"), "write_trajectory_csv",
     "solvers.write_trajectory_csv", _csv_bytes),
    (("chaos", "cli"), "lyapunov_spectrum", "chaos.lyapunov_spectrum",
     _tangent_steps),
    (("chaos", "cli"), "stability_report", "chaos.stability_report", None),
    (("systems", "chaos"), "find_equilibria", "systems.find_equilibria",
     None),
    (("geometry", "cli"), "box_dimension", "geometry.box_dimension",
     _points),
    (("geometry",), "box_count", "geometry.box_count", _points),
    (("mlf", "cli"), "ml_two", "mlf.ml_two", None),
)


def install(tracer, layers):
    """Wrap every traced name; systems from ``make_system`` come traced."""
    for modules, attribute, name, counts in TRACED:
        for module in modules:
            tracer.trace_attribute(getattr(layers, module), attribute, name,
                                   counts)
    for module in ("systems", "cli"):
        owner = getattr(layers, module)
        make = owner.make_system
        tracer.patch(owner, "make_system",
                     lambda *a, _make=make, **k: tracer.traced_system(
                         _make(*a, **k)))


def _percentile_us(durations):
    """p50 and the highest of p99/p95/p90/p50 with >= 10 calls beyond it."""
    if durations.size == 0:
        return 0.0, 0.0
    top = next((q for q in (99, 95, 90) if durations.size * (100 - q) >= 1000),
               50)
    p50, ptop = np.percentile(durations, [50, top]) * 1e6
    return float(p50), float(ptop)


def layer_metrics(table, counters, traced, untraced):
    """Per-layer metrics of a traced run, per traced pass."""
    n = len(traced)
    own = self_times(table)

    def self_s(name):
        return float(own[table.rows(name)].sum()) / n

    def calls(name):
        return float(table.rows(name).sum()) / n

    def count(name, key):
        return counters.get((name, key), 0.0) / n

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    overlap = 0.0
    for p in np.nonzero(table.rows("cli.reproduce"))[0]:
        kids = table.parent == p
        overlap += overlap_time(table.start[kids], table.end[kids],
                                table.thread[kids])
    p50, ptop = _percentile_us(table.duration[table.rows("mlf.ml_two")])
    values = [p.values for p in traced]
    members = [m for p in untraced + traced for m in p.members]
    lyap = "chaos.lyapunov_spectrum"
    return {
        "solvers.solve.calls": calls("solvers.solve"),
        "solvers.solve.steps": count("solvers.solve", "steps"),
        "solvers.solve.self_s": self_s("solvers.solve"),
        "solvers.solve.us_per_step": ratio(
            self_s("solvers.solve"), count("solvers.solve", "steps"), 1e6),
        "solvers.solve.diverged": count("solvers.solve", "diverged"),
        "solvers.solve.oracle_err_full": max(
            (v.get("oracle_err_full", 0.0) for v in values), default=0.0),
        "solvers.solve.oracle_err_window": max(
            (v.get("oracle_err_window", 0.0) for v in values), default=0.0),
        "solvers.write_trajectory_csv.self_s":
            self_s("solvers.write_trajectory_csv"),
        "solvers.write_trajectory_csv.bytes":
            count("solvers.write_trajectory_csv", "bytes"),
        "systems.field.calls": calls("systems.field"),
        "systems.field.self_s": self_s("systems.field"),
        "systems.jacobian.calls": calls("systems.jacobian"),
        "systems.jacobian.self_s": self_s("systems.jacobian"),
        "systems.find_equilibria.self_s": self_s("systems.find_equilibria"),
        f"{lyap}.calls": calls(lyap),
        f"{lyap}.self_s": self_s(lyap),
        f"{lyap}.tangent_steps": count(lyap, "tangent_steps"),
        f"{lyap}.us_per_tangent_step": ratio(
            self_s(lyap), count(lyap, "tangent_steps"), 1e6),
        f"{lyap}.converged_frac": ratio(count(lyap, "converged"),
                                        calls(lyap)),
        "chaos.stability_report.self_s": self_s("chaos.stability_report"),
        "geometry.box_dimension.self_s": self_s("geometry.box_dimension"),
        "geometry.box_dimension.points":
            count("geometry.box_dimension", "points"),
        "geometry.box_count.calls": calls("geometry.box_count"),
        "geometry.box_count.us_per_point": ratio(
            self_s("geometry.box_count"),
            count("geometry.box_count", "points"), 1e6),
        "mlf.ml_two.calls": calls("mlf.ml_two"),
        "mlf.ml_two.self_s": self_s("mlf.ml_two"),
        "mlf.ml_two.p50_us": p50,
        "mlf.ml_two.p99_us": ptop,
        "cli.reproduce.self_s": self_s("cli.reproduce"),
        "cli.reproduce.overlap_s": overlap / n,
        "cli.reproduce.claims_pass": min(
            (v.get("claims_pass", 0) for v in values), default=0),
        "run.failed_frac": ratio(sum(not m.completed for m in members),
                                 len(members)),
        "trace.overhead_s": min(p.wall for p in traced)
        - min(p.wall for p in untraced),
        "trace.spans": table.name.size / n,
    }


# -------------------------------------------------------------- measuring

def measure(workload, seconds, span, min_passes=1):
    """Run passes back to back until ``seconds`` have elapsed."""
    passes = []
    began = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - began < seconds):
        start = time.perf_counter()
        result = workload.run_pass(span)
        result.wall = time.perf_counter() - start
        passes.append(result)
    return passes


def setup_seconds(args):
    """Median wall time of a fresh interpreter importing every layer and
    building this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end_metrics(passes, setup_s):
    """Metrics from each member's fastest repeat.

    Every pass runs the same members in the same order.  Load from other
    processes on the machine only ever slows a member, in bursts, so a
    member's fastest repeat is its steadiest estimate of its cost.
    """
    times = np.array([[m.seconds for m in p.members] for p in passes])
    done = np.array([[m.completed for m in p.members] for p in passes])
    best = times.min(axis=0)
    completed = done.all(axis=0)
    wall = float(best.sum())
    p50, p90 = (np.percentile(best[completed], [50, 90])
                if completed.any() else (0.0, 0.0))
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "steps_per_s": sum(m.steps for m, ok in zip(passes[0].members,
                                                     completed) if ok) / wall,
        "members_per_s": int(completed.sum()) / wall,
        "member_p50_s": float(p50),
        "member_p90_s": float(p90),
        "completed_frac": float(done.mean()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def check(passes):
    """Gate failures: each pass's own checks, and identical outputs."""
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {msg}" for msg in p.problems]
        if p.digest != passes[0].digest:
            problems.append(f"pass {i}: outputs differ from pass 0")
    return problems


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_workload(args):
    layers = load_layers()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](layers, args.seed, OUT)
    if args.setup_only:
        return 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "versions": versions()}
    if args.trace == 0:
        setup_s = setup_seconds(args)
        # two passes at least, so that repeated outputs can be compared
        passes = measure(workload, args.seconds, lambda name: nullcontext(),
                         min_passes=2)
        metrics = end_to_end_metrics(passes, setup_s)
        units = dict(END_TO_END)
    else:
        began = time.perf_counter()
        untraced = measure(workload, args.seconds / 3,
                           lambda name: nullcontext())
        tracer = Tracer(failure=layers.errors.FracdynError)
        install(tracer, layers)
        try:
            traced = measure(workload,
                             args.seconds - (time.perf_counter() - began),
                             tracer.operation)
        finally:
            tracer.restore()
        table = tracer.table()
        passes = untraced + traced
        metrics = layer_metrics(table, tracer.counters, traced, untraced)
        units = dict(PER_LAYER)
        np.savez(OUT / f"{args.workload}-spans.npz", names=table.names,
                 name=table.name, start=table.start, end=table.end,
                 parent=table.parent, thread=table.thread,
                 failed=table.failed)
    problems = check(passes)
    members = sum(len(p.members) for p in passes)
    result = {
        "correct": not problems,
        "attempted": members,
        # failed output checks; the library's typed errors are answers,
        # counted by completed_frac and run.failed_frac
        "failed": min(len(problems), members),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    record.update(result=result, problems=problems,
                  pass_walls=[p.wall for p in passes],
                  values=passes[0].values)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    table_text = passes[0].values.get("verdict_table")
    if table_text:
        print(table_text, end="")
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for k, unit in units.items():
        print(f"{args.workload}  {k}  {metrics[k]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            ok = proc.returncode == 0 and lines and \
                json.loads(lines[-1])["correct"]
            status = status or (0 if ok else 1)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
