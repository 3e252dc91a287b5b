"""The benchmark's two workloads.

Each workload builds its inputs from the seed once, then runs *passes*: a
fixed unit of work made of *members*, run one after another (a closed
loop).  A pass returns the time of every member, whether it completed,
the integrator steps it completed, and a digest of its outputs, so that
repeated passes can be checked for identical results.

* ``reproduce-long``: ``fracdyn reproduce 1`` through ``cli.main``, one
  member per pass.  Dominated by the O(N^2) history convolution at
  N = 10^5; also covers the tangent/QR loop, the CSV write, box counting
  and the CLI's thread pool.  A fixed documented case: the seed does not
  change it.
* ``relaxation-oracle``: linear relaxation D^a x = lam x, real and
  complex lam, solved by ABM at full memory and by GL and ABM under a
  memory window, compared with ml_one(a, lam t^a).  The only workload
  that reaches ``solve_abm``, windowed convolution and ``mlf``, and its
  2000-step history is short, so a faster convolution kernel barely
  moves it.
"""

import hashlib
import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Member:
    seconds: float
    completed: bool
    steps: int                   # integrator steps, counted when completed


@dataclass
class Pass:
    members: list
    digest: str
    problems: list = field(default_factory=list)   # gate failures
    values: dict = field(default_factory=dict)     # checked answers
    wall: float = 0.0


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


class ReproduceLong:
    """``fracdyn reproduce 1``: Lorenz, alpha 0.995, h 0.005, N = 10^5."""

    name = "reproduce-long"
    # documented case 1; checked against the written report every pass
    H, T_END, RENORM_EVERY = 0.005, 500.0, 20
    ARTIFACTS = ("lyapunov.json", "dimension.json", "stability.json",
                 "comparison.txt")

    def __init__(self, layers, seed, workdir):
        self.layers = layers
        self.out_dir = workdir / "reproduce-1"
        self.argv = ["reproduce", "1", "--out-dir", str(self.out_dir)]

    def run_pass(self, span):
        captured = io.StringIO()
        start = time.perf_counter()
        with span("cli.reproduce"), redirect_stdout(captured):
            code = self.layers.cli.main(self.argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return Pass([Member(seconds, False, 0)], "",
                        [f"reproduce 1 exited with code {code}"])
        blobs = [(self.out_dir / n).read_bytes() for n in self.ARTIFACTS]
        problems = []
        settings = json.loads(blobs[0])["settings"]
        documented = {"h": self.H, "t_end": self.T_END,
                      "renorm_every": self.RENORM_EVERY}
        if any(settings.get(k) != v for k, v in documented.items()):
            problems.append(f"case 1 settings changed: {settings}")
        n_steps = int(round(self.T_END / self.H))
        steps = n_steps + n_steps // self.RENORM_EVERY * self.RENORM_EVERY
        table = blobs[3].decode()
        verdicts = [line.split()[-1] for line in table.splitlines()[2:]]
        if not verdicts or any(v != "pass" for v in verdicts):
            problems.append("case 1 claims do not all pass:\n" + table)
        return Pass([Member(seconds, True, steps)], _digest(blobs), problems,
                    {"claims_pass": verdicts.count("pass"),
                     "verdict_table": table,
                     "cli_output": captured.getvalue().strip()})


class RelaxationOracle:
    """Linear relaxation against the Mittag-Leffler solution."""

    name = "relaxation-oracle"
    ALPHAS = (0.5, 0.7, 0.9)
    REAL_RATES = (-1.75,)        # plus one decaying rotation per alpha
    ROTATION = complex(-0.6, -1.1)
    JITTER = 0.02                # seeded relative spread of every rate
    H, T_END = 0.005, 10.0
    WINDOW = 200                 # memory window of the truncated solves
    SAMPLES = 100                # oracle points per horizon
    ERR_FULL_BOUND = 5e-3        # ABM at full memory, max abs error
    SOLVES = (("abm", None), ("gl", WINDOW), ("abm", WINDOW))

    def __init__(self, layers, seed, workdir):
        self.layers = layers
        rng = np.random.default_rng(seed)
        n = int(round(self.T_END / self.H))
        self.rows = np.linspace(0, n, self.SAMPLES + 1).round().astype(int)
        times = self.rows * self.H
        self.problems = []

        # the cost of ml_one changes twofold across the rates of [-3, -0.5]
        # with the route each point takes, so the seed moves each rate by a
        # few percent around a fixed one: the inputs differ across seeds,
        # the work hardly does
        def jitter():
            return 1.0 + self.JITTER * rng.uniform(-1.0, 1.0)

        for alpha in self.ALPHAS:
            lams = [complex(lam * jitter()) for lam in self.REAL_RATES]
            lams.append(complex(self.ROTATION.real * jitter(),
                                self.ROTATION.imag * jitter()))
            for lam in lams:
                spec, x0 = self._system(layers.solvers, lam)
                z = lam * times ** alpha
                args = z.real if lam.imag == 0 else z
                configs = [layers.solvers.SolverConfig(
                    alpha=alpha, h=self.H, t_end=self.T_END, x0=x0,
                    scheme=scheme, memory_window=window)
                    for scheme, window in self.SOLVES]
                self.problems.append((alpha, spec, configs, args.tolist()))

    @staticmethod
    def _system(solvers, lam):
        if lam.imag == 0.0:
            a = lam.real
            return solvers.SystemSpec(name="relax", dim=1,
                                      field=lambda t, x: a * x), [1.0]
        # x1 + i x2 obeys D^a z = lam z under this real 2-d field
        mat = np.array([[lam.real, -lam.imag], [lam.imag, lam.real]])
        return solvers.SystemSpec(name="rotation", dim=2,
                                  field=lambda t, x: mat @ x), [1.0, 0.0]

    def run_pass(self, span):
        L = self.layers
        members, parts, problems = [], [], []
        err_full = err_window = 0.0
        for alpha, spec, configs, args in self.problems:
            start = time.perf_counter()
            try:
                with span("oracle.problem"):
                    ref = np.array([L.mlf.ml_one(alpha, z) for z in args])
                    xs = [L.solvers.solve(spec, c).x[self.rows]
                          for c in configs]
            except L.errors.FracdynError as err:
                members.append(Member(time.perf_counter() - start, False, 0))
                problems.append(f"alpha={alpha}, {spec.name}: {err!r}")
                continue
            seconds = time.perf_counter() - start
            members.append(Member(seconds, True,
                                  sum(c.n_steps for c in configs)))
            errs = []
            for x in xs:
                got = x[:, 0] if spec.dim == 1 else x[:, 0] + 1j * x[:, 1]
                errs.append(float(np.max(np.abs(got - ref))))
            err_full = max(err_full, errs[0])
            err_window = max(err_window, *errs[1:])
            parts += [ref.tobytes()] + [x.tobytes() for x in xs]
        if not err_full <= self.ERR_FULL_BOUND:
            problems.append(f"full-memory ABM error {err_full:.3g} exceeds "
                            f"{self.ERR_FULL_BOUND:g}")
        return Pass(members, _digest(parts), problems,
                    {"oracle_err_full": err_full,
                     "oracle_err_window": err_window})


WORKLOADS = {w.name: w for w in (ReproduceLong, RelaxationOracle)}
