"""Mellin-Barnes contour oracle for E_{alpha,beta}(-x), and its frozen table.

Each mpmath quadrature takes up to seconds, so the tier-1 tests read the
oracle's values from ``contour_oracle.json`` beside this file; a test
marked ``slow`` recomputes them live.  To rewrite the table after changing
``GRIDS`` or the oracle, run from the repository root:

    python tests/contour_oracle.py
"""

import itertools
import json
from pathlib import Path

import mpmath

TABLE = Path(__file__).with_name("contour_oracle.json")

# name -> (alphas, betas, xs): the oracle is evaluated on their product
GRIDS = {
    # strong-cancellation band where the series oracle would be costly
    "deep_negative": ((0.3, 0.5, 0.7, 0.9), (0.8, 1.0, 2.0),
                      (5.0, 20.0, 50.0)),
    # the regime where only the asymptotic expansion is viable
    "small_alpha": ((0.05, 0.1, 0.2), (0.8, 1.0), (2.0, 5.0, 30.0)),
}


def ml_contour_oracle(alpha, beta, x, dps=35):
    """E_{alpha,beta}(-x) for x > 0 via a Mellin-Barnes contour integral."""
    with mpmath.workdps(dps):
        xx = mpmath.mpf(x)

        def integrand(t):
            s = mpmath.mpc(0.5, t)
            return (mpmath.gamma(s) * mpmath.gamma(1 - s)
                    / mpmath.gamma(beta - alpha * s) * xx ** (-s))

        v = mpmath.quad(integrand, [-mpmath.inf, mpmath.inf]) / (2 * mpmath.pi)
        return complex(v).real


def grid_points(name):
    """The (alpha, beta, x) points of grid ``name``, in table order."""
    return list(itertools.product(*GRIDS[name]))


def load_table():
    """name -> list of (alpha, beta, x, E_{alpha,beta}(-x))."""
    doc = json.loads(TABLE.read_text())
    return {name: [tuple(row) for row in rows] for name, rows in doc.items()}


def main():
    doc = {name: [[alpha, beta, x, ml_contour_oracle(alpha, beta, x)]
                  for alpha, beta, x in grid_points(name)]
           for name in GRIDS}
    # one row per line; json writes floats as repr, which reads back to
    # the same double
    blocks = [f"  {json.dumps(name)}: [\n"
              + ",\n".join(f"    {json.dumps(row)}" for row in rows)
              + "\n  ]" for name, rows in doc.items()]
    TABLE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {sum(map(len, doc.values()))} values to {TABLE}")


if __name__ == "__main__":
    main()
