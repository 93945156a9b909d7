"""Compare the cost of one leapfrog step between two checkouts, in one process.

    python tools/step_timing.py PARENT CHANGE [--rounds R]

Each checkout's src/waveinv is loaded under a module name of its own, so the
two versions of Leapfrog.advance run side by side in one interpreter, on
one core and one cache state.  Per grid size (50², 100² and 200²) and
direction the script
builds each checkout's operator on the test1 set-up (T = 1.2, the source on
the left, the two narrow Gaussian inclusions):

    forward   the forward operator, stepped after its source has switched
    adjoint   the adjoint operator of a residual on all four sides, each of
              which then carries Neumann data

and times Leapfrog.advance as the best of 5 loops of 20 advances.  The
rounds (15 unless --rounds says otherwise) interleave the checkouts, and alternate which one goes
first, so that a drift of the machine's speed hits both alike.  It prints
the median microseconds per step of each checkout and the number of rounds
in which CHANGE was faster: separate benchmark runs cannot resolve a 10-20%
change of the step, which is a few percent of a whole inversion.  The
figures are a report, not a gate; the script exits 0 whatever they show.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (50, 100, 200)
STEPS = 20  # advances per timed loop
REPEAT = 5  # loops per timing, the best kept


def load(checkout: Path, name: str):
    """The waveinv package of a checkout, imported as the module name."""
    package = checkout / "src" / "waveinv"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def operators(wi, n: int) -> dict:
    """The forward and the adjoint Leapfrog of one checkout on an n x n grid,
    and the level from which each is stepped."""
    forward, adjoint = sys.modules[wi.__name__ + ".forward"], sys.modules[wi.__name__ + ".adjoint"]
    grid = wi.build_grid(n, n, T=1.2)
    eps = wi.gaussian_coefficient(grid, 1.0, 3.0, (0.5, 0.7), 0.002, wi.Role.EPSILON)
    sigma = wi.gaussian_coefficient(grid, 1.0, 1.5, (0.5, 0.7), 0.002, wi.Role.SIGMA)
    src = wi.SourceSpec()
    op = forward.forward_operator(grid, eps, sigma, src, wi.BcConfig())
    rng = np.random.default_rng(0)
    width = sum(grid.side_node_count(side) for side in wi.ALL_SIDES)
    residual = wi.BoundaryTrace(grid=grid, sides=wi.ALL_SIDES,
                                values=rng.standard_normal((grid.nt + 1, width)))
    programs = adjoint.build_adjoint_programs(op, residual)
    adj = forward.Leapfrog(grid, eps, sigma, programs)
    # a level after the forward source has switched, and one before the
    # adjoint's switched side stops absorbing
    level = int(0.75 * grid.nt)
    return {"forward": (op, level), "adjoint": (adj, grid.nt - level)}


def best_step(op, level: int) -> float:
    """Microseconds per Leapfrog.advance, the best of REPEAT loops."""
    rng = np.random.default_rng(1)
    cur, prev, out = (type(op.levels[0]).of(op.grid, rng.standard_normal(op.grid.node_shape))
                      for _ in range(3))
    op.advance(cur, prev, level, out)  # patch the closure and make the views
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        for _ in range(STEPS):
            op.advance(cur, prev, level, out)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / STEPS


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"parent": load(args.parent.resolve(), "waveinv_parent"),
             "change": load(args.change.resolve(), "waveinv_change")}
    ops = {(label, n): operators(wi, n) for label, wi in trees.items() for n in SIZES}
    times = {key: [] for key in ((label, n, d) for label in trees for n in SIZES
                                 for d in ("forward", "adjoint"))}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for n in SIZES:
            for direction in ("forward", "adjoint"):
                for label in order:
                    op, level = ops[label, n][direction]
                    times[label, n, direction].append(best_step(op, level))
    print(f"{'size':>5} {'direction':>9} {'parent us':>10} {'change us':>10} {'ratio':>6}  wins")
    for n in SIZES:
        for direction in ("forward", "adjoint"):
            parent, change = times["parent", n, direction], times["change", n, direction]
            a, b = statistics.median(parent), statistics.median(change)
            wins = sum(c < p for p, c in zip(parent, change))
            print(f"{n:>4}² {direction:>9} {a:>10.2f} {b:>10.2f} {b / a:>6.3f}  "
                  f"{wins}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
