"""Compare the cost of a leapfrog step, and of each stream of a gradient
evaluation per level, between two checkouts, in one process.

    python tools/step_timing.py PARENT CHANGE [--rounds R]

Each checkout's src/waveinv is loaded under a module name of its own, so the
two versions run side by side in one interpreter, on one core and one cache
state.  Every figure is taken on the test1 set-up (T = 1.2, the source on
the left, the two narrow Gaussian inclusions) at 50², 100² and 200².

The step table times Leapfrog.advance, the best of 5 loops of 20 advances,
of two operators:

    forward   the forward operator, stepped after its source has switched
    adjoint   the adjoint operator of a residual on all four sides, each of
              which then carries Neumann data

The layer table times, per level (the best of 3 runs over the nt+1 levels),
the four layers of one gradient evaluation at the same residual, and the
operator that a solve builds first:

    build     the forward operator alone, forward_operator, which every
              solve builds once; its cost spread over the solve's levels
    forward   a forward solve, solve_forward, its build included
    backward  the state stepped backward in time, from the solve's last two
              levels and trace, ForwardSolution.levels_backward
    adjoint   the adjoint stream as the optimizer drives it,
              ForwardSolution.multiplier(obs), obs being the solve's trace
              less the residual: whatever it forms of the residual is timed
    sweep     the whole gradient sweep, gradient_sweep, which pulls the
              state backward and the multiplier stream itself
    sums      sweep - backward - adjoint, taken within each round: the cost of
              the gradient sums alone

The writer table times the bulk writers per value written (the best of 3
runs), into a temporary directory:

    trace     write_trace_csv of the forward solve's trace on all four sides
    field     write_field_csv of eps
    vtk       write_field_vtk of eps

The rounds (15 unless --rounds says otherwise) interleave the checkouts, and
alternate which one goes first, so that a drift of the machine's speed hits
both alike.  Each row prints the median microseconds of each checkout, the
number of rounds in which CHANGE was faster, and a verdict under one rule
for every row: a difference counts when one side is faster in at least nine
tenths of the rounds.  Below MIN_ROUNDS (ten) rounds every row reads
unresolved: one round, or a few, clears the nine-tenths rule by chance,
and ten pairs is the least from which a difference is read.  A median at
or below zero (the sums, a difference of three timings, can come out so
in a short run) leaves the row unresolved, with no ratio.  Separate
benchmark runs cannot resolve a 10-20% change of one layer, which is a
few percent of a whole inversion.  The figures are a report, not a gate;
the script exits 0 whatever they show.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (50, 100, 200)
STEPS = 20  # advances per timed loop
REPEAT = 5  # loops per step timing, the best kept
LAYER_REPEAT = 3  # runs per layer timing, the best kept
DIRECTIONS = ("forward", "adjoint")
LAYERS = ("build", "forward", "backward", "adjoint", "sweep")
WRITERS = ("trace", "field", "vtk")
MIN_ROUNDS = 10  # rounds below which every row reads unresolved


def load(checkout: Path, name: str):
    """The waveinv package of a checkout, imported as the module name."""
    package = checkout / "src" / "waveinv"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def setup_test1(wi, n: int):
    """The test1 grid, eps, sigma and source of one checkout on an n x n
    grid, and a random residual on all four sides."""
    grid = wi.build_grid(n, n, T=1.2)
    eps = wi.gaussian_coefficient(grid, 1.0, 3.0, (0.5, 0.7), 0.002, wi.Role.EPSILON)
    sigma = wi.gaussian_coefficient(grid, 1.0, 1.5, (0.5, 0.7), 0.002, wi.Role.SIGMA)
    rng = np.random.default_rng(0)
    width = sum(grid.side_node_count(side) for side in wi.ALL_SIDES)
    residual = wi.BoundaryTrace(grid=grid, sides=wi.ALL_SIDES,
                                values=rng.standard_normal((grid.nt + 1, width)))
    return grid, eps, sigma, wi.SourceSpec(), residual


def operators(wi, n: int) -> dict:
    """The forward and the adjoint Leapfrog of one checkout on an n x n grid,
    and the level from which each is stepped."""
    forward = sys.modules[wi.__name__ + ".forward"]
    grid, eps, sigma, src, residual = setup_test1(wi, n)
    op = forward.forward_operator(grid, eps, sigma, src, wi.BcConfig())
    adj = op.adjoint(residual)
    # a level after the forward source has switched, and one before the
    # adjoint's switched side stops absorbing
    level = int(0.75 * grid.nt)
    return {"forward": (op, level), "adjoint": (adj, grid.nt - level)}


def layers(wi, n: int) -> tuple[dict, int]:
    """The layers of one checkout on an n x n grid, each a call that runs it
    once, and the number of levels each runs over."""
    grid, eps, sigma, src, residual = setup_test1(wi, n)
    bc = wi.BcConfig()
    sol = wi.solve_forward(grid, eps, sigma, src, bc)
    obs = wi.BoundaryTrace(grid=grid, sides=wi.ALL_SIDES,
                           values=sol.trace.values - residual.values)
    reg = wi.RegularizationParams(0.0, 0.0, 0.5, eps, sigma)
    mask = wi.region_mask(grid, 0)
    forward = sys.modules[wi.__name__ + ".forward"]

    def drain(levels) -> None:
        for _ in levels:
            pass

    return {
        "build": lambda: forward.forward_operator(grid, eps, sigma, src, bc),
        "forward": lambda: wi.solve_forward(grid, eps, sigma, src, bc),
        "backward": lambda: drain(sol.levels_backward()),
        "adjoint": lambda: drain(sol.multiplier(obs)),
        "sweep": lambda: wi.gradient_sweep(sol, sol.multiplier(obs), reg, 0.0, 0.0, mask),
    }, grid.nt + 1


def writers(wi, n: int, out: Path) -> dict:
    """The three bulk writers of one checkout on an n x n grid, each a call
    that writes its file into out once, and the number of values it writes."""
    io = importlib.import_module(wi.__name__ + ".io")  # the package does not import io
    grid, eps, sigma, src, _ = setup_test1(wi, n)
    trace = wi.extract_trace(wi.solve_forward(grid, eps, sigma, src, wi.BcConfig()), wi.ALL_SIDES)
    return {
        "trace": (lambda: io.write_trace_csv(trace, out / "obs.csv"), trace.values.size),
        "field": (lambda: io.write_field_csv(eps, grid, out / "eps.csv"), grid.n_nodes),
        "vtk": (lambda: io.write_field_vtk(eps, grid, out / "eps.vtk"), grid.n_nodes),
    }


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


def best_run(run, levels: int) -> float:
    """Microseconds per level (or value) of one run of a layer (or writer),
    the best of LAYER_REPEAT."""
    best = float("inf")
    for _ in range(LAYER_REPEAT):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / levels


def report(title: str, rows: dict, rounds: int) -> None:
    """One table: per (size, name) row the median of each checkout, the
    ratio, the rounds that CHANGE won and the nine-tenths verdict, which
    reads unresolved below MIN_ROUNDS rounds; a median at or below zero
    leaves the row unresolved, with no ratio."""
    print(f"{'size':>5} {title:>9} {'parent us':>10} {'change us':>10} {'ratio':>6}  "
          f"{'wins':>5}  verdict")
    for (n, name), row in rows.items():
        parent, change = row["parent"], row["change"]
        a, b = statistics.median(parent), statistics.median(change)
        wins = sum(c < p for p, c in zip(parent, change))
        positive = a > 0.0 and b > 0.0
        verdict = ("unresolved" if not positive or rounds < MIN_ROUNDS else
                   "faster" if wins >= 0.9 * rounds else
                   "slower" if rounds - wins >= 0.9 * rounds else "unresolved")
        ratio = f"{b / a:>6.3f}" if positive else f"{'-':>6}"
        print(f"{n:>4}² {name:>9} {a:>10.2f} {b:>10.2f} {ratio}  "
              f"{f'{wins}/{rounds}':>5}  {verdict}")


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
    runs = {(label, n): layers(wi, n) for label, wi in trees.items() for n in SIZES}
    steps = {(n, d): {label: [] for label in trees} for n in SIZES for d in DIRECTIONS}
    per_level = {(n, name): {label: [] for label in trees}
                 for n in SIZES for name in (*LAYERS, "sums")}
    per_value = {(n, name): {label: [] for label in trees} for n in SIZES for name in WRITERS}
    with tempfile.TemporaryDirectory() as scratch:
        files = {(label, n): writers(wi, n, Path(scratch))
                 for label, wi in trees.items() for n in SIZES}
        for r in range(args.rounds):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for n in SIZES:
                for direction in DIRECTIONS:
                    for label in order:
                        op, level = ops[label, n][direction]
                        steps[n, direction][label].append(best_step(op, level))
                for name in LAYERS:
                    for label in order:
                        run, levels = runs[label, n]
                        per_level[n, name][label].append(best_run(run[name], levels))
                for label in trees:
                    sweep, backward, adjoint = (per_level[n, name][label][-1]
                                                for name in ("sweep", "backward", "adjoint"))
                    per_level[n, "sums"][label].append(sweep - backward - adjoint)
                for name in WRITERS:
                    for label in order:
                        write, values = files[label, n][name]
                        per_value[n, name][label].append(best_run(write, values))
    report("direction", steps, args.rounds)
    print()
    report("layer", per_level, args.rounds)
    print()
    report("writer", per_value, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
