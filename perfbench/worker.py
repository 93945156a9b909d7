"""One benchmark run in a fresh process: set up, then run the workload's
CLI command in process through ``waveinv.cli.main``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR --result FILE

run.py starts it with PYTHONPATH=src and one BLAS/OpenMP thread, and checks
the outputs afterwards, so neither the checks nor the parent's memory count
in the figures recorded here.  With --trace 0 the timed commands repeat
until --seconds have passed, set-up is repeated before and after them, and
the calibration kernel runs after every set-up and every command, so each
measured time has a kernel time on either side.  With --trace 1 one command
runs untraced, one with spans, and, if the optimizer ran, one more with
spans and tracemalloc for the memory figures, so tracemalloc never slows
the timed spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from calibrate import kernel_seconds
from tracing import ITERATION_SPANS, Tracer, layer_metrics
from workloads import SETUP_REPEATS_AFTER, SETUP_REPEATS_BEFORE, WORKLOADS

EXIT_EXCEPTION = -1


def run_cli(argv: list[str]) -> int:
    from waveinv.cli import main

    try:
        return int(main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # a command that raises is a failed command, not a failed benchmark
        traceback.print_exc()
        return EXIT_EXCEPTION


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def bracket(kernels: list[float] | None) -> dict:
    """The kernel times on either side of the step just measured: the last
    one taken and a new one.  Empty when the run is not calibrated."""
    if kernels is None:
        return {}
    before = kernels[-1]
    kernels.append(kernel_seconds())
    return {"k_before": before, "k_after": kernels[-1]}


def set_up(workload, seed: int, workdir: Path, repeats: int,
           samples: list[dict], kernels: list[float] | None) -> list[Path]:
    """Write the INI files and run the synthesize command they depend on,
    `repeats` times, appending each time taken; return the last inputs."""
    for _ in range(repeats):
        t0 = time.perf_counter()
        inis = workload.write_inputs(seed, workdir / f"inputs{len(samples)}")
        code = run_cli(["synthesize", "--config", str(inis[0]),
                        "--out", str(inis[0].parent), "--quiet"])
        samples.append({"s": time.perf_counter() - t0, **bracket(kernels)})
        if code != 0:
            raise RuntimeError(f"set-up synthesize exited with {code}")
    return inis


def timed_command(workload, ini: Path, out: Path, tracer: Tracer | None = None,
                  kernels: list[float] | None = None) -> dict:
    argv = workload.argv(ini, out)
    t0 = time.perf_counter()
    if tracer is None:
        code = run_cli(argv)
    else:
        with tracer.installed(), tracer.span("main", "cli"):
            code = run_cli(argv)
    wall = time.perf_counter() - t0
    return {"ini": str(ini), "out": str(out), "exit": code, "wall_s": wall, **bracket(kernels)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    import waveinv.cli  # noqa: F401  (import time is not part of set-up)

    record = {"env": environment(), "setup": [], "commands": []}
    kernels = None
    if not args.trace:
        kernel_seconds()  # warm-up
        kernels = [kernel_seconds()]
    inis = set_up(workload, args.seed, args.workdir, SETUP_REPEATS_BEFORE,
                  record["setup"], kernels)
    commands = record["commands"]

    def out_dir(k: int) -> Path:
        return args.workdir / f"cmd{k}"

    if not args.trace:
        start = time.perf_counter()
        while not commands or time.perf_counter() - start < args.seconds:
            k = len(commands)
            commands.append(timed_command(workload, inis[k % len(inis)], out_dir(k),
                                          kernels=kernels))
        set_up(workload, args.seed, args.workdir, SETUP_REPEATS_AFTER, record["setup"], kernels)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    else:
        commands.append(timed_command(workload, inis[0], out_dir(0)))
        tracer = Tracer()
        commands.append(timed_command(workload, inis[0], out_dir(1), tracer))
        memory = Tracer(memory=True)
        if any(s["name"] in ITERATION_SPANS for s in tracer.spans):
            tracemalloc.start()
            try:
                commands.append(timed_command(workload, inis[0], out_dir(2), memory))
            finally:
                tracemalloc.stop()
        layers = layer_metrics(tracer.spans, memory.spans)
        layers["trace_overhead_s"] = layers["traced_wall_s"] - commands[0]["wall_s"]
        record["layers"] = layers
        with open(args.workdir / "spans.json", "w") as fh:
            json.dump({"timed": tracer.spans, "memory": memory.spans}, fh)

    with open(args.result, "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
