"""waveinv benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the shipped presets and the seed, the worker process times the CLI command
in process, and the outputs are checked here afterwards.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from tracing import COMPUTED
from workloads import WORKLOADS

SRC = Path("src")
WORK_ROOT = Path(".perfbench_run")
# The worker gets the rest of the 180 s a run may take, less time for checks.
WORKER_TIMEOUT_S = 150
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BENCHMARK = Path("BENCHMARK.json")


def calibrated(samples: list[dict], key: str) -> float:
    """The measured times under `key`, in reference-host seconds: their
    mean, scaled by the reference kernel time over the mean kernel time
    next to them (the mean of the kernel runs on either side of each)."""
    measured = sum(s[key] for s in samples)
    kernel = sum((s["k_before"] + s["k_after"]) / 2 for s in samples)
    return measured / kernel * REFERENCE_S


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args, workdir: Path) -> dict:
    result = workdir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    # the worker's stdout goes to stderr so that ours ends with the result
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def check_commands(workload, record: dict) -> tuple[list[bool], list[dict]]:
    from checks import CheckFailed, make_check

    commands = record["commands"]
    check = make_check(workload.command, Path(commands[0]["ini"]))
    ok, answers = [], []
    for c in commands:
        if c["exit"] != 0:
            print(f"command {c['out']} exited with {c['exit']}", file=sys.stderr)
            ok.append(False)
            continue
        try:
            answers.append(check(Path(c["out"]), Path(c["ini"])))
            ok.append(True)
        except (CheckFailed, OSError, ValueError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            ok.append(False)
    return ok, answers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "waveinv" / "cli.py").is_file():
        print(f"no waveinv source under {SRC.resolve()}; run from the repository root",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        record = run_worker(args, workdir)
        ok, answers = check_commands(workload, record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for bulky in list(workdir.glob("cmd*")) + list(workdir.glob("inputs*")):
            shutil.rmtree(bulky, ignore_errors=True)
    if not answers:
        print("no command produced checked output", file=sys.stderr)
        return 1

    commands = record["commands"]
    env = record["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(commands)} commands, {ok.count(False)} failed, "
          f"{time.perf_counter() - t0:.1f} s in all")
    print(f"env: nproc {env['nproc']} (cpu_count {env['cpu_count']}), python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']}, threads {env['threads']}")

    if args.trace:
        values = record["layers"]
        notes = {name: "(computed)" for name in COMPUTED}
    else:
        walls = [c["wall_s"] for c in commands]
        setups = [s["s"] for s in record["setup"]]
        values = {
            "wall_s": calibrated(commands, "wall_s"),
            "setup_s": calibrated(record["setup"], "s"),
            "peak_rss_mb": record["peak_rss_mb"],
            **answers[0],
        }
        notes = {
            "wall_s": f"calibrated mean of {len(walls)} commands "
                      f"(measured median {statistics.median(walls):.4g} s)",
            "setup_s": f"calibrated mean of {len(setups)} set-ups "
                       f"(measured median {statistics.median(setups):.4g} s)",
            "peak_rss_mb": "ru_maxrss of the worker",
            **{name: f"checked on {len(answers)} commands" for name in answers[0]},
        }
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"metrics differ from {BENCHMARK}: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit:<5} {notes.get(name, '')}")

    print(json.dumps({
        "correct": all(ok),
        "attempted": len(ok),
        "failed": ok.count(False),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
