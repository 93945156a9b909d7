"""Write the output files of a fixed set of waveinv commands into OUTDIR.

Run it on two trees, for example a parent commit and a change, and compare
the two directories:

    python tools/output_identity.py /tmp/before     # in the parent's checkout
    python tools/output_identity.py /tmp/after      # in the change's checkout
    diff -r -x '*.ini' /tmp/before /tmp/after

A change that only reorders code should leave every CSV and VTK file
byte-identical.  The manifests (*.ini) record their own directory, so they
are left out of the comparison.  The script imports waveinv from the src/
directory of its own checkout, and exits 1 if a run failed, an expected
file is missing or an error was raised where it could not propagate (run it
with -X dev -W error::ResourceWarning and an unclosed file is such an error).

The runs, each in a directory of its own:

    test1_100   test1 synthesize at 100x100
    test1_50    test1 synthesize and a 100-iteration invert at 50x50
    test2_24    test2 synthesize and invert-adaptive at 24x24, n_max = 2,
                3 iterations per level
    gradcheck   grad-check on the gradcheck preset
    dump_24     test1 at 24x24 with dump_every = 40: synthesize, forward
                and a 5-iteration invert
"""

from __future__ import annotations

import configparser
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from waveinv.cli import main as waveinv  # noqa: E402

PRESETS = ROOT / "src" / "waveinv" / "presets"

# run name -> (preset, settings, commands, files every run must leave)
RUNS = {
    "test1_100": ("test1.ini", {("grid", "nx"): "100", ("grid", "ny"): "100"},
                  ["synthesize"], ["obs.csv"]),
    "test1_50": ("test1.ini", {("grid", "nx"): "50", ("grid", "ny"): "50",
                               ("cga", "max_iters"): "100"},
                 ["synthesize", "invert"],
                 ["obs.csv", "convergence.csv", "eps_final.csv", "sigma_final.csv",
                  "eps_final.vtk", "sigma_final.vtk"]),
    "test2_24": ("test2.ini", {("grid", "nx"): "24", ("grid", "ny"): "24",
                               ("acga", "n_max"): "2", ("cga", "max_iters"): "3"},
                 ["synthesize", "invert-adaptive"],
                 ["obs.csv", "levels.csv", "level_1/convergence.csv",
                  "level_2/convergence.csv"]),
    "gradcheck": ("gradcheck.ini", {}, ["grad-check"], ["grad_check.csv"]),
    "dump_24": ("test1.ini", {("grid", "nx"): "24", ("grid", "ny"): "24",
                              ("cga", "max_iters"): "5", ("output", "dump_every"): "40"},
                ["synthesize", "forward", "invert"],
                ["obs.csv", "trace.csv", "convergence.csv", "E_0.vtk", "L_0.vtk"]),
}


def run(name: str, out: Path) -> list[str]:
    """Run one entry of RUNS into out; returns what went wrong."""
    preset, settings, commands, expected = RUNS[name]
    out.mkdir(parents=True, exist_ok=True)
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read(PRESETS / preset)
    for (section, key), value in settings.items():
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section, key, value)
    with open(out / "run.ini", "w") as fh:
        cfg.write(fh)
    faults = []
    for command in commands:
        # the commands after synthesize read the observations it pinned
        config = out / ("run.ini" if command in ("synthesize", "grad-check") else "manifest.ini")
        code = waveinv([command, "--config", str(config), "--out", str(out), "--quiet"])
        if code != 0:
            faults.append(f"{name}: {command} exited {code}")
    faults += [f"{name}: {f} missing" for f in expected if not (out / f).is_file()]
    return faults


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: python tools/output_identity.py OUTDIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    # an error raised in a destructor, such as an unclosed file's warning under
    # -W error::ResourceWarning, cannot propagate; it is counted as a fault here
    unraisable: list[str] = []
    sys.unraisablehook = lambda u: unraisable.append(f"{u.exc_type.__name__}: {u.exc_value}")
    faults = [f for name in RUNS for f in run(name, root / name)]
    faults += unraisable
    for fault in faults:
        print(fault, file=sys.stderr)
    files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    print(f"{len(files)} files in {root}; {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
