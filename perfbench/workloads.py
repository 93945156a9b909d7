"""The benchmark's workloads: a shipped preset, the overrides applied to it,
and the CLI command timed on the generated input.

The program only ever sees the INI files written here and the obs.csv that
the set-up ``synthesize`` command writes next to them.  Why each workload
exists, and which layers it loads or bypasses, is recorded in
BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

PRESETS = Path("src/waveinv/presets")

# Each set-up writes the INI files and runs one ``synthesize`` command.  It is
# repeated before the timed commands and again after them, so that the set-up
# samples fall in different phases of a shared host's load.
SETUP_REPEATS_BEFORE = 3
SETUP_REPEATS_AFTER = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    overrides: dict[str, dict[str, str]]
    # synthesize-200 cycles its timed commands over this many noise seeds
    noise_seeds: int = 1

    def noise_seed(self, seed: int, k: int) -> int:
        return seed if self.noise_seeds == 1 else seed * 1000 + k

    def write_inputs(self, seed: int, dest: Path) -> list[Path]:
        """Write one INI per noise seed into dest; return their paths."""
        dest.mkdir(parents=True, exist_ok=True)
        paths = []
        for k in range(self.noise_seeds):
            parser = configparser.ConfigParser(interpolation=None)
            parser.read(PRESETS / self.preset)
            for section, keys in self.overrides.items():
                for key, value in keys.items():
                    parser.set(section, key, value)
            parser.set("noise", "seed", str(self.noise_seed(seed, k)))
            path = dest / f"run{k}.ini"
            with open(path, "w") as fh:
                parser.write(fh)
            paths.append(path)
        return paths

    def argv(self, ini: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(ini), "--out", str(out), "--quiet"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="invert-50",
            command="invert",
            preset="test1.ini",
            overrides={"grid": {"nx": "50", "ny": "50"}},
        ),
        Workload(
            name="adaptive-50-200",
            command="invert-adaptive",
            preset="test2.ini",
            overrides={
                "grid": {"nx": "50", "ny": "50"},
                "acga": {"n_max": "2"},
                "cga": {"max_iters": "4"},
            },
        ),
        Workload(
            name="synthesize-200",
            command="synthesize",
            preset="test1.ini",
            overrides={"grid": {"nx": "200", "ny": "200"}},
            noise_seeds=8,
        ),
    )
}
