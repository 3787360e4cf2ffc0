"""Checked-in output digests: the sha256 of every file that `flowscore run`
writes for six scenarios, kept in `golden_digests.json`, so that a change
that moves one output byte fails tier-1.

The scenarios are the town, the long town and the school town that
`test_cli` runs in its module fixtures, and the three benchmark workloads
as `perfbench/workloads.write_scenario(name, 1, dir)` writes them (the
module is imported from its file, not edited). The `convergence_*.csv`
files are left out: the last bits of their gaps and objective values
follow the dot-product kernel that OpenBLAS picks by CPU model, until
`qdta` sums its dot products without BLAS.

The digests also hold only under the SIMD targets that numpy dispatches
to, which `versions()` records beside the numpy and scipy versions:
numpy's `**` on arrays takes its last bits from the widest target, so
`sof`'s costs and then its trips move where AVX512 is missing (with
`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`, four
`desk_congested` files move). A mismatch prints both sets.

A digest may be rewritten only when CHANGES.md names the file, says why
it moved and counts its changed rows. To rewrite them all and print the
files that moved:

    PYTHONPATH=src python3 tests/golden.py --record
"""
from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from flowscore.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden_digests.json")
TOWNS = ("town", "long_town", "school_town")
WORKLOADS = ("desk_light", "desk_congested", "geometry_heavy")
SCENARIOS = TOWNS + WORKLOADS


def versions() -> dict[str, str]:
    """numpy's and scipy's versions, and the SIMD targets that numpy
    finds on this CPU among those it dispatches to."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "simd": ", ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))}


def digests(out_dir: Path) -> dict[str, str]:
    """The sha256 of each file in out_dir but the convergence tables, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and not p.name.startswith("convergence_")}


def moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The file names whose digest differs, or that only one side has."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def mismatch(scenario: str, out_dir: Path) -> str | None:
    """None when out_dir has the scenario's recorded digests, else a
    message that names every moved file, and the numpy and scipy versions
    and SIMD targets of the recording and of this run."""
    golden = recorded()
    names = moved(golden["scenarios"][scenario], digests(out_dir))
    if not names:
        return None
    return (f"{scenario}: {len(names)} output file(s) moved: {', '.join(names)}\n"
            f"recorded with {golden['versions']}, running {versions()}")


@functools.cache
def _workloads():
    """perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:  # its dataclass looks the module up while the class is made
        spec.loader.exec_module(module)
    finally:
        # out of sys.modules again: hypothesis draws constants from every
        # local module there, so a new one would move other tests' examples
        del sys.modules[spec.name]
    return module


def run_workload(name: str, dirpath: Path) -> Path:
    """Write the workload's seed-1 scenario into dirpath, run it, and
    return its output directory."""
    config = _workloads().write_scenario(name, 1, dirpath)
    assert main(["run", "--config", str(config)]) == 0
    return dirpath / "out"


def record() -> None:
    """Run every scenario, print the files that moved against the
    recorded digests, and write the new ones."""
    import test_cli  # the towns' builders; only a recording needs them

    builders = {"town": test_cli.town_scenario, "long_town": test_cli.long_town_scenario,
                "school_town": test_cli.school_town_scenario}
    old = recorded()["scenarios"] if DIGESTS.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            dirpath = Path(tmp) / scenario
            if scenario in TOWNS:
                assert main(["run", "--config", builders[scenario](dirpath)]) == 0
                out = dirpath / "out"
            else:
                out = run_workload(scenario, dirpath)
            new[scenario] = digests(out)
            for name in moved(old.get(scenario, {}), new[scenario]):
                print(f"moved: {scenario}/{name}")
    DIGESTS.write_text(json.dumps({"versions": versions(), "scenarios": new}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
