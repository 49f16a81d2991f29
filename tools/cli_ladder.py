"""Time the walkqca CLI commands that write CSV tables, in fresh processes.

    python tools/cli_ladder.py --base REV --processes 5 --out BENCH_<n>.json

Each fresh process imports walkqca from one tree and runs `cli.main`,
writing into a temporary directory (`qca-demo` into a discarded
standard output): first `evolve`, `qca-demo` and `verify` at the
default config, then `spectrum` and `dispersion` on the 2D lattice at
N = 32, 64, 128, 256 (theta 0.3, the other settings at their defaults)
and at the grid cap, `cli.GRID_CAP` modes, and last `verify --only blocks`
and CI's `verify --only blocks --only momentum-ops` on a 1D check lattice of
`cli.GRID_CAP` modes, where the tree has a cap (a tree from before the cap
skips them all: its per-mode loop would take several times as long and as
much memory there).  The first call of each command
and size is kept apart as `first_call_s`; the row takes the median of
the repeats after it.  After each command at the default config and
after each size the process records its peak RSS so far.
Last, the runs near a cap: 3 particles on 1D N=62 (125**3 amplitudes, near
the amplitude cap) under `verify --only preservation` and `evolve --steps 4`,
and CI's automaton run at the qubit cap, `evolve --steps 4` with the `qca`
system on 11 sites of 1 type (2**22 amplitudes).  Each runs once in a fresh
`walkqca` process of its own, whose wall time (interpreter start included)
and peak RSS make the row's per-process values.
Trees, processes and rows are as in `qca_ladder.py`: the two trees
alternate as `ladder.run_trees` describes, and each row is the median
and interquartile range of the per-process medians.

Needs numpy and git.  A process peaks near 130 MB at the grid cap (`BENCH_23.json`,
the change's rows at N=512; 145 MB on its base) and near 190 MB in the `verify` cap run
(`BENCH_30.json`; 250 MB on its base); a run near the amplitude cap near 125 MB
(`BENCH_31.json`; 156 MB on its base); the automaton run at the qubit cap near 248 MB
(`BENCH_37_cli.json`; 312 MB on its base).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from math import isqrt
from pathlib import Path

import ladder

SIZES = (32, 64, 128, 256)
REPEATS = {32: 9, 64: 7, 128: 5, 256: 3}
CAP_REPEATS = 3
COMMANDS = ("spectrum", "dispersion")
DEFAULT_COMMANDS = ("evolve", "qca-demo", "verify")
# The verify runs at the cap, on a 1D check lattice of cli.GRID_CAP modes; the second is CI's.
VERIFY_CAP_COMMANDS = ("verify --only blocks", "verify --only blocks --only momentum-ops")
DEFAULT_REPEATS = 9
# The runs near a cap, each (command, config, amplitudes): 3 particles on 1D N=62, 125**3 amplitudes near
# multiparticle.AMPLITUDE_CAP, and CI's automaton run at qca.QUBIT_CAP, 2**22 amplitudes.
THREE_LABELS = [{"ell": -3, "branch": -1}, {"ell": 1, "branch": 1}, {"ell": 5, "branch": -1}]
NEAR_CAP_RUNS = (
    ("verify --only preservation", {"verify": {"n_1d": 62, "n_random": 3}}, 125**3),
    ("evolve --steps 4", {"lattice": {"N": 62}, "evolve": {"n_max": 3, "labels": THREE_LABELS}}, 125**3),
    ("evolve --steps 4", {"evolve": {"system": "qca", "qca": {"sites": 11, "types": 1}}}, 2**22),
)


def _timed(cli, argv: list[str], repeats: int) -> dict:
    """Run `cli.main(argv)` `repeats` times: the first call's time and the median of the rest."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return {"median_s": statistics.median(times[1:]), "first_call_s": times[0]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# A fresh process's own peak RSS: its getrusage ru_maxrss would start from the peak of the process
# that spawned it, which exec carries over, so it reads VmHWM, the peak of its own memory map.
FRESH_RUN = (
    "import sys\n"
    "from walkqca import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _fresh_run(src: str, argv: list[str]) -> tuple[float, float]:
    """Wall time and peak RSS (MB) of `walkqca ARGV` in a fresh process, with walkqca from `src`."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, *argv], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    return time.perf_counter() - start, int(done.stderr.split()[-1]) / 1024


def _child(src: str) -> dict:
    """Time every command at its configs in this process, with walkqca from `src`."""
    sys.path.insert(0, src)
    import numpy as np

    from walkqca import cli

    cap = getattr(cli, "GRID_CAP", None)
    sizes = {**REPEATS, **({isqrt(cap): CAP_REPEATS} if cap else {})}
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in DEFAULT_COMMANDS:
            # qca-demo prints to standard output and takes no --out
            argv = [command] if command == "qca-demo" else [command, "--out", tmp]
            rows[f"default.{command}"] = _timed(cli, argv, DEFAULT_REPEATS)
            rows[f"default.{command}.peak_rss_mb"] = _peak_rss_mb()
        config = Path(tmp) / "config.json"
        for n, repeats in sizes.items():
            config.write_text(json.dumps({"lattice": {"dimension": 2, "N": n, "theta": 0.3}}))
            for command in COMMANDS:
                rows[f"N{n}.{command}"] = _timed(cli, [command, "--config", str(config), "--out", tmp], repeats)
            rows[f"N{n}.peak_rss_mb"] = _peak_rss_mb()
        if cap:  # last, as it peaks highest
            config.write_text(json.dumps({"verify": {"n_1d": cap}}))
            for command in VERIFY_CAP_COMMANDS:
                argv = [*command.split(), "--config", str(config), "--out", tmp]
                rows[f"cap.{command}"] = _timed(cli, argv, CAP_REPEATS)
                rows[f"cap.{command}.peak_rss_mb"] = _peak_rss_mb()
        for i, (command, doc, _) in enumerate(NEAR_CAP_RUNS):
            config.write_text(json.dumps(doc))
            seconds, rss = _fresh_run(src, [*command.split(), "--config", str(config), "--out", tmp])
            rows[f"near_cap.{i}"] = {"median_s": seconds, "first_call_s": seconds}
            rows[f"near_cap.{i}.peak_rss_mb"] = rss
    return {
        "rows": rows,
        "cap_n": isqrt(cap) if cap else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": ladder.blas_threads(np),
    }


def _row(procs: list[dict], key: str, rss_key: str, where: dict) -> dict:
    """One command's row over a tree's processes: `where` it ran, then the quartiles of their medians."""
    cells = [p["rows"][key] for p in procs]
    per_process = [cell["median_s"] for cell in cells]
    return {
        **where, **ladder.quartiles(per_process), "per_process_s": per_process,
        "first_call_s": [cell["first_call_s"] for cell in cells],
        "peak_rss_mb": [p["rows"][rss_key] for p in procs],
    }


def main(argv=None) -> int:
    args = ladder.parse_args(__doc__, argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0

    runs, facts = ladder.run_trees(__file__, args.base, args.processes)
    rows = []
    for name, procs in runs.items():
        for command in DEFAULT_COMMANDS:
            key = f"default.{command}"
            where = {"tree": name, "N": None, "modes": None, "command": command, "at_cap": False, "config": "default"}
            rows.append(_row(procs, key, f"{key}.peak_rss_mb", where))
        cap_n = procs[0]["cap_n"]
        for n in SIZES + ((cap_n,) if cap_n else ()):
            for command in COMMANDS:
                where = {"tree": name, "N": n, "modes": n * n, "command": command, "at_cap": n == cap_n}
                rows.append(_row(procs, f"N{n}.{command}", f"N{n}.peak_rss_mb", where))
        for command in VERIFY_CAP_COMMANDS if cap_n else ():
            modes = cap_n * cap_n
            where = {"tree": name, "N": None, "modes": modes, "command": command, "at_cap": True}
            where["config"] = {"verify": {"n_1d": modes}}
            rows.append(_row(procs, f"cap.{command}", f"cap.{command}.peak_rss_mb", where))
        for i, (command, config, amplitudes) in enumerate(NEAR_CAP_RUNS):
            where = {"tree": name, "N": None, "modes": None, "command": command, "at_cap": False, "config": config}
            where["amplitudes"] = amplitudes
            rows.append(_row(procs, f"near_cap.{i}", f"near_cap.{i}.peak_rss_mb", where))
    doc = {
        "kernel": (
            "walkqca evolve, qca-demo and verify through cli.main at the default config, spectrum and dispersion"
            " on the 2D lattice at theta 0.3, and verify --only blocks, alone and with --only momentum-ops, on the"
            " 1D check lattice at the grid cap, outputs written; verify --only preservation and evolve with 3"
            " particles on 1D N=62, near the amplitude cap, and evolve with the qca system at 22 qubits, each in"
            " a fresh walkqca process"
        ),
        "command": "python tools/cli_ladder.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": ladder.machine(runs["change"][0]),
        "processes_per_tree": args.processes,
        "repeats_per_process": {
            "default": DEFAULT_REPEATS, **{f"N{n}": r for n, r in REPEATS.items()}, "cap": CAP_REPEATS, "near_cap": 1,
        },
        "trees": facts,
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
