"""Time `walkqca spectrum` and `walkqca dispersion` over 2D grid sizes.

    python tools/cli_ladder.py --base REV --processes 5 --out BENCH_<n>.json

Each fresh process imports walkqca from one tree and runs `cli.main` for
both commands on the 2D lattice at N = 32, 64, 128, 256 (theta 0.3, the
other settings at their defaults), writing into a temporary directory.
The first call of each command and size is kept apart as
`first_call_s`; the row takes the median of the repeats after it.  On
the change, the processes also run both commands at the grid cap,
`cli.GRID_CAP` modes; the base has no cap, and its per-mode loop would
take several times as long and as much memory there.  After each size
the process records its peak RSS so far.
Trees, processes and rows are as in `qca_ladder.py`: the two trees
alternate as `ladder.run_trees` describes, and each row is the median
and interquartile range of the per-process medians.

Needs numpy and git.  A process at the cap peaks near 145 MB.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
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


def _child(src: str) -> dict:
    """Time both commands at every size in this process, with walkqca from `src`."""
    sys.path.insert(0, src)
    import numpy as np

    from walkqca import cli

    cap = getattr(cli, "GRID_CAP", None)
    sizes = {**REPEATS, **({isqrt(cap): CAP_REPEATS} if cap else {})}
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        for n, repeats in sizes.items():
            config.write_text(json.dumps({"lattice": {"dimension": 2, "N": n, "theta": 0.3}}))
            for command in COMMANDS:
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([command, "--config", str(config), "--out", tmp])
                    times.append(time.perf_counter() - start)
                    if code != 0:
                        raise RuntimeError(f"{command} at N={n} exited {code}")
                rows[f"N{n}.{command}"] = {"median_s": float(np.median(times[1:])), "first_call_s": times[0]}
            rows[f"N{n}.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "rows": rows,
        "cap_n": isqrt(cap) if cap else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": ladder.blas_threads(np),
    }


def main(argv=None) -> int:
    args = ladder.parse_args(__doc__, argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0

    runs, facts = ladder.run_trees(__file__, args.base, args.processes)
    rows = []
    for name, procs in runs.items():
        cap_n = procs[0]["cap_n"]
        for n in SIZES + ((cap_n,) if cap_n else ()):
            for command in COMMANDS:
                cells = [p["rows"][f"N{n}.{command}"] for p in procs]
                per_process = [cell["median_s"] for cell in cells]
                rows.append({
                    "tree": name, "N": n, "modes": n * n, "command": command, "at_cap": n == cap_n,
                    **ladder.quartiles(per_process), "per_process_s": per_process,
                    "first_call_s": [cell["first_call_s"] for cell in cells],
                    "peak_rss_mb": [p["rows"][f"N{n}.peak_rss_mb"] for p in procs],
                })
    doc = {
        "kernel": "walkqca spectrum and dispersion through cli.main on the 2D lattice at theta 0.3, outputs written",
        "command": "python tools/cli_ladder.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": ladder.machine(runs["change"][0]),
        "processes_per_tree": args.processes,
        "repeats_per_process": {**{f"N{n}": r for n, r in REPEATS.items()}, "cap": CAP_REPEATS},
        "trees": facts,
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
