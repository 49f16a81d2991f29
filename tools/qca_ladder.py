"""Time the automaton step, split into shift, coin and readout, over qubit counts.

    python tools/qca_ladder.py --base REV --processes 5 --out BENCH_<n>.json

Two source trees are timed: `--base REV`, extracted with `git archive`
into a temporary directory, and this checkout's `src/` as it stands (the
change).  Each process is fresh: it imports walkqca from one tree, then
for q = 16, 18, 20, 22 (a one-type ring of q/2 sites) times
`qca.apply_shift`, `qca.apply_coin`, `qca.occupation_expectations` and
the whole `qca.qca_step` on a seeded state, and reports the median of
its repeats after the first.  Processes alternate between the trees as
`ladder.run_trees` describes.  Each row of the output is the median and
interquartile range of those per-process medians.

The first `apply_coin` call of each process, at q=16 right after import,
is kept apart: such calls have been seen taking 125-155 ms instead of
about 2 ms early in a process.  The output counts the processes where
any q=16 coin call took longer than `SLOW_COIN_S`.

Needs numpy and git.  Keep `--processes` small: a q=22 step holds three
64 MiB arrays at once, its input, its result and the scratch state that
`qca_step` keeps, as `apply_coin` alone does with its input and its two arrays
(traced with tracemalloc; a step that allocated every pass held four).
"""

from __future__ import annotations

import json
import platform
import sys
import time

import ladder

QUBITS = (16, 18, 20, 22)
REPEATS = {16: 15, 18: 9, 20: 5, 22: 4}
PARTS = ("coin", "shift", "readout", "step")  # the coin first, so it runs first after import
SLOW_COIN_S = 0.01  # a q=16 coin normally takes about 2 ms


def _child(src: str) -> dict:
    """Time every part at every q in this process, with walkqca from `src`."""
    sys.path.insert(0, src)
    import numpy as np

    from walkqca import qca

    coin = qca.build_local_coin(0.3)
    parts = {
        "coin": lambda lat, st: qca.apply_coin(lat, coin, st),
        "shift": qca.apply_shift,
        "readout": qca.occupation_expectations,
        "step": lambda lat, st: qca.qca_step(lat, coin, st),
    }
    rows, coin_calls = {}, []
    for q in QUBITS:
        lattice = qca.CellLattice(n_sites=q // 2, n_types=1)
        rng = np.random.default_rng(q)
        state = rng.standard_normal(lattice.dim) + 1j * rng.standard_normal(lattice.dim)
        state /= np.linalg.norm(state)
        for part in PARTS:
            times = []
            for _ in range(REPEATS[q]):
                start = time.perf_counter()
                parts[part](lattice, state)
                times.append(time.perf_counter() - start)
            if q == QUBITS[0] and part == "coin":
                coin_calls = times
            rows[f"q{q}.{part}"] = float(np.median(times[1:]))  # the first call warms up
    return {
        "rows": rows,
        "first_coin_call_s": coin_calls[0],
        "slowest_coin_call_s": max(coin_calls),
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
        for q in QUBITS:
            for part in PARTS:
                per_process = [p["rows"][f"q{q}.{part}"] for p in procs]
                rows.append({"tree": name, "q": q, "part": part, **ladder.quartiles(per_process),
                             "per_process_s": per_process})
    doc = {
        "kernel": "walkqca.qca.qca_step on a one-type ring of q/2 sites: shift, coin, readout and the whole step",
        "command": "python tools/qca_ladder.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": ladder.machine(runs["change"][0]),
        "processes_per_tree": args.processes,
        "repeats_per_process": {f"q{q}": n for q, n in REPEATS.items()},
        "trees": facts,
        "rows": rows,
        "slow_coin_calls": {
            "threshold_s": SLOW_COIN_S,
            "note": "q=16 apply_coin calls right after import; counts processes with any call over the threshold",
            **{name: {
                "processes_over": sum(p["slowest_coin_call_s"] > SLOW_COIN_S for p in procs),
                "first_call_s": [p["first_coin_call_s"] for p in procs],
                "slowest_call_s": [p["slowest_coin_call_s"] for p in procs],
            } for name, procs in runs.items()},
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
