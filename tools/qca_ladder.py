"""Time the automaton step, split into shift, coin and readout, over qubit counts.

    python tools/qca_ladder.py --base REV --processes 5 --out BENCH_<n>.json

Two source trees are timed: `--base REV`, extracted with `git archive`
into a temporary directory, and this checkout's `src/` as it stands (the
change).  Each process is fresh: it imports walkqca from one tree, then
for q = 16, 18, 20, 22 (a one-type ring of q/2 sites) times
`qca.apply_shift`, `qca.apply_coin`, `qca.occupation_expectations` and
the whole `qca.qca_step` on a seeded state, and reports the median of
its repeats after the first.  Processes alternate between the trees,
each tree going first in every other round.  Each row of the output is
the median and interquartile range of those per-process medians.  BLAS
threads are capped at the CPUs the process may use, as perfbench caps
them, so the rows compare with its runs.

The first `apply_coin` call of each process, at q=16 right after import,
is kept apart: such calls have been seen taking 125-155 ms instead of
about 2 ms early in a process.  The output counts the processes where
any q=16 coin call took longer than `SLOW_COIN_S`.

Needs numpy and git.  Keep `--processes` small: a q=22 step holds about
four 64 MiB arrays at once.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np) -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _run_child(src: Path) -> dict:
    env = dict(os.environ)
    limit = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, limit)
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(src)], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def _tree_facts(tree: Path) -> dict:
    sources = sorted((tree / "src" / "walkqca").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True,
    ).stdout.strip().splitlines()[-1]  # "658 tests collected in 1.2s"
    return {
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_sha256": digest.hexdigest(),
        "tests": int(collected.split()[0]),
    }


def _quartiles(values: list[float]) -> dict:
    import numpy as np

    p25, p50, p75 = np.percentile(values, [25, 50, 75])
    return {"median_s": float(p50), "iqr_s": float(p75 - p25), "p25_s": float(p25), "p75_s": float(p75)}


def _machine(child: dict) -> dict:
    import numpy as np

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child["blas_threads"],
        "numpy": child["numpy"],
        "python": child["python"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare with the working tree")
    parser.add_argument("--processes", type=int, default=5, help="fresh processes per tree (at least 3)")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0
    if args.base is None or args.processes < 3:
        parser.error("need --base and at least 3 --processes")

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        trees = {"base": base, "change": ROOT}
        runs = {name: [] for name in trees}
        for round_ in range(args.processes):
            for name in sorted(trees, reverse=bool(round_ % 2)):
                runs[name].append(_run_child(trees[name] / "src"))
        facts = {name: _tree_facts(tree) for name, tree in trees.items()}

    head = _git("rev-parse", "HEAD").strip()
    facts["base"]["commit"] = _git("rev-parse", args.base).strip()
    facts["change"]["commit"] = head
    facts["change"]["src_differs_from_commit"] = bool(_git("status", "--porcelain", "--", "src").strip())
    rows = []
    for name, procs in runs.items():
        for q in QUBITS:
            for part in PARTS:
                per_process = [p["rows"][f"q{q}.{part}"] for p in procs]
                rows.append({"tree": name, "q": q, "part": part, **_quartiles(per_process),
                             "per_process_s": per_process})
    doc = {
        "kernel": "walkqca.qca.qca_step on a one-type ring of q/2 sites: shift, coin, readout and the whole step",
        "command": "python tools/qca_ladder.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": _machine(runs["change"][0]),
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
