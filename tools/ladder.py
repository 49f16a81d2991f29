"""What the ladder tools share: fresh timing processes over two source trees.

A ladder tool is a script with a `--child SRC` mode that imports walkqca
from SRC, times its kernels and prints one JSON object.  `run_trees`
extracts `--base REV` with `git archive` into a temporary directory and
runs the script's child alternately on that tree and on this checkout's
`src/` as it stands (the change), each tree going first in every other
round.  BLAS threads are capped at the CPUs the process may use, as
perfbench caps them, so the rows compare with its runs.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(doc: str, argv=None) -> argparse.Namespace:
    """A ladder tool's `--base`, `--processes` and `--out`, or its hidden `--child SRC`."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare with the working tree")
    parser.add_argument("--processes", type=int, default=5, help="fresh processes per tree (at least 3)")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and (args.base is None or args.processes < 3):
        parser.error("need --base and at least 3 --processes")
    return args


def blas_threads(np) -> int | None:
    """The OpenBLAS thread count of the numpy imported as `np`, or None without OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _run_child(script: str, src: Path) -> dict:
    env = dict(os.environ)
    limit = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, limit)
    out = subprocess.run(
        [sys.executable, script, "--child", str(src)], env=env, check=True, capture_output=True, text=True
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


def run_trees(script: str, base: str, processes: int) -> tuple[dict[str, list[dict]], dict[str, dict]]:
    """Per tree ("base", "change"), the children's outputs in run order, and the trees' facts."""
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", base], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout, check=True)
        trees = {"base": base_tree, "change": ROOT}
        runs = {name: [] for name in trees}
        for round_ in range(processes):
            for name in sorted(trees, reverse=bool(round_ % 2)):
                runs[name].append(_run_child(script, trees[name] / "src"))
        facts = {name: _tree_facts(tree) for name, tree in trees.items()}
    facts["base"]["commit"] = _git("rev-parse", base).strip()
    facts["change"]["commit"] = _git("rev-parse", "HEAD").strip()
    facts["change"]["src_differs_from_commit"] = bool(_git("status", "--porcelain", "--", "src").strip())
    return runs, facts


def quartiles(values: list[float]) -> dict:
    import numpy as np

    p25, p50, p75 = np.percentile(values, [25, 50, 75])
    return {"median_s": float(p50), "iqr_s": float(p75 - p25), "p25_s": float(p25), "p75_s": float(p75)}


def machine(child: dict) -> dict:
    """The machine, from this process and one child's numpy, Python and BLAS threads."""
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
