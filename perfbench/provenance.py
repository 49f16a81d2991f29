"""Where and on what a run was measured.

Apart from the BLAS thread cap, everything here is read, never set: CPU
model and cache sizes from /proc and /sys, the BLAS library numpy was
built against and the thread count it runs with, versions, the `src/`
line count and the git commit.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# numpy is imported inside the functions below: pin_blas_threads must run
# before numpy loads its BLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use."""
    limit = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= limit):
            os.environ[var] = str(limit)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if it is OpenBLAS."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            return None
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"library": name, "threads": _blas_runtime_threads()}


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


def _git_commit(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(root / ".git" / ref))
        if commit is None:
            for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head


def collect(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "blas": _blas(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "src_lines": _src_lines(root),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
