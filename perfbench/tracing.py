"""Spans around the library's public functions, recorded from outside.

:func:`install` replaces each traced function with a wrapper in every
``walkqca`` module namespace that holds it (the defining module and every
module that bound it with ``from ... import``), and wraps the entries of
``verify.SUITES``.  The wrappers live only in this process, and the
function :func:`install` returns puts the originals back.

Each span records its name, start, end, parent span and whether it raised,
plus one optional size figure (amplitudes stepped, dense bytes built)
computed from the call's arguments.  Spans stay in memory; the runner
writes them out when it finishes.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import walkqca
from walkqca import verify


def _dense_walk_bytes_1d(n_sites, theta):
    return 16 * (2 * n_sites) ** 2


def _dense_walk_bytes_2d(spec, frame=None):
    return 16 * spec.walk_dim**2


def _dense_fock_bytes(basis, *args):
    return 16 * basis.dim**2


def _amplitudes(spec, n_max, state):
    return state.amplitudes.size


def _qca_amplitudes(cells, coin, state):
    return cells.dim


# module -> {function name: size figure or None}
TRACED = {
    "cli": {"main": None},
    "lattice": {"momentum_mode": None, "momentum_grid": None, "energy_labels": None},
    "blocks": {"decompose": None},
    "walk1d": {
        "walk_matrix_1d": _dense_walk_bytes_1d,
        "build_walk_unitary_1d": None,
        "momentum_block_1d": None,
        "walk_eigenstate_1d": None,
        "verify_block_consistency": None,
        "spectrum_rows_1d": None,
    },
    "walk2d": {
        "build_walk_unitary_2d": _dense_walk_bytes_2d,
        "momentum_block_2d": None,
        "walk_eigenstate_2d": None,
        "verify_block_consistency_2d": None,
        "spectrum_rows_2d": None,
    },
    "dirac": {"dispersion_table": None, "convergence_study": None},
    "multiparticle": {
        "total_evolution_apply": _amplitudes,
        "antisymmetrize": None,
        "project_physical": None,
        "physical_subspace_projector_residual": None,
        "physical_basis_state": None,
        "random_physical_state": None,
        "eigenphase_check": None,
    },
    "fock": {
        "creation_op": _dense_fock_bytes,
        "annihilation_op": _dense_fock_bytes,
        "number_op": _dense_fock_bytes,
        "evolution_diagonal": _dense_fock_bytes,
        "momentum_mode_ops": None,
        "fock_to_firstquantized": None,
        "full_fock_basis": None,
    },
    "qca": {
        "qca_step": _qca_amplitudes,
        "qca_shift_permutation": None,
        "apply_shift": None,
        "apply_coin": None,
        "occupation_expectations": None,
        "qca_step_operator": None,
        "one_particle_sector_isomorphism": None,
        "locality_check": None,
    },
    "verify": {"intertwining_residual": None, "momentum_ops_residual": None},
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    failed: bool
    size: int


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, size=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = Span(name, start, end, parent, failed, size(*args, **kwargs) if size else 0)

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def install(tracer: Tracer):
    """Put the wrappers in place; returns the function that takes them out."""
    namespaces = [vars(mod) for name, mod in sys.modules.items() if name.startswith("walkqca") and mod]
    undo = []
    for short, functions in TRACED.items():
        module = getattr(walkqca, short)
        for fname, size in functions.items():
            original = getattr(module, fname)
            wrapped = tracer.wrap(f"{short}.{fname}", original, size)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        undo.append((ns, key, original))
                        ns[key] = wrapped
    for suite, original in list(verify.SUITES.items()):
        undo.append((verify.SUITES, suite, original))
        verify.SUITES[suite] = tracer.wrap(f"verify.{suite}", original)

    def remove():
        for target, key, original in reversed(undo):
            target[key] = original

    return remove


# ---------------------------------------------------------------- per-layer metrics


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, call count, failures and size figure."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "failed": 0, "size": 0})
    for span, children in zip(spans, child_time):
        entry = out[span.name]
        entry["self_s"] += span.end - span.start - children
        entry["calls"] += 1
        entry["failed"] += span.failed
        entry["size"] += span.size
    return out


MODULE_TOTALS = ("lattice", "walk1d", "walk2d", "dirac", "multiparticle", "fock", "qca", "verify")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (zero where a layer was not called)."""
    agg = aggregate(spans)
    get = lambda name, key: agg[name][key] if name in agg else 0
    m = {}
    for module in MODULE_TOTALS:
        m[f"{module}.self_s"] = sum(e["self_s"] for n, e in agg.items() if n.split(".", 1)[0] == module)
    m["lattice.calls"] = sum(e["calls"] for n, e in agg.items() if n.startswith("lattice."))
    for name in (
        "cli.main",
        "blocks.decompose",
        "walk1d.walk_matrix_1d",
        "walk1d.momentum_block_1d",
        "walk2d.build_walk_unitary_2d",
        "walk2d.momentum_block_2d",
        "multiparticle.total_evolution_apply",
        "fock.creation_op",
        "qca.qca_step",
        "qca.qca_shift_permutation",
    ):
        m[f"{name}.calls"] = get(name, "calls")
    for name in (
        "cli.main",
        "blocks.decompose",
        "walk1d.walk_matrix_1d",
        "walk1d.verify_block_consistency",
        "walk1d.momentum_block_1d",
        "walk2d.build_walk_unitary_2d",
        "walk2d.verify_block_consistency_2d",
        "walk2d.momentum_block_2d",
        "dirac.dispersion_table",
        "dirac.convergence_study",
        "multiparticle.total_evolution_apply",
        "multiparticle.antisymmetrize",
        "multiparticle.project_physical",
        "multiparticle.physical_basis_state",
        "fock.creation_op",
        "fock.evolution_diagonal",
        "fock.fock_to_firstquantized",
        "qca.qca_shift_permutation",
        "qca.apply_shift",
        "qca.apply_coin",
        "qca.occupation_expectations",
        "qca.one_particle_sector_isomorphism",
        "qca.locality_check",
    ):
        m[f"{name}.self_s"] = get(name, "self_s")
    for suite in verify.SUITES:
        m[f"verify.{suite}.self_s"] = get(f"verify.{suite}", "self_s")
    m["walk1d.walk_matrix_1d.bytes"] = get("walk1d.walk_matrix_1d", "size")
    m["walk2d.build_walk_unitary_2d.bytes"] = get("walk2d.build_walk_unitary_2d", "size")
    m["multiparticle.amplitudes_stepped"] = get("multiparticle.total_evolution_apply", "size")
    m["multiparticle.antisymmetrize.failed"] = get("multiparticle.antisymmetrize", "failed")
    m["fock.dense_bytes"] = sum(get(f"fock.{f}", "size") for f in ("creation_op", "annihilation_op", "number_op", "evolution_diagonal"))
    m["qca.amplitudes_stepped"] = get("qca.qca_step", "size")
    return m
