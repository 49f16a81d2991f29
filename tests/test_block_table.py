"""The grid tables against the per-mode loops they replaced, kept here as oracles.

`walkqca spectrum`, `walkqca dispersion`, `walk.verify_block_consistency`
and `verify`'s `blocks` and `momentum-ops` suites compute every grid mode
at once from `walk.block_table`.  The oracles below walk the grid one
`momentum_block` at a time, as those commands used to, and their CSV bytes
and block-consistency readings must be equal.  The scalar eigenphase and
eigenvector formulas that `blocks` replaced with one function for a block
or a grid are kept as oracles too, and must equal both calls byte for byte.
"""

import csv
import dataclasses
import io
import json
from math import atan2, pi, sqrt

import numpy as np
import pytest

from walkqca import blocks, cli, fock, verify, walk
from walkqca.blocks import (
    DEGENERACY_TOL,
    FORM_SWITCH_TOL,
    eigenphase_from_r,
    eigenvector_pair,
    is_degenerate,
    matrix_from_r,
)
from walkqca.lattice import HBAR, energy_labels, make_lattice, momentum_grid


def _mode_columns(mode):
    return dict(zip(walk.MODE_COLUMNS[len(mode.ell)], mode.ell + mode.k))


def _spectrum_rows_oracle(spec):
    rows = []
    for mode in momentum_grid(spec):
        block = walk.momentum_block(spec, mode)
        r0, r1, r2, r3 = block.r
        rows.append(
            {**_mode_columns(mode), "r0": r0, "r1": r1, "r2": r2, "r3": r3,
             "phi": block.phi, "degenerate": int(block.degenerate)}
        )
    return rows


def _dispersion_rows_oracle(spec):
    rows = []
    for mode in momentum_grid(spec):
        k_dx = tuple(kc * spec.dx for kc in mode.k)
        phi_over_dt = HBAR * eigenphase_from_r(walk.pauli_coefficients(k_dx, spec.theta)) / spec.dt
        p2 = sum((HBAR * kc) ** 2 for kc in (kd / spec.dx for kd in k_dx))
        e_rel = sqrt(p2 * spec.c**2 + spec.mc2**2)
        abs_err = abs(phi_over_dt - e_rel)
        if e_rel < 1e-300:
            rel_err = 0.0 if abs_err < 1e-300 else float("inf")
        else:
            rel_err = abs_err / e_rel
        rows.append(
            {**_mode_columns(mode), "phi_over_dt": phi_over_dt, "e_rel": e_rel,
             "abs_err": abs_err, "rel_err": rel_err}
        )
    return rows


def _block_fill_oracle(spec):
    """verify_block_consistency with each mode's block from momentum_block."""
    grid, axes = (spec.N,) * spec.dimension, tuple(range(spec.dimension))
    pair = walk.unit_phases((spec.walk_dim, 2))
    stepped = np.empty((1, spec.walk_dim, 2), dtype=complex)
    walk.step_into(spec, pair[None], stepped)
    blocks = np.empty((*grid, 2, 2), dtype=complex)
    for mode in momentum_grid(spec):
        blocks[tuple(e % spec.N for e in mode.ell)] = walk.momentum_block(spec, mode).matrix
    modes = np.fft.ifftn(pair.reshape(*grid, 2, 2), axes=axes, norm="ortho")
    expected = np.fft.fftn(blocks @ modes, axes=axes, norm="ortho").reshape(stepped[0].shape)
    return float(np.max(np.abs(stepped[0] - expected)))


def _csv_bytes(rows):
    with io.StringIO(newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return fh.getvalue().encode()


def _agreement(spec, tmp_path):
    """(spectrum.csv, dispersion.csv, block reading) each equal to its oracle's."""
    lattice = {"dimension": spec.dimension, "N": spec.N, "dx": spec.dx, "dt": spec.dt, "theta": spec.theta}
    config = tmp_path / "config.json"
    for command in ("spectrum", "dispersion"):
        # spectrum does not read dt and refuses one off its default; its oracle still gets the spec's
        doc = {key: value for key, value in lattice.items() if key != "dt" or command == "dispersion"}
        config.write_text(json.dumps({"lattice": doc}))
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    return (
        (tmp_path / "spectrum.csv").read_bytes() == _csv_bytes(_spectrum_rows_oracle(spec)),
        (tmp_path / "dispersion.csv").read_bytes() == _csv_bytes(_dispersion_rows_oracle(spec)),
        walk.verify_block_consistency(spec) == _block_fill_oracle(spec),
    )


@pytest.mark.parametrize("dx,dt", [(1.0, 1.0), (0.5, 0.25)])
@pytest.mark.parametrize("theta", [0.0, 1e-12, 0.05, 0.3, pi / 2, 3.0])
@pytest.mark.parametrize("dimension,n", [(1, 2), (1, 8), (1, 512), (2, 2), (2, 8), (2, 64)])
def test_grid_tables_equal_the_per_mode_oracles(tmp_path, dimension, n, theta, dx, dt):
    assert _agreement(make_lattice(dimension, n, dx, dt, theta), tmp_path) == (True, True, True)


def _swap_columns(table, a, b):
    return {**table, a: table[b], b: table[a]}


TABLE_FAULTS = {
    "k-columns-swapped": (lambda table_of, spec: _swap_columns(table_of(spec), "k_x", "k_y"), (False, False, True)),
    "ell-columns-swapped": (
        lambda table_of, spec: _swap_columns(table_of(spec), "ell_x", "ell_y"), (False, False, False)
    ),
    "theta-off-by-1e-9": (
        lambda table_of, spec: table_of(dataclasses.replace(spec, theta=spec.theta + 1e-9)), (False, False, False)
    ),
}


@pytest.mark.parametrize("fault", list(TABLE_FAULTS))
def test_the_oracle_comparison_catches_a_faulty_table(tmp_path, monkeypatch, fault):
    # negative control: each fault changes the table and must show in every output it reaches
    corrupt, expected = TABLE_FAULTS[fault]
    table_of = walk.block_table
    monkeypatch.setattr(walk, "block_table", lambda spec: corrupt(table_of, spec))
    assert _agreement(make_lattice(2, 8, 1.0, 1.0, 0.3), tmp_path) == expected


def test_the_verify_block_suites_build_no_block_per_grid_mode(monkeypatch):
    calls, tables, pairs = [], [], []
    block_of, table_of, pair_of = walk.momentum_block, walk.block_table, blocks.eigenvector_pair
    monkeypatch.setattr(walk, "momentum_block", lambda *args: calls.append(args) or block_of(*args))
    monkeypatch.setattr(walk, "block_table", lambda spec: tables.append(spec) or table_of(spec))
    monkeypatch.setattr(blocks, "eigenvector_pair", lambda *args: pairs.append(args) or pair_of(*args))
    options = verify.VerifyOptions(make_lattice(1, 64, 1.0, 1.0, 0.3), make_lattice(2, 16, 1.0, 1.0, 0.3))
    assert all(row.passed for row in verify.check_blocks(options))
    assert calls == []
    # one table per check lattice, read by every row, and one eigenvector call for every live block
    assert tables == [options.spec1d, options.spec2d] and len(pairs) == 1
    tables.clear()
    counts = []
    for n in (4, 64):  # the two checked modes and their Fock basis, whatever the grid
        spec = make_lattice(1, n, 1.0, 1.0, 0.3)
        assert verify.momentum_ops_residual(spec) < 1e-12
        counts.append(len(calls))
        calls.clear()
    assert counts == [0, 0]  # their blocks come from the table too


def test_no_library_path_builds_a_per_mode_block(tmp_path, monkeypatch):
    # a label's phase and coin vector come from walk.label_phase and walk_eigenstate, and the two checked
    # momentum-ops blocks from the table; only the per-mode API, momentum_block, decomposes a block
    def refused(*args):
        raise AssertionError("blocks.decompose was called")

    for module in (blocks, walk):
        monkeypatch.setattr(module, "decompose", refused)
    spec = make_lattice(1, 4, 1.0, 1.0, 0.3)
    with pytest.raises(AssertionError, match="decompose"):
        walk.momentum_block(spec, momentum_grid(spec)[0])
    assert cli.main(["verify", "--out", str(tmp_path / "verify")]) == 0
    labels = [{"ell": ell, "branch": branch} for ell, branch in ((-3, -1), (1, 1), (4, -1))]
    config = tmp_path / "three.json"
    config.write_text(json.dumps({"lattice": {"N": 8}, "evolve": {"n_max": 3, "labels": labels}}))
    assert cli.main(["evolve", "--config", str(config), "--out", str(tmp_path / "evolve"), "--steps", "2"]) == 0
    assert verify.intertwining_residual(spec, 3) < 1e-12
    basis = fock.full_fock_basis(spec)
    assert fock.evolution_diagonal(basis, spec).weight.shape == (1, basis.dim)
    assert len(fock.momentum_mode_ops(basis, spec, basis.modes[0].mode)) == 2


@pytest.mark.parametrize("dimension,n,theta", [(1, 8, 0.3), (2, 4, 0.3), (1, 4, 0.0), (2, 4, 0.0)])
def test_a_labels_phase_and_eigenstate_equal_its_momentum_blocks_bit_for_bit(dimension, n, theta):
    # at theta 0 the k = 0 and k = pi blocks are degenerate and carry the canonical basis
    spec = make_lattice(dimension, n, 1.0, 1.0, theta)
    assert any(walk.momentum_block(spec, mode).degenerate for mode in momentum_grid(spec)) == (theta == 0.0)
    for label in energy_labels(spec):
        block = walk.momentum_block(spec, label.mode)
        vector = block.v_plus if label.branch > 0 else block.v_minus
        assert walk.label_phase(spec, label) == label.branch * block.phi
        expected = np.kron(walk.momentum_state(spec, label.mode), vector)
        assert walk.walk_eigenstate(spec, label).tobytes() == expected.tobytes()


def _eigenvector_pair_oracle(r1, r2, r3):
    """The scalar eigenvector pair that blocks.eigenvector_pair replaced: one block, Python branches."""
    s = sqrt(r1 * r1 + r2 * r2 + r3 * r3)
    w = r1 + 1j * r2
    if s + r3 > FORM_SWITCH_TOL * s:
        v_plus = np.array([s + r3, w]) / sqrt(2.0 * s * (s + r3))
    else:
        v_plus = np.array([np.conj(w), s - r3]) / sqrt(2.0 * s * (s - r3))
    if s - r3 > FORM_SWITCH_TOL * s:
        v_minus = np.array([r3 - s, w]) / sqrt(2.0 * s * (s - r3))
    else:
        v_minus = np.array([-np.conj(w), s + r3]) / sqrt(2.0 * s * (s + r3))
    return v_plus, v_minus


def _eigensystem_oracle(r_modes):
    """Per block: atan2(|r_vec|, r0), the degeneracy flag, and the forms each live block's vectors take."""
    s = [sqrt(r1 * r1 + r2 * r2 + r3 * r3) for _, r1, r2, r3 in r_modes]
    live = [(r_mode, s_mode) for r_mode, s_mode in zip(r_modes, s) if s_mode >= DEGENERACY_TOL]
    # (whether the vector of sign +1, v_plus, or -1, v_minus, takes its companion form, sign)
    companion = {(s_mode + sign * r_mode[3] <= FORM_SWITCH_TOL * s_mode, sign) for r_mode, s_mode in live for sign in (1, -1)}
    phi = [atan2(s_mode, r_mode[0]) for r_mode, s_mode in zip(r_modes, s)]
    return np.array(phi), [s_mode < DEGENERACY_TOL for s_mode in s], [r_mode for r_mode, _ in live], companion


# Grids with degenerate blocks and blocks at both poles, where v_plus and then v_minus take the companion form.
EIGENSYSTEM_GRIDS = [(1, 8, 0.0), (2, 4, pi / 2), (2, 4, 1e-12), (1, 512, 0.3)]


@pytest.mark.parametrize("theta", [0.0, 0.3, pi / 2, 1e-12])
@pytest.mark.parametrize("dimension,n", [(1, 8), (2, 4), (1, 512)])
def test_matrix_from_r_on_arrays_equals_the_stacked_scalar_calls(dimension, n, theta):
    table = walk.block_table(make_lattice(dimension, n, 1.0, 1.0, theta))
    r = [table[f"r{i}"] for i in range(4)]
    r_modes = list(zip(*(c.tolist() for c in r)))
    stacked = np.array([matrix_from_r(r_mode) for r_mode in r_modes])
    assert matrix_from_r(r).tobytes() == stacked.tobytes()
    # the grid call and each block's call equal the scalar oracles, byte for byte
    phi, degenerate, live, _ = _eigensystem_oracle(r_modes)
    assert eigenphase_from_r(r).tobytes() == phi.tobytes()
    assert [eigenphase_from_r(r_mode) for r_mode in r_modes] == phi.tolist()
    assert all(type(eigenphase_from_r(r_mode)) is float for r_mode in r_modes)
    assert is_degenerate(r).tolist() == degenerate == [bool(is_degenerate(r_mode)) for r_mode in r_modes]
    oracle = np.array([_eigenvector_pair_oracle(*r_mode[1:]) for r_mode in live])
    grid = np.stack(eigenvector_pair([c[~is_degenerate(r)] for c in r]), axis=1)
    assert grid.tobytes() == oracle.tobytes()
    assert np.array([eigenvector_pair(r_mode) for r_mode in live]).tobytes() == oracle.tobytes()


def test_the_eigensystem_grids_reach_degenerate_blocks_and_both_companion_forms():
    reached = set()
    for dimension, n, theta in EIGENSYSTEM_GRIDS:
        table = walk.block_table(make_lattice(dimension, n, 1.0, 1.0, theta))
        _, degenerate, _, companion = _eigensystem_oracle(list(zip(*(table[f"r{i}"].tolist() for i in range(4)))))
        reached |= companion | {("degenerate", any(degenerate))}
    assert reached >= {(True, 1), (True, -1), (False, 1), (False, -1), ("degenerate", True)}


def _vector_norms_oracle(vectors):
    """The per-vector loop that verify.vector_norms replaced: one np.linalg.norm call per row."""
    return np.array(list(map(np.linalg.norm, vectors)))


@pytest.mark.parametrize(
    "n_1d,n_2d", [(4, 4), (32, 4), (512, 64), (cli.GRID_CAP, 4)], ids=["default", "bench", "ci", "grid-cap"]
)
def test_the_eigenvector_residual_equals_the_per_vector_norms(tmp_path, monkeypatch, n_1d, n_2d):
    # every deviation vector the blocks suite measures, at the check lattices and at the grid cap
    seen, norms_of = [], verify.vector_norms

    def recorded(vectors):
        seen.append((vectors, norms_of(vectors)))
        return seen[-1][1]

    monkeypatch.setattr(verify, "vector_norms", recorded)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"verify": {"n_1d": n_1d, "n_2d": n_2d}}))
    assert cli.main(["verify", "--config", str(config), "--only", "blocks", "--out", str(tmp_path)]) == 0
    [(vectors, norms)] = seen
    assert vectors.shape[1] == 2
    oracle = _vector_norms_oracle(vectors)
    assert (norms == oracle).all()
    rows = {row["check"]: row for row in json.loads((tmp_path / "verification.json").read_text())}
    assert rows["eigenvector-residual"]["max_residual"] == max(oracle)


def test_vector_norms_equal_the_per_vector_norms_on_random_vectors():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((20_000, 2)) + 1j * rng.standard_normal((20_000, 2))
    oracle = _vector_norms_oracle(vectors)
    assert (verify.vector_norms(vectors) == oracle).all()
    # negative control: a norm along an axis rounds differently, so the comparison can fail
    assert (np.linalg.norm(vectors, axis=1) != oracle).any()
