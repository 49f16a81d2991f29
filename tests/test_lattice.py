import dataclasses
import json
from math import pi
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from walkqca import walk
from walkqca.lattice import (
    EnergyModeLabel,
    LatticeSpec,
    energy_labels,
    make_lattice,
    mode_ordering_key,
    momentum_grid,
    momentum_mode,
)


def test_make_lattice_derived_quantities():
    spec = make_lattice(1, 8, 1.0, 1.0, 0.1)
    assert spec.c == 1.0
    assert spec.mc2 == pytest.approx(0.1)
    spec2 = make_lattice(2, 4, 0.5, 0.25, 0.05)
    assert spec2.c == 2.0
    assert spec2.walk_dim == 2 * 16


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dimension=1, N=7, dx=1.0, dt=1.0, theta=0.1),
        dict(dimension=1, N=0, dx=1.0, dt=1.0, theta=0.1),
        dict(dimension=1, N=8, dx=0.0, dt=1.0, theta=0.1),
        dict(dimension=1, N=8, dx=1.0, dt=-1.0, theta=0.1),
        dict(dimension=3, N=8, dx=1.0, dt=1.0, theta=0.1),
        dict(dimension=True, N=8, dx=1.0, dt=1.0, theta=0.1),
        dict(dimension=1, N=np.float64(8.0), dx=1.0, dt=1.0, theta=0.1),
        dict(dimension=1, N=8, dx=1.0, dt=1.0, theta=False),
    ],
)
def test_make_lattice_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        make_lattice(**kwargs)


def test_momentum_grid_values_1d():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.1)
    ks = [m.k[0] for m in momentum_grid(spec)]
    assert ks == pytest.approx([-pi / 2, 0.0, pi / 2, pi])
    spec2 = make_lattice(1, 2, 1.0, 1.0, 0.1)
    assert [m.k[0] for m in momentum_grid(spec2)] == pytest.approx([0.0, pi])


def test_momentum_grid_2d_product():
    spec = make_lattice(2, 2, 1.0, 1.0, 0.1)
    modes = momentum_grid(spec)
    assert len(modes) == 4
    assert sorted({m.k for m in modes}) == [
        (0.0, 0.0),
        (0.0, pi),
        (pi, 0.0),
        (pi, pi),
    ]


def test_grid_size_and_distinctness():
    for spec in (make_lattice(1, 10, 0.5, 1.0, 0.2), make_lattice(2, 4, 2.0, 1.0, 0.2)):
        modes = momentum_grid(spec)
        assert len(modes) == spec.N**spec.dimension
        assert len(set(modes)) == len(modes)


def test_periodic_folding():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.1)
    assert momentum_mode(spec, 3) == momentum_mode(spec, -1)
    assert momentum_mode(spec, -2) == momentum_mode(spec, 2)
    assert momentum_mode(spec, 6) == momentum_mode(spec, 2)


@pytest.mark.parametrize("ell", [1.7, 1.0, True, (1.7,), [np.float64(1.0)], (False,), "1"])
def test_momentum_mode_rejects_non_integer_indices(ell):
    with pytest.raises(ValueError, match="momentum indices must be integers"):
        momentum_mode(make_lattice(1, 4, 1.0, 1.0, 0.1), ell)


def test_momentum_mode_takes_numpy_integers():
    spec = make_lattice(2, 4, 1.0, 1.0, 0.1)
    mode = momentum_mode(spec, np.array([3, -2]))
    assert mode == momentum_mode(spec, (-1, 2))
    assert all(type(e) is int for e in mode.ell)


def test_grid_closed_under_negation():
    for spec in (make_lattice(1, 6, 1.0, 1.0, 0.2), make_lattice(2, 4, 1.0, 1.0, 0.2)):
        grid = set(momentum_grid(spec))
        for mode in grid:
            assert momentum_mode(spec, tuple(-e for e in mode.ell)) in grid


def test_ordering_examples():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.1)
    zero = momentum_mode(spec, 0)
    minus = EnergyModeLabel(zero, -1)
    plus = EnergyModeLabel(zero, 1)
    assert mode_ordering_key(minus) < mode_ordering_key(plus)

    km = momentum_mode(spec, -1)  # k = -pi/2
    assert mode_ordering_key(EnergyModeLabel(km, 1)) < mode_ordering_key(minus)

    spec2 = make_lattice(2, 2, 1.0, 1.0, 0.1)
    a = EnergyModeLabel(momentum_mode(spec2, (1, 0)), 1)  # (kx, ky) = (pi, 0)
    b = EnergyModeLabel(momentum_mode(spec2, (0, 1)), -1)  # (kx, ky) = (0, pi)
    assert mode_ordering_key(a) < mode_ordering_key(b)


def test_energy_labels_sorted_and_complete():
    spec = make_lattice(2, 2, 1.0, 1.0, 0.1)
    labels = energy_labels(spec)
    assert len(labels) == 8
    keys = [mode_ordering_key(l) for l in labels]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@given(
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.sampled_from([-1, 1]),
    st.sampled_from([-1, 1]),
)
def test_ordering_is_a_strict_total_order(ell_a, ell_b, br_a, br_b):
    spec = make_lattice(1, 8, 1.0, 1.0, 0.1)
    la = EnergyModeLabel(momentum_mode(spec, ell_a), br_a)
    lb = EnergyModeLabel(momentum_mode(spec, ell_b), br_b)
    ka, kb = mode_ordering_key(la), mode_ordering_key(lb)
    if la == lb:
        assert ka == kb
    else:
        assert (ka < kb) != (kb < ka)
        assert ka != kb


@pytest.mark.parametrize("n", [2, 8, 1000, 262_144])
def test_a_spacing_is_refused_exactly_where_its_grid_momenta_overflow(n):
    # the 17 floats about pi/float-max: each is refused and its grid overflows, or it is taken and its grid is finite
    spacing, taken = np.pi / np.finfo(float).max, []
    for _ in range(8):
        spacing = np.nextafter(spacing, 0.0)
    for _ in range(17):
        try:
            spec = make_lattice(1, n, float(spacing), 1.0, 0.1)
        except ValueError:
            with np.errstate(over="ignore"):
                assert not np.isfinite(walk.axis_momenta(SimpleNamespace(N=n, dx=float(spacing)))[1]).all()
            taken.append(False)
        else:
            assert np.isfinite(walk.axis_momenta(spec)[1]).all()
            taken.append(True)
        spacing = np.nextafter(spacing, 1.0)
    assert taken[0] is False and taken[-1] is True


def test_lattice_spec_takes_numpy_numbers():
    spec = make_lattice(np.int64(1), np.int32(4), np.float32(0.5), 1, np.float64(0.2))
    assert spec.walk_dim == 8 and spec.c == 0.5


def test_spec_json_round_trip(tmp_path):
    spec = make_lattice(2, 6, 0.25, 0.5, 0.15)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(dataclasses.asdict(spec)))
    loaded = LatticeSpec.from_dict(json.loads(path.read_text()))
    assert loaded == spec
    with pytest.raises(ValueError):
        LatticeSpec.from_dict({"dimension": 1, "N": 4})


def test_branch_validation():
    spec = make_lattice(1, 4, 1.0, 1.0, 0.1)
    for branch in (0, 2, 1.0, -1.0, True):
        with pytest.raises(ValueError, match="branch must be"):
            EnergyModeLabel(momentum_mode(spec, 0), branch)
    assert EnergyModeLabel(momentum_mode(spec, 0), np.int64(-1)).branch == -1
