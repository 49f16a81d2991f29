"""Lattice geometry, momentum grids, and the canonical energy-mode ordering.

Everything downstream (walk unitaries, multiparticle states, Fock bases,
the occupation-number automaton) takes its physical parameters from a
single :class:`LatticeSpec` and its mode labels from the grid and the
total order defined here.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from math import isfinite, pi
from numbers import Integral, Real

# hbar is fixed to 1; theta, dx and dt carry all physical scales, and the
# derived quantities below only ever use hbar in ratios.
HBAR = 1.0


def is_integer(value) -> bool:
    """A Python or numpy integer; bools are rejected even though they subclass int."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic lattice: N sites per axis, spacing dx, time step dt, coin angle theta.

    N must be even so the momentum index range -N/2+1 .. N/2 is symmetric.
    """

    dimension: int
    N: int
    dx: float
    dt: float
    theta: float

    def __post_init__(self):
        for name in ("dimension", "N"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("dx", "dt", "theta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, Real) and isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be an even integer >= 2, got {self.N}")
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def c(self) -> float:
        """Lattice speed of light, dx/dt."""
        return self.dx / self.dt

    @property
    def mc2(self) -> float:
        """Rest energy, hbar*theta/dt."""
        return HBAR * self.theta / self.dt

    @property
    def n_sites(self) -> int:
        return self.N ** self.dimension

    @property
    def walk_dim(self) -> int:
        """Dimension of the one-particle walk space (sites times 2 coin states)."""
        return 2 * self.n_sites

    @classmethod
    def from_dict(cls, doc: dict) -> "LatticeSpec":
        try:
            return cls(doc["dimension"], doc["N"], doc["dx"], doc["dt"], doc["theta"])
        except KeyError as exc:
            raise ValueError(f"lattice document is missing key {exc}") from exc


def make_lattice(dimension: int, N: int, dx: float, dt: float, theta: float) -> LatticeSpec:
    """Validated lattice constructor; rejects odd N and non-positive spacings."""
    return LatticeSpec(dimension=dimension, N=N, dx=dx, dt=dt, theta=theta)


@dataclass(frozen=True)
class MomentumMode:
    """A grid wave vector, stored through its canonical integer indices.

    Each component is k = 2*pi*ell/(N*dx) with ell in -N/2+1 .. N/2; any
    other ell is folded back by periodicity before construction.
    """

    ell: tuple[int, ...]
    k: tuple[float, ...]


def _canonical_ell(ell: int, n: int) -> int:
    half = n // 2
    return (ell + half - 1) % n - (half - 1)


def momentum_mode(spec: LatticeSpec, ell) -> MomentumMode:
    """Mode for integer index/indices `ell`, folded into the canonical range."""
    ells = tuple(ell) if isinstance(ell, Iterable) else (ell,)
    if not all(is_integer(e) for e in ells):
        raise ValueError(f"momentum indices must be integers, got {ell!r}")
    if len(ells) != spec.dimension:
        raise ValueError(
            f"expected {spec.dimension} momentum indices, got {len(ells)}"
        )
    can = tuple(_canonical_ell(int(e), spec.N) for e in ells)
    k = tuple(2.0 * pi * e / (spec.N * spec.dx) for e in can)
    return MomentumMode(ell=can, k=k)


def momentum_grid(spec: LatticeSpec) -> list[MomentumMode]:
    """All N**dimension grid modes, listed in canonical order.

    1D modes come out ascending in k; 2D modes ascending in (k_y, k_x).
    """
    rng = range(-spec.N // 2 + 1, spec.N // 2 + 1)
    return [
        momentum_mode(spec, ell[::-1])
        for ell in itertools.product(rng, repeat=spec.dimension)
    ]


def require_on_grid(spec: LatticeSpec, mode: MomentumMode) -> None:
    if momentum_mode(spec, mode.ell) != mode:
        raise ValueError(f"mode {mode.ell} with k={mode.k} is not on this lattice's grid")


@dataclass(frozen=True)
class EnergyModeLabel:
    """A (momentum, branch) pair; branch +1/-1 selects the eigenvalue sign."""

    mode: MomentumMode
    branch: int

    def __post_init__(self):
        if not is_integer(self.branch) or self.branch not in (-1, 1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch}")


def mode_ordering_key(label: EnergyModeLabel):
    """Strict total order on energy labels.

    1D: ascending k, the -1 branch before +1 at equal k.  2D: ascending
    k_y, then k_x, then branch.  Integer indices are used so there are no
    floating-point ties.
    """
    return (*reversed(label.mode.ell), label.branch)


def energy_labels(spec: LatticeSpec) -> list[EnergyModeLabel]:
    """Every (mode, branch) label of the grid, in the canonical order: momentum_grid's, branch -1 before +1."""
    return [EnergyModeLabel(mode, branch) for mode in momentum_grid(spec) for branch in (-1, 1)]
