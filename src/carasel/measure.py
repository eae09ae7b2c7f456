"""Finite atomic measure spaces, information partitions and priors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError

PRIOR_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class AtomSpace:
    """A finite list of atoms with strictly positive weights.  Two spaces
    are equal when their labels and weights are."""

    atoms: tuple
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise DomainError("an AtomSpace needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise DomainError("atom labels must be unique")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != len(atoms):
            raise DomainError("one weight per atom is required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise DomainError("atom weights must be finite and strictly positive")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AtomSpace) and self.atoms == other.atoms
                and np.array_equal(self.weights, other.weights))

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def index_of(self, label) -> int:
        try:
            return self.atoms.index(label)
        except ValueError:
            raise DomainError(f"unknown atom label {label!r}") from None


@dataclass(frozen=True)
class InfoPartition:
    """Disjoint nonempty cells of atom indices covering the whole space.

    cell_index[t] is the number of atom t's cell in cells, and head[t]
    that cell's first (smallest) atom, both read-only int arrays built
    once: a per-atom array a is constant on every cell iff a == a[head]
    (within a tolerance, for floats)."""

    space: AtomSpace
    cells: tuple
    cell_index: np.ndarray = field(init=False, repr=False, compare=False)
    head: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = tuple(tuple(sorted(int(i) for i in cell)) for cell in self.cells)
        index = np.full(len(self.space), -1)
        for c, cell in enumerate(cells):
            if not cell:
                raise DomainError("partition cells must be nonempty")
            for i in cell:
                if i < 0 or i >= len(self.space):
                    raise DomainError(f"atom index {i} out of range")
                if index[i] >= 0:
                    raise DomainError(f"atom index {i} appears in two cells")
                index[i] = c
        if (index < 0).any():
            raise DomainError("partition cells must cover every atom")
        head = np.array([cell[0] for cell in cells])[index]
        index.flags.writeable = head.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "cell_index", index)
        object.__setattr__(self, "head", head)

    @classmethod
    def finest(cls, space: AtomSpace) -> "InfoPartition":
        return cls(space, tuple((i,) for i in range(len(space))))

    @classmethod
    def trivial(cls, space: AtomSpace) -> "InfoPartition":
        return cls(space, (tuple(range(len(space))),))

    def cell_of(self, atom_index: int) -> tuple:
        return self.cells[self.cell_id(atom_index)]

    def cell_id(self, atom_index: int) -> int:
        if not 0 <= atom_index < len(self.cell_index):
            raise DomainError(f"atom index {atom_index} out of range")
        return int(self.cell_index[atom_index])

    @property
    def is_finest(self) -> bool:
        return len(self.cells) == len(self.space)


@dataclass(frozen=True)
class Prior:
    """Strictly positive density q with integral q d(mu) = 1.  Two priors
    are equal when their spaces and densities are."""

    space: AtomSpace
    density: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.density, dtype=float).reshape(-1)
        if q.shape[0] != len(self.space):
            raise DomainError("one density value per atom is required")
        if not np.all(np.isfinite(q)) or np.any(q <= 0):
            raise DomainError("prior density must be finite and strictly positive")
        mass = float(q @ self.space.weights)
        if abs(mass - 1.0) > PRIOR_NORMALIZATION_TOL:
            raise DomainError(f"prior density integrates to {mass}, not 1")
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "density", q)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Prior) and self.space == other.space
                and np.array_equal(self.density, other.density))

    @classmethod
    def uniform(cls, space: AtomSpace) -> "Prior":
        return cls(space, np.full(len(space), 1.0 / space.total))


def conditional_density(prior: Prior, part: InfoPartition, omega: int) -> np.ndarray:
    """Per-atom conditional density given the partition cell of atom
    omega: zero off the cell, q(t) / integral of q over the cell on it.
    Integrates to 1 over the cell; depends on omega only through its cell.
    """
    if part.space != prior.space:
        raise DomainError("prior and partition must share one atom space")
    cell = part.cell_of(int(omega))
    idx = np.array(cell, dtype=int)
    cell_mass = float(prior.density[idx] @ prior.space.weights[idx])
    if cell_mass <= 0:
        raise PreconditionError("the conditioning cell has zero prior mass")
    out = np.zeros(len(prior.space))
    out[idx] = prior.density[idx] / cell_mass
    out.flags.writeable = False
    return out
