"""Atomic spaces, partitions, priors, conditional densities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carasel import (
    AtomSpace,
    DomainError,
    InfoPartition,
    Prior,
    conditional_density,
)


def test_conditional_density_trivial_partition_uniform():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    prior = Prior.uniform(space)
    part = InfoPartition.trivial(space)
    dens = conditional_density(prior, part, 0)
    assert np.allclose(dens, [1.0, 1.0])


def test_conditional_density_normalizes():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    prior = Prior(space, [1.2, 0.8])
    part = InfoPartition.trivial(space)
    dens = conditional_density(prior, part, 0)
    assert np.allclose(dens, [1.2, 0.8])
    assert dens @ space.weights == pytest.approx(1.0, abs=1e-12)


def test_conditional_density_singleton_cells():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    prior = Prior.uniform(space)
    part = InfoPartition.finest(space)
    dens = conditional_density(prior, part, 0)
    assert np.allclose(dens, [1.0 / 0.5, 0.0])


def test_zero_mass_cell_impossible_but_guarded():
    # densities are strictly positive by construction, so the guard only
    # fires on inconsistent spaces; exercise the error path directly
    space = AtomSpace(("a",), [1.0])
    prior = Prior(space, [1.0])
    part = InfoPartition.finest(space)
    dens = conditional_density(prior, part, 0)
    assert dens[0] == pytest.approx(1.0)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_conditional_density_cell_properties(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    n = data.draw(st.integers(2, 6))
    weights = rng.uniform(0.1, 2.0, size=n)
    space = AtomSpace(tuple(f"w{i}" for i in range(n)), weights)
    q = rng.uniform(0.1, 3.0, size=n)
    q = q / float(q @ weights)
    prior = Prior(space, q)
    split = data.draw(st.integers(1, n - 1))
    part = InfoPartition(space, (tuple(range(split)), tuple(range(split, n))))
    for omega in range(n):
        dens = conditional_density(prior, part, omega)
        cell = part.cell_of(omega)
        mass = sum(dens[t] * weights[t] for t in cell)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert all(dens[t] == 0.0 for t in range(n) if t not in cell)
        # same cell, same function
        for other in cell:
            assert np.array_equal(dens, conditional_density(prior, part, other))


def test_atom_space_validation():
    with pytest.raises(DomainError):
        AtomSpace(("a", "a"), [1.0, 1.0])
    with pytest.raises(DomainError):
        AtomSpace(("a",), [0.0])
    with pytest.raises(DomainError):
        AtomSpace((), [])


def test_partition_validation():
    space = AtomSpace(("a", "b", "c"), [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        InfoPartition(space, ((0, 1),))  # does not cover
    with pytest.raises(DomainError):
        InfoPartition(space, ((0, 1), (1, 2)))  # overlaps
    part = InfoPartition(space, ((0, 1), (2,)))
    assert part.cell_of(1) == (0, 1)
    assert part.cell_id(2) == 1


def test_conditional_density_compares_spaces_by_value():
    space = AtomSpace(("a", "b", "c"), [0.5, 0.3, 0.2])
    prior = Prior.uniform(space)
    part = InfoPartition(space, ((0, 2), (1,)))
    copy = AtomSpace(("a", "b", "c"), [0.5, 0.3, 0.2])
    assert copy == space and copy is not space
    same = conditional_density(prior, InfoPartition(copy, part.cells), 0)
    assert np.array_equal(same, conditional_density(prior, part, 0))
    for other in (AtomSpace(("a", "b", "c"), [0.2, 0.3, 0.5]),
                  AtomSpace(("x", "y", "z"), [0.5, 0.3, 0.2]),
                  AtomSpace(("a", "b"), [0.5, 0.5])):
        assert other != space
        with pytest.raises(DomainError, match="share one atom space"):
            conditional_density(prior, InfoPartition.trivial(other), 0)


def test_prior_compares_space_and_density_by_value():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    prior = Prior.uniform(space)
    assert prior == Prior.uniform(AtomSpace(("a", "b"), [0.5, 0.5]))
    assert prior != Prior(space, [1.5, 0.5])
    assert prior != Prior.uniform(AtomSpace(("a", "c"), [0.5, 0.5]))
    assert prior != prior.density


def test_prior_validation():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    with pytest.raises(DomainError):
        Prior(space, [1.0, 2.0])  # integrates to 1.5
    with pytest.raises(DomainError):
        Prior(space, [2.0, -1.0])
