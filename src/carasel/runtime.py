"""Per-atom fan-out.

atom_map runs per-atom work in atom order, so the output never depends
on scheduling.  No package code calls it, since every pipeline solves
its atoms in batched array passes; bench/tracer.py still traces it.
"""

from __future__ import annotations


def atom_map(fn, items):
    """Map fn over items, in order."""
    return [fn(x) for x in items]
