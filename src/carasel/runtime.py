"""Per-atom fan-out.

Atoms decouple in every pipeline; per-atom work goes through atom_map,
which runs it in atom order, so the output never depends on scheduling.
"""

from __future__ import annotations


def atom_map(fn, items):
    """Map fn over items, in order."""
    return [fn(x) for x in items]
