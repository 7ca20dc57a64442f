"""Reference step loop that allocates each drive product, as a plain loop.

`rydock.simulator._substeps` runs every sub-step between two preallocated
buffers through views fixed once per `evolve` call (`_plan`). This module
keeps the loop it replaced: each group's product is a fresh array,
`f.reshape(len(F), -1).T.dot(F)`, top group first, or `G.dot(f.reshape(-1,
2))` for a single group, and the phase multiplies the current array in place.
The arithmetic, its order and the GEMM orientation are the same, so `evolve`
must give the same bytes with either loop; a view built against the wrong
buffer, or a phase written to the wrong one, shows as an O(1) difference.
This loop checks the buffers, not the orientation: an orientation-free check
is the dense Kronecker product that `test_simulator.py` compares a sub-step
against.
"""

from __future__ import annotations

import numpy as np


def drive_factor(f: np.ndarray, factors) -> np.ndarray:
    """G(theta)^{(x)n} f on a state's interleaved re/im floats, given each
    group's matrix in the order `_substeps` runs them, top group first, as a
    new array. Each product takes the group in the highest bits and writes
    it out as the lowest."""
    if len(factors) == 1:
        return factors[0].dot(f.reshape(-1, 2)).reshape(-1)
    for factor in factors:
        f = f.reshape(len(factor), -1).T.dot(factor)
    return f.reshape(-1)


def allocating_substeps(plan, steps, nsub) -> None:
    """`_substeps` with a new array per product: runs on a copy of the state
    in the plan's first buffer and writes the result back there."""
    state = plan[0]
    f = state.view(float).copy()
    for first, rep, mats in steps:
        for phase in (first, *[rep] * (nsub - 1)):
            psi = f.view(np.complex128)
            psi *= phase
            f = drive_factor(f, mats)
    state.view(float)[:] = f
