"""Seeded inputs for the benchmark workloads.

Everything here depends on numpy only, so the inputs can be generated
(and tested) without importing impactdesk.  Pass `index` of a run with
workload seed `seed` always gets the same inputs, and consecutive passes
get distinct inputs, so a pass cannot be served from a result cache
filled by the one before (strong-error studies cycle through a pool of
ten recorded noise seeds).
"""

from __future__ import annotations

import numpy as np

# noise seeds of the strong-error studies whose errors and means are
# recorded in reference.json; the workload seed picks where a run
# starts cycling through them
STRONG_NOISE_POOL = tuple(range(1, 11))

# fixed query states whose outputs are recorded in reference.json
ANCHOR_STATES = ((0.3, -1.2), (0.9, 1.7))

CERTIFY_TIMES = (0.0, 0.25, 0.5, 0.75)


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index,
                                                         stream]))


def ensemble_seed(seed: int, index: int) -> int:
    """Noise seed of the ensemble run in one pass."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def strong_noise_seed(seed: int, index: int) -> int:
    """Noise seed of the strong-error study run in one pass."""
    return STRONG_NOISE_POOL[(seed + index) % len(STRONG_NOISE_POOL)]


def query_states(seed: int, index: int, n: int) -> np.ndarray:
    """(n, 2) array of (t, z) states for one pass of point queries.

    Stratified: each of n equal slices of t in [0, 1) and of z in
    [-2, 2) holds one state, so every pass covers the same ground and
    pass times differ less.
    """
    rng = _rng(seed, index, 0)
    t = (rng.permutation(n) + rng.uniform(size=n)) / n
    z = -2.0 + 4.0 * (rng.permutation(n) + rng.uniform(size=n)) / n
    return np.column_stack([t, z])


def certify_grids(seed: int, index: int, n_dual: int, n_primal: int):
    """Dual and primal grids for one certification pass.

    The dual grid holds `n_dual` utility targets inside the region the
    conjugate states reach, the primal grid `n_primal` weight, cash and
    position triples.  Returns ((utilities, positions),
    (weights, cash, positions)).
    """
    rng = _rng(seed, index, 1)
    dual_u = -np.exp(rng.uniform(np.log(0.05), np.log(1.5), (n_dual, 2)))
    dual_q = rng.uniform(0.0, 1.0, (n_dual, 1))
    weights = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (n_primal, 2)))
    cash = rng.uniform(-1.0, 2.0, n_primal)
    positions = rng.uniform(0.0, 1.0, (n_primal, 1))
    return (dual_u, dual_q), (weights, cash, positions)
