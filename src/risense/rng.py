"""Seeded random-number substreams.

All stochastic code in the package draws from counter-based Philox streams
keyed by (seed, *path). Distinct paths give statistically independent
streams, so Monte Carlo trials can run in any order (or in parallel) and
still reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np


def substream(seed, *path: int) -> np.random.Generator:
    """Return the generator for substream ``path`` of root ``seed``.

    ``seed`` may be an int or a sequence of ints (a stream path built by a
    caller). Same (seed, path) always yields the same stream; different
    paths are independent.
    """
    head = [int(s) for s in seed] if isinstance(seed, (tuple, list)) else [int(seed)]
    ss = np.random.SeedSequence([*head, *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))


def sample_cn(rng: np.random.Generator, variance: float, shape) -> np.ndarray:
    """Draw i.i.d. circularly-symmetric complex Gaussians CN(0, variance).

    One call draws the real parts, then the imaginary parts: the variates and
    bytes of ``scale * (a + 1j * b)`` with a and b drawn by two calls.
    """
    z = rng.standard_normal((2, *np.broadcast_shapes(shape)))
    z *= np.sqrt(variance / 2.0)
    out = np.empty(z.shape[1:], dtype=complex)
    out.real, out.imag = z
    return out
