"""Deterministic, partition-independent random seeding.

Every stochastic routine in the package derives its randomness from an
integer seed plus a string label plus a trial index.  Trial ``i`` of a
labelled experiment sees the same stream no matter how trials are chunked
or reordered, which is what makes reports reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["label_hash", "rng_for", "uniform_batch", "normal_complex_batch"]


def label_hash(label: str) -> int:
    """Stable 64-bit hash of a label (never Python's salted ``hash``)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator for trial ``index`` of experiment ``label``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, label_hash(label), index))))


_MASK64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over a uint64 array."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(_MASK64)
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(_MASK64)
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(_MASK64)
    return x ^ (x >> np.uint64(31))


def uniform_batch(seed: int, label: str, start: int, count: int, slots: int) -> np.ndarray:
    """Counter-based uniforms in (0, 1), shape ``(count, slots)``.

    Entry ``[i, s]`` depends only on ``(seed, label, start + i, s)``, so any
    chunking of a trial range produces identical numbers.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)[:, None]
    slot = np.arange(slots, dtype=np.uint64)[None, :]
    key = np.uint64(seed & _MASK64) ^ np.uint64(label_hash(label))
    x = _splitmix64(_splitmix64(key ^ (idx * np.uint64(0xA24BAED4963EE407))) ^ (slot * np.uint64(0x9FB21C651E98DF25)))
    # 53-bit mantissa, shifted away from exact 0.
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53)


def normal_complex_batch(seed: int, label: str, start: int, count: int, slots: int) -> np.ndarray:
    """Counter-based standard complex Gaussians, shape ``(count, slots)``."""
    u = uniform_batch(seed, label, start, count, 2 * slots)
    u1, u2 = u[:, :slots], u[:, slots:]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    # Complex standard normal: real and imaginary parts N(0, 1/2) each.
    return radius * np.exp(1j * angle) / np.sqrt(2.0)
