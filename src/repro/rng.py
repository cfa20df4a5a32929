"""Deterministic random-number stream management.

Every stochastic component of the library (dataset synthesis, initialization,
SGD sampling, token routing) draws from a named child stream derived from a
single root seed.  This guarantees two properties the test-suite relies on:

* **Reproducibility** — the same :class:`~repro.config.RunConfig` seed yields
  bit-identical traces, because the simulator never consults the wall clock.
* **Isolation** — adding draws to one component (say, dataset generation)
  does not perturb the stream of another (say, token routing), because each
  component owns an independent child generator.

The implementation uses :class:`numpy.random.SeedSequence` spawning, which is
the NumPy-recommended way to derive statistically independent streams.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["RngFactory", "derive_rng", "derive_pyrandom"]


class RngFactory:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed of the run.  Any non-negative integer.

    Examples
    --------
    >>> factory = RngFactory(7)
    >>> a = factory.stream("dataset")
    >>> b = factory.stream("routing")
    >>> a is not b
    True
    >>> factory2 = RngFactory(7)
    >>> float(a.random()) == float(factory2.stream("dataset").random())
    True
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """Root seed this factory was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the component called ``name``.

        Calling ``stream`` twice with the same name returns two generators in
        the same initial state; callers should request a stream once and keep
        it.
        """
        return derive_rng(self._seed, name)

    def pyrandom(self, name: str) -> random.Random:
        """Return a stdlib :class:`random.Random` stream for ``name``.

        Hot paths that draw millions of small integers (token routing,
        cell shuffles) use this instead of a NumPy generator: its draw
        sequence is CPython's, which a kernel backend's draw stream
        (:meth:`KernelBackend.rng_stream
        <repro.linalg.backends.base.KernelBackend.rng_stream>`) continues
        draw for draw — in C under ``cext`` — from this object's state.
        The simulator draws from it directly.  Streams are derived from
        the same seed/name scheme as :meth:`stream` (different underlying
        sequences — the two APIs are distinct streams by design).
        """
        return derive_pyrandom(self._seed, name)

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"


def _stable_hash(name: str) -> int:
    """A stable (process-independent) 64-bit FNV-1a hash of ``name``."""
    acc = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) % (1 << 64)
    return acc


def derive_rng(seed: int, name: str) -> np.random.Generator:
    """Derive a generator from ``seed`` and a component ``name``.

    The name is hashed into the seed entropy, so distinct names produce
    independent streams while remaining stable across processes (unlike
    Python's randomized ``hash``).
    """
    sequence = np.random.SeedSequence([int(seed), _stable_hash(name)])
    return np.random.Generator(np.random.PCG64(sequence))


def derive_pyrandom(seed: int, name: str) -> random.Random:
    """Derive a stdlib Random from ``seed`` and ``name`` (see ``pyrandom``)."""
    return random.Random((int(seed) << 64) | _stable_hash(name))
