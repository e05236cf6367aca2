"""Named, seeded random substreams.

Every source of randomness in a simulation (per-process tag generation,
per-channel loss decisions, per-channel delays, failure-detector learning
delays, workload generation, …) draws from its own named substream derived
from the run's master seed.  This guarantees:

* **Reproducibility** — the same master seed always produces the same run.
* **Independence of components** — adding random draws to one component
  (e.g. a new loss model) does not perturb the stream seen by another,
  so experiments remain comparable across code versions.

Substream seeds are derived with SHA-256 over ``(master_seed, name)`` so they
are stable across Python versions and processes (unlike ``hash()``).
"""

from __future__ import annotations

import _random
import hashlib
import random
from typing import Optional


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit substream seed from *master_seed* and *name*."""
    if not isinstance(master_seed, int):
        raise TypeError(f"master seed must be an int, got {master_seed!r}")
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomSource:
    """Factory of named, independent random substreams.

    Parameters
    ----------
    master_seed:
        The run's master seed.  Two :class:`RandomSource` instances built
        with the same master seed hand out identical substreams.
    """

    def __init__(self, master_seed: int = 0) -> None:
        if not isinstance(master_seed, int) or isinstance(master_seed, bool):
            raise TypeError("master_seed must be an int")
        self._master_seed = master_seed
        self._streams: dict[str, random.Random] = {}
        self._prefix = hashlib.sha256(f"{master_seed}:".encode("utf-8"))

    @property
    def master_seed(self) -> int:
        """The master seed this source was built from."""
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the (cached) ``random.Random`` substream called *name*:
        ``Random(derive_seed(master_seed, name))``, the prefix hashed once."""
        stream = self._streams.get(name)
        if stream is None:
            if not name:
                raise ValueError("stream name must be a non-empty string")
            digest = self._prefix.copy()
            digest.update(name.encode("utf-8"))
            # Random(seed) without its Python-level __init__ and seed frames.
            stream = random.Random.__new__(random.Random)
            _random.Random.seed(stream, int.from_bytes(digest.digest()[:8], "big"))
            stream.gauss_next = None
            self._streams[name] = stream
        return stream

    # Convenience names used throughout the code base ------------------- #
    def for_process(self, index: int) -> random.Random:
        """Substream used by process *index* for tag generation."""
        return self.stream(f"process:{index}")

    def for_component(self, name: str, index: Optional[int] = None) -> random.Random:
        """Substream for an arbitrary named component."""
        full = name if index is None else f"{name}:{index}"
        return self.stream(full)
