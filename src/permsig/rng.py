"""Deterministic random-stream derivation for replicated studies.

Every randomized operation in the package draws from a counter-based
Philox stream keyed by ``(master_seed, replicate_index, operation tag)``.
Distinct keys give statistically independent streams, so

* any replicate can be recomputed in isolation,
* replicates never share randomness, and
* results do not depend on scheduling order or worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import check, is_int

_MASK64 = (1 << 64) - 1


def _stream_word(replicate_index: int, tag: str) -> int:
    """Collapse (replicate_index, tag) into one 64-bit key word."""
    digest = hashlib.blake2b(
        f"{replicate_index}:{tag}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class PermutationPlan:
    """Recipe for one replicate's randomness.

    Parameters
    ----------
    master_seed : int
        Study-level seed, interpreted as an unsigned 64-bit integer.
    replicate_index : int
        Non-negative index of the replicate (or iteration) this plan
        belongs to.  Two plans with different indices never share a
        stream, whatever tags they use.
    """

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        seed, index = self.master_seed, self.replicate_index
        check(is_int(seed) and 0 <= seed <= _MASK64, "master_seed",
              "must be an integer in [0, 2**64)")
        check(is_int(index) and index >= 0, "replicate_index", "must be a non-negative integer")
        object.__setattr__(self, "master_seed", int(seed))  # numpy ints key other streams

    def rng(self, tag: str, gen: np.random.Generator | None = None) -> np.random.Generator:
        """Return a generator at the start of the named operation's stream.

        Calling this twice with the same tag returns two generators that
        produce identical output; different tags give independent streams.
        Given ``gen``, one this method returned, it re-keys that one at a
        tenth of the cost, and it then draws exactly what a new one draws.
        """
        # The cast Philox(key=[seed, word]) makes, float64 rounding included.
        key = np.asarray([self.master_seed, _stream_word(self.replicate_index, tag)]).astype(np.uint64)
        if gen is None:
            return np.random.Generator(np.random.Philox(key=key))
        gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gen
