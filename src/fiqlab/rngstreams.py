"""Counter-based RNG streams.

Every random draw in the package comes from a generator derived from
(seed, purpose tag, counters...) via SeedSequence, never from shared
mutable generator state.  This makes dataset generation, augmentation,
and the training loop reproducible bit-for-bit regardless of execution
order, and lets a resumed run rebuild the exact stream from its
counters alone.
"""

import numpy as np

# Purpose tags.  Values are arbitrary but frozen: changing them changes
# every downstream stream.
T_CLASS_FLAGS = 1
T_TEMPLATE = 2
T_SAMPLE = 3
T_DEGRADE = 4
T_DEGRADE_SHARED = 5
T_PERM = 6
T_FLIP = 7
T_AUG = 8
T_INIT_BACKBONE = 9
T_INIT_BANK = 10
T_PAIRS = 11
T_TRACKED = 12
T_GRADCHECK = 13


def rng_for(seed, *path):
    """Return a fresh Generator for (seed, *path).

    Same arguments always produce the same stream; distinct paths give
    statistically independent streams.  Every value is reduced modulo
    2**32; a uint32 entropy array seeds the same stream as the list of
    those values, at half the cost of coercing the list.
    """
    entropy = np.array([int(seed) & 0xFFFFFFFF]
                       + [int(p) & 0xFFFFFFFF for p in path], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
