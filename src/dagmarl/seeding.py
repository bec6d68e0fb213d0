"""Named RNG streams derived from a single master seed.

Every source of randomness in a run (the environment, each learner's init
and action sampling) pulls from its own named stream, so adding or removing
an agent never shifts anybody else's draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Independent generator for the stream `name` under `master_seed`.

    The seed is used whole, so no two seeds share a stream.
    """
    if master_seed < 0:
        raise ValueError(f"seed must be >= 0, got {master_seed}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    tag = int.from_bytes(digest[:8], "little")
    return np.random.default_rng([master_seed, tag])
