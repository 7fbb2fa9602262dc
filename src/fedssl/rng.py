"""Named-purpose seed derivation.

Every source of randomness in the simulator is an `np.random.Generator`
seeded from (base_seed, *purpose_parts) through a stable hash, so each
concern (sharding, init, selection, per-client augmentation, ...) draws
from an independent stream and the whole run replays bit-for-bit.
"""

from __future__ import annotations

import hashlib


def derive_seed(base: int, *parts: object) -> int:
    """Map (base, parts...) to a stable 64-bit seed via SHA-256."""
    tag = "|".join([str(int(base))] + [str(p) for p in parts])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
