"""The random-source convention shared by every generator and sampler.

A function that draws random numbers takes ``rng``: a seed, a
:class:`random.Random` it draws from (and advances), or ``None`` for a
fresh unseeded source.
"""

from __future__ import annotations

import random
from typing import Union

RandomLike = Union[int, random.Random, None]


def resolve_rng(rng: RandomLike) -> random.Random:
    """Return a :class:`random.Random` from a seed, an instance, or ``None``."""
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)
