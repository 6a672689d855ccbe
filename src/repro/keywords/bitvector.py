"""Keyword bit vectors (Bloom-style signatures).

The offline phase hashes every keyword set ``v_i.W`` into a ``B``-bit vector
``v_i.BV`` (Algorithm 2, lines 1–3).  Aggregated vectors for r-hop subgraphs
and index entries are bit-ORs of member vectors; the query keyword set ``Q``
is hashed into ``Q.BV`` the same way, and the index-level keyword pruning rule
(Lemma 5) discards an entry ``N_i`` whenever ``N_i.BV_r AND Q.BV == 0``.

The signature is conservative: a zero AND proves that no member vertex can
contain a query keyword, while a non-zero AND may still be a false positive
(two different keywords hashing to the same bit), which is safe because
pruning only ever *keeps* such candidates.

Bit vectors are stored as plain Python ints, which makes OR/AND aggregation a
single machine operation for the default ``B = 64``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from repro.exceptions import GraphError

#: Default signature width, matching a single machine word.
DEFAULT_NUM_BITS = 64


def hash_keyword(keyword: str, num_bits: int = DEFAULT_NUM_BITS) -> int:
    """Map ``keyword`` to a bit position in ``[0, num_bits)``.

    Uses blake2b for a stable, platform-independent hash (Python's built-in
    ``hash`` is randomised per process, which would break index persistence).
    """
    if num_bits <= 0:
        raise GraphError(f"num_bits must be positive, got {num_bits}")
    digest = hashlib.blake2b(keyword.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_bits


class BitVector:
    """An immutable ``B``-bit keyword signature.

    Instances support ``|`` (aggregate), ``&`` (intersection test input) and
    equality/hashing so they can be used as dict keys in the index.
    """

    __slots__ = ("bits", "num_bits")

    def __init__(self, bits: int = 0, num_bits: int = DEFAULT_NUM_BITS) -> None:
        if num_bits <= 0:
            raise GraphError(f"num_bits must be positive, got {num_bits}")
        mask = (1 << num_bits) - 1
        self.bits = bits & mask
        self.num_bits = num_bits

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_keywords(
        cls, keywords: Iterable[str], num_bits: int = DEFAULT_NUM_BITS
    ) -> "BitVector":
        """Hash a keyword collection into a signature."""
        bits = 0
        for keyword in keywords:
            bits |= 1 << hash_keyword(keyword, num_bits)
        return cls(bits, num_bits)

    @classmethod
    def empty(cls, num_bits: int = DEFAULT_NUM_BITS) -> "BitVector":
        """Return the all-zero signature."""
        return cls(0, num_bits)

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self.bits | other.bits, self.num_bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self.bits & other.bits, self.num_bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.bits == other.bits and self.num_bits == other.num_bits

    def __hash__(self) -> int:
        return hash((self.bits, self.num_bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector(0b{self.bits:0{self.num_bits}b})"

    def intersects(self, other: "BitVector") -> bool:
        """Return ``True`` if the two signatures share at least one set bit."""
        self._check_compatible(other)
        return (self.bits & other.bits) != 0

    def contains_all(self, other: "BitVector") -> bool:
        """Return ``True`` if every bit set in ``other`` is also set here."""
        self._check_compatible(other)
        return (self.bits & other.bits) == other.bits

    def popcount(self) -> int:
        """Return the number of set bits."""
        return bin(self.bits).count("1")

    def set_positions(self) -> tuple[int, ...]:
        """Return the sorted bit positions that are set."""
        return tuple(i for i in range(self.num_bits) if self.bits & (1 << i))

    def _check_compatible(self, other: "BitVector") -> None:
        if self.num_bits != other.num_bits:
            raise GraphError(
                f"bit vectors have mismatched widths: {self.num_bits} vs {other.num_bits}"
            )


def aggregate(vectors: Iterable[BitVector], num_bits: int = DEFAULT_NUM_BITS) -> BitVector:
    """OR-aggregate a collection of bit vectors (empty input gives the zero vector)."""
    result = BitVector.empty(num_bits)
    for vector in vectors:
        result = result | vector
    return result
