"""Unit tests for keyword bit vectors."""

import pytest

from repro.exceptions import GraphError
from repro.keywords.bitvector import (
    BitVector,
    aggregate,
    hash_keyword,
)


class TestHashKeyword:
    def test_stable_across_calls(self):
        assert hash_keyword("movies") == hash_keyword("movies")

    def test_within_range(self):
        for keyword in ("movies", "books", "a", "very-long-keyword-with-dashes"):
            assert 0 <= hash_keyword(keyword, 32) < 32

    def test_respects_num_bits(self):
        positions = {hash_keyword(f"kw{i}", 8) for i in range(100)}
        assert positions <= set(range(8))

    def test_invalid_num_bits(self):
        with pytest.raises(GraphError):
            hash_keyword("movies", 0)


class TestBitVector:
    def test_from_keywords_sets_expected_bits(self):
        vector = BitVector.from_keywords({"movies", "books"})
        assert vector.popcount() in (1, 2)  # collisions possible but bounded
        for keyword in ("movies", "books"):
            assert vector.bits & (1 << hash_keyword(keyword))

    def test_empty_vector_is_falsy(self):
        assert not BitVector.empty()
        assert BitVector.from_keywords(set()).bits == 0

    def test_or_aggregates(self):
        a = BitVector.from_keywords({"movies"})
        b = BitVector.from_keywords({"books"})
        combined = a | b
        assert combined.contains_all(a)
        assert combined.contains_all(b)

    def test_and_intersection(self):
        a = BitVector.from_keywords({"movies", "books"})
        b = BitVector.from_keywords({"books", "sports"})
        assert (a & b).bits != 0
        assert a.intersects(b)

    def test_disjoint_keywords_usually_disjoint_bits(self):
        a = BitVector.from_keywords({"movies"})
        b = BitVector.from_keywords({"gardening"})
        # These two specific keywords do not collide under blake2b mod 64.
        if hash_keyword("movies") != hash_keyword("gardening"):
            assert not a.intersects(b)

    def test_equality_and_hash(self):
        a = BitVector.from_keywords({"movies"})
        b = BitVector.from_keywords({"movies"})
        assert a == b
        assert hash(a) == hash(b)
        assert a != BitVector.from_keywords({"books"})

    def test_width_mismatch_rejected(self):
        a = BitVector.empty(32)
        b = BitVector.empty(64)
        with pytest.raises(GraphError):
            _ = a | b
        with pytest.raises(GraphError):
            a.intersects(b)

    def test_bits_are_masked_to_width(self):
        vector = BitVector(bits=(1 << 80) | 0b101, num_bits=8)
        assert vector.bits == 0b101

    def test_set_positions(self):
        vector = BitVector(bits=0b1001, num_bits=8)
        assert vector.set_positions() == (0, 3)

    def test_invalid_width(self):
        with pytest.raises(GraphError):
            BitVector(0, num_bits=0)


class TestAggregateAndPruningHelper:
    def test_aggregate_many(self):
        vectors = [BitVector.from_keywords({f"kw{i}"}) for i in range(10)]
        combined = aggregate(vectors)
        assert all(combined.contains_all(vector) for vector in vectors)

    def test_aggregate_empty_input(self):
        assert aggregate([]) == BitVector.empty()
