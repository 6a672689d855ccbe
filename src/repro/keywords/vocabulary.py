"""Keyword vocabularies and the sampling distributions used by the paper.

Section VIII-A generates a keyword set ``v_i.W`` per vertex from a keyword
domain ``Sigma``, following a *Uniform*, *Gaussian*, or *Zipf* distribution —
producing the synthetic graphs called ``Uni``, ``Gau`` and ``Zipf``.  This
module provides:

* :class:`Vocabulary` — an ordered keyword domain with index <-> keyword maps;
* :func:`default_vocabulary` — a marketing-flavoured domain mirroring the
  keywords of Figure 1 (Movies, Books, Jewelry, ...), padded to any size;
* samplers for the three distributions, each taking an explicit RNG.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro._rng import RandomLike, resolve_rng
from repro.exceptions import DatasetError

#: Keyword seeds inspired by Figure 1 of the paper.
_BASE_KEYWORDS = (
    "movies",
    "books",
    "food",
    "jewelry",
    "crafts",
    "health",
    "wellness",
    "home-decor",
    "cosmetics",
    "skincare",
    "sports",
    "travel",
    "music",
    "gaming",
    "fashion",
    "fitness",
    "photography",
    "gardening",
    "cooking",
    "technology",
)


class Vocabulary:
    """An ordered keyword domain ``Sigma``.

    The order matters for the Gaussian and Zipf samplers (they are defined
    over keyword *ranks*), and for reproducibility of hashed bit vectors.
    """

    __slots__ = ("_keywords", "_index")

    def __init__(self, keywords: Iterable[str]) -> None:
        ordered = list(dict.fromkeys(keywords))
        if not ordered:
            raise DatasetError("a vocabulary requires at least one keyword")
        self._keywords: tuple[str, ...] = tuple(ordered)
        self._index: dict[str, int] = {kw: i for i, kw in enumerate(self._keywords)}

    def __len__(self) -> int:
        return len(self._keywords)

    def __iter__(self):
        return iter(self._keywords)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._index

    def __getitem__(self, index: int) -> str:
        return self._keywords[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(size={len(self._keywords)})"

    @property
    def keywords(self) -> tuple[str, ...]:
        """The keywords in rank order."""
        return self._keywords

    def index_of(self, keyword: str) -> int:
        """Return the rank of ``keyword`` within the vocabulary."""
        try:
            return self._index[keyword]
        except KeyError:
            raise DatasetError(f"keyword {keyword!r} is not in the vocabulary") from None

    def sample(self, count: int, rng: RandomLike = None) -> list[str]:
        """Sample ``count`` distinct keywords uniformly without replacement."""
        if count > len(self._keywords):
            raise DatasetError(
                f"cannot sample {count} keywords from a domain of {len(self._keywords)}"
            )
        generator = resolve_rng(rng)
        return generator.sample(list(self._keywords), count)


def default_vocabulary(size: int = 50) -> Vocabulary:
    """Return a vocabulary of ``size`` keywords.

    The first keywords come from the Figure 1 example; remaining slots are
    filled with ``topic-<i>`` placeholders so arbitrarily large domains
    (|Sigma| up to 80 in Table III) are available.
    """
    if size <= 0:
        raise DatasetError(f"vocabulary size must be positive, got {size}")
    keywords = list(_BASE_KEYWORDS[:size])
    next_id = 0
    while len(keywords) < size:
        keywords.append(f"topic-{next_id}")
        next_id += 1
    return Vocabulary(keywords)


# --------------------------------------------------------------------------- #
# distributions
# --------------------------------------------------------------------------- #
class KeywordDistribution:
    """Base class for keyword-sampling distributions over a vocabulary.

    Subclasses implement :meth:`weights`, returning one non-negative weight
    per keyword rank; :meth:`sample_keywords` then draws a set of distinct
    keywords proportionally to those weights.
    """

    name = "base"

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary

    def weights(self) -> Sequence[float]:
        """Return one sampling weight per keyword rank."""
        raise NotImplementedError

    def sample_keywords(self, count: int, rng: RandomLike = None) -> frozenset:
        """Sample ``count`` distinct keywords according to the distribution."""
        size = len(self.vocabulary)
        if count <= 0:
            return frozenset()
        count = min(count, size)
        generator = resolve_rng(rng)
        weights = list(self.weights())
        chosen: set[str] = set()
        # Weighted sampling without replacement: draw, remove, renormalise.
        available = list(range(size))
        while len(chosen) < count and available:
            local_weights = [weights[i] for i in available]
            total = sum(local_weights)
            if total <= 0:
                index = generator.choice(available)
            else:
                pick = generator.random() * total
                cumulative = 0.0
                index = available[-1]
                for candidate, weight in zip(available, local_weights):
                    cumulative += weight
                    if pick <= cumulative:
                        index = candidate
                        break
            chosen.add(self.vocabulary[index])
            available.remove(index)
        return frozenset(chosen)


class UniformKeywordDistribution(KeywordDistribution):
    """Every keyword is equally likely (the paper's ``Uni`` graphs)."""

    name = "uniform"

    def weights(self) -> Sequence[float]:
        return [1.0] * len(self.vocabulary)


class GaussianKeywordDistribution(KeywordDistribution):
    """Keyword popularity follows a Gaussian over ranks (the ``Gau`` graphs).

    The mean sits at the middle rank; the standard deviation defaults to one
    sixth of the domain so that popularity decays smoothly towards both ends.
    """

    name = "gaussian"

    def __init__(self, vocabulary: Vocabulary, std_fraction: float = 1.0 / 6.0) -> None:
        super().__init__(vocabulary)
        if std_fraction <= 0:
            raise DatasetError(f"std_fraction must be positive, got {std_fraction}")
        self.std_fraction = std_fraction

    def weights(self) -> Sequence[float]:
        size = len(self.vocabulary)
        mean = (size - 1) / 2.0
        std = max(size * self.std_fraction, 1e-9)
        return [math.exp(-((rank - mean) ** 2) / (2.0 * std * std)) for rank in range(size)]


class ZipfKeywordDistribution(KeywordDistribution):
    """Keyword popularity follows a Zipf law over ranks (the ``Zipf`` graphs)."""

    name = "zipf"

    def __init__(self, vocabulary: Vocabulary, exponent: float = 1.0) -> None:
        super().__init__(vocabulary)
        if exponent <= 0:
            raise DatasetError(f"Zipf exponent must be positive, got {exponent}")
        self.exponent = exponent

    def weights(self) -> Sequence[float]:
        return [1.0 / ((rank + 1) ** self.exponent) for rank in range(len(self.vocabulary))]


_DISTRIBUTIONS = {
    "uniform": UniformKeywordDistribution,
    "gaussian": GaussianKeywordDistribution,
    "zipf": ZipfKeywordDistribution,
}


def make_distribution(name: str, vocabulary: Vocabulary) -> KeywordDistribution:
    """Build a keyword distribution by name (``uniform`` / ``gaussian`` / ``zipf``)."""
    try:
        factory = _DISTRIBUTIONS[name.lower()]
    except KeyError:
        raise DatasetError(
            f"unknown keyword distribution {name!r}; expected one of {sorted(_DISTRIBUTIONS)}"
        ) from None
    return factory(vocabulary)


def distribution_names() -> tuple[str, ...]:
    """Return the supported distribution names."""
    return tuple(sorted(_DISTRIBUTIONS))
