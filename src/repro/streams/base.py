"""Stream and concept-generator interfaces."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

Observation = Tuple[np.ndarray, int, int]
"""One stream element: ``(feature_vector, label, ground_truth_concept_id)``."""


@dataclass(frozen=True)
class StreamMeta:
    """Static facts about a stream, known before iteration."""

    n_features: int
    n_classes: int
    n_concepts: int
    length: int
    name: str = ""


class ConceptGenerator(ABC):
    """A sampler for one stationary concept ``p(X, y)``.

    Generators are stateful only through the random generator passed to
    :meth:`sample` — two calls with identically-seeded generators produce
    the same observation sequence, which the tests rely on.  Generators
    that model temporal structure (autocorrelation, frequency overlays)
    keep that state internally and expose :meth:`reset_temporal_state`
    so each segment can start fresh.
    """

    def __init__(self, n_features: int, n_classes: int) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        self.n_features = n_features
        self.n_classes = n_classes

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
        """Draw one labelled observation from the concept."""

    def reset_temporal_state(self) -> None:
        """Hook for generators with temporal memory; default: nothing."""

    def take(self, n: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` observations as ``(X, y)`` arrays (for tests/fitting)."""
        xs = np.empty((n, self.n_features))
        ys = np.empty(n, dtype=np.int64)
        for i in range(n):
            xs[i], ys[i] = self.sample(rng)
        return xs, ys


def generator_state(rng: np.random.Generator) -> Mapping[str, Any]:
    """The full bit-generator state of a numpy Generator, as plain data.

    For ``default_rng``'s PCG64, a dict of strings and Python ints, which
    a JSON round trip restores exactly.  Restoring it with
    :func:`restore_generator_state` makes the generator continue its
    draw sequence exactly where it left off — the piece of the puzzle
    that makes synthetic streams seekable.
    """
    return rng.bit_generator.state


def restore_generator_state(
    rng: np.random.Generator, state: Mapping[str, Any]
) -> None:
    """Restore a Generator to a :func:`generator_state` capture."""
    rng.bit_generator.state = state


class ResumableIterator(Iterator[Observation], ABC):
    """A stream iterator whose exact position can be saved and restored.

    ``state_dict`` captures everything the iterator reads to produce
    its next observation — rng bit-generator state, schedule position,
    any temporal concept memory — and ``load_state_dict`` restores it
    so the resumed iterator yields the identical remaining sequence.
    """

    @abstractmethod
    def state_dict(self) -> Dict[str, Any]:
        """The iterator's complete position, as a plain state tree."""

    @abstractmethod
    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture exactly."""


class Stream(ABC):
    """An iterable of observations with attached metadata."""

    @property
    @abstractmethod
    def meta(self) -> StreamMeta:
        """Static stream metadata."""

    @abstractmethod
    def __iter__(self) -> Iterator[Observation]:
        """Yield ``(x, y, concept_id)`` triples."""

    def iter_resumable(self) -> Optional[ResumableIterator]:
        """A seekable iterator over this stream, or ``None``.

        Streams that can expose their rng / position state return a
        :class:`ResumableIterator` yielding exactly what ``__iter__``
        would; others (true unseekable sources) return ``None`` and
        checkpointed runs fall back to a fresh start on restore.
        """
        return None
