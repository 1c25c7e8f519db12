"""Common interface for the comparison systems of §4.

Every baseline consumes the same input as TagMatch — ``(signature,
key)`` association arrays — and answers block-encoded subset queries, so
the benchmark harness can drive all systems identically.  (The MongoDB
simulator is the exception: it stores documents with raw tag lists, as
the real system does; see :mod:`repro.baselines.mongodb_sim`.)
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from repro.bloom.array import unique_rows
from repro.core.key_table import KeyTable
from repro.core.results import merge_keys
from repro.errors import ValidationError

__all__ = ["BuildReport", "SubsetMatcher"]


@dataclass
class BuildReport:
    """Index construction cost (Figure 8 / §4.3.6 compare these)."""

    elapsed_s: float
    index_bytes: int
    num_unique_sets: int


class SubsetMatcher(abc.ABC):
    """A subset-matching system under test."""

    #: Human-readable system name as it appears in the paper's tables.
    name: str = "abstract"

    def __init__(self) -> None:
        self.key_table: KeyTable | None = None
        self.build_report: BuildReport | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, blocks: np.ndarray, keys: np.ndarray) -> BuildReport:
        """Index ``(signature, key)`` associations.

        Deduplicates signatures into unique sets with grouped keys (as the
        engine's consolidate does) and calls :meth:`_build_index`.
        """
        if blocks.ndim != 2 or blocks.shape[0] != keys.shape[0]:
            raise ValidationError("blocks and keys must be parallel")
        start = time.perf_counter()
        unique_blocks, inverse = unique_rows(blocks)
        self.key_table = KeyTable.from_grouped(inverse, keys, unique_blocks.shape[0])
        index_bytes = self._build_index(unique_blocks)
        self.build_report = BuildReport(
            elapsed_s=time.perf_counter() - start,
            index_bytes=index_bytes + self.key_table.nbytes,
            num_unique_sets=unique_blocks.shape[0],
        )
        return self.build_report

    @abc.abstractmethod
    def _build_index(self, unique_blocks: np.ndarray) -> int:
        """Index the unique signatures; return the index size in bytes."""

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def match_set_ids(self, query: np.ndarray) -> np.ndarray:
        """Set ids (rows of the unique signature array) ⊆ ``query``."""

    def match_blocks(self, query: np.ndarray, unique: bool = False) -> np.ndarray:
        """Keys matching one block-encoded query."""
        if self.key_table is None:
            raise ValidationError(f"{self.name}: build() must be called first")
        set_ids = self.match_set_ids(query)
        if set_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        return merge_keys([self.key_table.keys_of_many(set_ids)], unique)

    def match_many(
        self, queries: np.ndarray, unique: bool = False
    ) -> list[np.ndarray]:
        """Keys for every row of a query block array."""
        return [self.match_blocks(q, unique=unique) for q in queries]
