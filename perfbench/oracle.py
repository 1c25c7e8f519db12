"""The correctness check: a brute-force Bloom-subset oracle.

``LinearScanMatcher`` scans every indexed signature and the key table
maps matching sets to keys, with multiset semantics (a key indexed twice
under a matching set is returned twice), which is what ``match`` and
``pub`` answer.  Results are compared as sorted multisets.
"""

from __future__ import annotations

import numpy as np


class Oracle:
    def __init__(self, blocks: np.ndarray, keys: np.ndarray) -> None:
        from repro.baselines.linear_scan import LinearScanMatcher

        self._matcher = LinearScanMatcher()
        self._matcher.build(np.asarray(blocks, dtype=np.uint64), np.asarray(keys))

    def keys(self, query: np.ndarray) -> np.ndarray:
        return np.sort(self._matcher.match_blocks(query))

    def mismatches(self, queries: np.ndarray, results) -> list[int]:
        """Positions ``i`` where ``results[i]`` is not the oracle's answer."""
        bad = []
        for i, (query, got) in enumerate(zip(queries, results)):
            got = np.sort(np.asarray(got, dtype=np.int64))
            if not np.array_equal(got, self.keys(query)):
                bad.append(i)
        return bad
