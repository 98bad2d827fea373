"""Exhaustive grid-search tuner.

Enumerates every valid config in index order.  This is the tuner Figure
10 uses ("an exhaustive grid-search over the whole mapping space") to
find the globally optimal and suboptimal mappings.
"""

from __future__ import annotations

from typing import List

from repro.tuner.tuners.base import Tuner


class GridSearchTuner(Tuner):
    """Visit every valid config exactly once, in index order."""

    def propose(self, count: int) -> List[int]:
        return self._enumerate(count)
