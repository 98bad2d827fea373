"""Tuner base class: the measure-update loop with early stopping.

Concrete tuners implement :meth:`propose` (a batch of config indices to
try next) and may override :meth:`update` to learn from results.  The
driver loop mirrors AutoTVM's: propose, measure, update, repeat until the
trial budget or the early-stopping patience is exhausted.

A space no larger than the trial budget (``raw_size <= n_trials``) is
searched exhaustively instead: every tuner then walks the valid configs
in index order, exactly as :class:`~repro.tuner.tuners.grid.GridSearchTuner`
does, without calling :meth:`propose` or :meth:`update` -- a surrogate
model or sampler cannot beat measuring the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence

from repro.errors import TuningError
from repro.tuner.measure import INVALID_COST, TuningTask
from repro.tuner.records import TuningRecords
from repro.tuner.space import Config


@dataclass
class TuningResult:
    """Outcome of a tuning run."""

    best_config: Optional[Config]
    best_cost: float
    records: TuningRecords
    stopped_early: bool

    @property
    def num_trials(self) -> int:
        return len(self.records.trials)


class Tuner:
    """Base class for all tuners.

    Args:
        task: The search problem (space + cost function).
        seed: RNG seed for stochastic tuners; fixed for reproducibility.
    """

    #: Default number of proposals per round.
    batch_size = 16

    def __init__(self, task: TuningTask, seed: int = 0) -> None:
        self.task = task
        self.seed = seed
        self._seen: set = set()
        self._cursor = 0  # next raw index the in-order enumeration visits

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------
    def propose(self, count: int) -> List[int]:
        """Return up to ``count`` *unseen* config indices to measure."""
        raise NotImplementedError

    def update(self, indices: Sequence[int], costs: Sequence[float]) -> None:
        """Learn from a batch of measurements (default: nothing)."""

    def _enumerate(self, count: int) -> List[int]:
        """The next ``count`` valid config indices in index order."""
        batch = list(islice(self.task.space.valid_indices(self._cursor), count))
        if batch:
            self._cursor = batch[-1] + 1
        return batch

    # ------------------------------------------------------------------
    def tune(
        self,
        n_trials: int,
        early_stopping: Optional[int] = None,
        records: Optional[TuningRecords] = None,
    ) -> TuningResult:
        """Run the tuning loop.

        When the whole space fits the budget (``raw_size <= n_trials``)
        the proposals are the space's valid configs in index order and
        :meth:`propose` / :meth:`update` are never called, so every tuner
        returns what grid search returns on that space.  Larger spaces
        run the tuner's own search.

        Args:
            n_trials: Maximum number of measurements.
            early_stopping: Stop after this many trials without improving
                the best cost (AutoTVM's "early stopping" utility, which
                the paper uses to detect convergence).  It only counts
                once a valid config has been measured: invalid draws
                before the first valid one never end the run.
            records: Optional pre-existing history to append to.
        """
        if n_trials < 1:
            raise TuningError(f"n_trials must be >= 1, got {n_trials}")
        records = records or TuningRecords(objective=self.task.objective)
        best_cost = INVALID_COST
        best_config: Optional[Config] = None
        trials_since_best = 0
        stopped_early = False
        exhaustive = self.task.space.raw_size <= n_trials

        while len(records.trials) < n_trials:
            want = min(self.batch_size, n_trials - len(records.trials))
            proposed = self._enumerate(want) if exhaustive else self.propose(want)
            if not proposed:
                break  # space exhausted
            indices = [i for i in proposed if i not in self._seen]
            self._seen.update(indices)
            if not indices:
                continue
            # The whole generation is measured in one batch, so the
            # task can submit it to the engine's executor backend
            # (threads/processes) instead of one trial at a time.
            results = self.task.measure_batch(indices)
            costs: List[float] = []
            measured: List[int] = []
            for index, result in zip(indices, results):
                records.add(index, result.config, result.cost)
                costs.append(result.cost)
                measured.append(index)
                if result.cost < best_cost:
                    best_cost = result.cost
                    best_config = result.config
                    trials_since_best = 0
                else:
                    trials_since_best += 1
                if (
                    early_stopping
                    and best_config is not None
                    and trials_since_best >= early_stopping
                ):
                    stopped_early = True
                    break
            if not exhaustive:
                self.update(measured, costs)
            if stopped_early:
                break

        return TuningResult(
            best_config=best_config,
            best_cost=best_cost,
            records=records,
            stopped_early=stopped_early,
        )
