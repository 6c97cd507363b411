"""Online scoring of dynamic predictors, with the paper's metrics.

``DynamicScoreMonitor`` attaches to a VM run (the ``BranchMonitor``
hook) and scores any number of models against the same outcome stream in
one pass — one simulation per (workload, dataset), however many
predictors are competing.  From the tallies plus the run's counters it
emits :class:`DynamicScore` rows carrying both the traditional
percent-correct *and* the measure the paper argues actually matters:
instructions per break, where breaks are mispredicted branches plus the
run's unavoidable breaks (indirect calls and their returns), exactly as
``repro.metrics.breaks`` counts them for static predictors.
"""
from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.dynamic.base import DynamicPredictor
from repro.ir.instructions import BranchId
from repro.metrics.breaks import unavoidable_breaks
from repro.prediction.evaluate import PredictionReport
from repro.vm.counters import RunResult
from repro.vm.monitors import BranchMonitor


@dataclasses.dataclass
class DynamicScore(PredictionReport):
    """How one predictor did against one run: a
    :class:`~repro.prediction.evaluate.PredictionReport` plus the model's
    table size and hardware budget."""

    table_size: Optional[int]
    budget_bits: Optional[int]


class DynamicScoreMonitor(BranchMonitor):
    """Scores a set of dynamic predictors against one live run.

    The monitor needs the program's static branch table up front (from
    ``CompiledProgram.lowered.branch_table``) because finite models hash
    :class:`BranchId` identities into their tables at reset; the VM's
    ``on_run_start`` only passes a count, which is checked against it.
    """

    def __init__(
        self,
        models: Sequence[DynamicPredictor],
        branch_table: Sequence[BranchId],
    ) -> None:
        self.models = list(models)
        self.branch_table = list(branch_table)
        self.hits = [0] * len(self.models)
        self.mispredicts = [0] * len(self.models)

    def on_run_start(self, num_branches: int) -> None:
        if num_branches != len(self.branch_table):
            raise ValueError(
                f"program has {num_branches} branches but the monitor was "
                f"built for {len(self.branch_table)}"
            )
        for model in self.models:
            model.reset(self.branch_table)
        self.hits = [0] * len(self.models)
        self.mispredicts = [0] * len(self.models)

    def on_branch(self, branch_index: int, taken: bool, icount: int) -> None:
        hits = self.hits
        mispredicts = self.mispredicts
        for slot, model in enumerate(self.models):
            if model.observe(branch_index, taken) == taken:
                hits[slot] += 1
            else:
                mispredicts[slot] += 1

    # -- results -------------------------------------------------------------

    def score(self, model_index: int, run: RunResult) -> DynamicScore:
        """The score of one model against the observed run."""
        model = self.models[model_index]
        return DynamicScore(
            program=run.program,
            predictor=model.name,
            table_size=model.table_size,
            budget_bits=model.budget_bits(),
            instructions=run.instructions,
            branch_execs=self.hits[model_index] + self.mispredicts[model_index],
            mispredicted=self.mispredicts[model_index],
            unavoidable_breaks=unavoidable_breaks(run),
        )

    def scores(self, run: RunResult) -> List[DynamicScore]:
        """One :class:`DynamicScore` per model, in model order."""
        return [self.score(index, run) for index in range(len(self.models))]
