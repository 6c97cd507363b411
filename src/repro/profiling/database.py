"""The accumulating profile database (the IFPROBBER's back end).

"Upon the completion of each run, the generated code collected the value of
each counter and added that value to the amount that had been accumulated in
a database for that counter during previous runs."

We keep two granularities: an accumulated per-program profile (the paper's
database) and individual per-(program, dataset) profiles, which the
experiments need in order to form leave-one-out and single-dataset
predictors.
"""
from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.fileio import write_json_atomic
from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import RunResult


class ProfileDatabase:
    """Branch-count storage accumulated across runs, with JSON persistence."""

    def __init__(self) -> None:
        # (program, dataset) -> profile accumulated over that dataset's runs.
        self._by_dataset: Dict[Tuple[str, str], BranchProfile] = {}

    # -- recording -----------------------------------------------------------

    def record(self, run: RunResult, dataset: str) -> None:
        """Add one run's counters to the database."""
        key = (run.program, dataset)
        profile = self._by_dataset.get(key)
        if profile is None:
            profile = BranchProfile(program=run.program)
            self._by_dataset[key] = profile
        profile.add_run(run)

    def record_profile(
        self, program: str, dataset: str, profile: BranchProfile
    ) -> None:
        """Accumulate an already-aggregated per-run profile.

        This is the profile-feedback service's upload path: clients ship a
        run's branch counters as a ``BranchProfile`` rather than the whole
        ``RunResult``.  Accumulating ``BranchProfile.from_run(run)`` here is
        float-for-float identical to ``record(run, ...)``.
        """
        if profile.program != program:
            raise ValueError(
                f"profile is for {profile.program!r}, expected {program!r}"
            )
        key = (program, dataset)
        existing = self._by_dataset.get(key)
        if existing is None:
            existing = BranchProfile(program=program)
            self._by_dataset[key] = existing
        existing.add_profile(profile)

    # -- queries ---------------------------------------------------------------

    def programs(self) -> List[str]:
        """Programs with at least one recorded run."""
        return sorted({program for program, _ in self._by_dataset})

    def datasets(self, program: str) -> List[str]:
        """Datasets recorded for a program, in sorted order."""
        return sorted(
            dataset for prog, dataset in self._by_dataset if prog == program
        )

    def dataset_profile(self, program: str, dataset: str) -> BranchProfile:
        """The accumulated profile of one (program, dataset)."""
        try:
            return self._by_dataset[(program, dataset)]
        except KeyError:
            raise KeyError(f"no profile recorded for {program!r}/{dataset!r}")

    def program_profile(
        self, program: str, exclude: Optional[str] = None
    ) -> BranchProfile:
        """Unscaled sum of a program's dataset profiles.

        ``exclude`` omits one dataset — the leave-one-out predictor the
        paper's Figure 2 white bars use (there combined with scaling; see
        :func:`repro.prediction.combine.combine_profiles`).
        """
        merged = BranchProfile(program=program)
        for (prog, dataset), profile in sorted(self._by_dataset.items()):
            if prog != program or dataset == exclude:
                continue
            merged.add_profile(profile)
        return merged

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "program": program,
                    "dataset": dataset,
                    "profile": profile.to_dict(),
                }
                for (program, dataset), profile in sorted(self._by_dataset.items())
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileDatabase":
        database = cls()
        for entry in data["entries"]:
            key = (entry["program"], entry["dataset"])
            database._by_dataset[key] = BranchProfile.from_dict(entry["profile"])
        return database

    def save(self, path: str) -> None:
        """Write the database as JSON (atomically)."""
        write_json_atomic(path, self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "ProfileDatabase":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
