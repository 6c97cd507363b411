"""The aggregation core: one profile database with epoch snapshots.

The aggregator is the server's state — one ``ProfileDatabase``, the
paper's single accumulating database, behind one lock.  The server
dispatches every request on its one event-loop thread; the lock orders
those mutations against the write-behind flush thread (and test
threads).  Every mutation advances an *epoch*; predictions and stats
report the epoch they were computed at.  The persister snapshots the
database's JSON form under the lock but does the disk write outside it,
so uploads are never blocked on the filesystem.

``database_predict`` is the single implementation of summary prediction
over a database — the server and the client's offline fallback both call
it, which is what makes "served bytes == offline bytes" true by
construction rather than by coincidence.
"""
from __future__ import annotations

import glob
import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.fileio import write_json_atomic
from repro.prediction.combine import COMBINE_MODES, combine_profiles
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase

#: The database file inside a persistence directory; ``repro-mf --db``
#: reads the same format.
DATABASE_FILE = "profiles.json"


def database_predict(
    database: ProfileDatabase,
    program: str,
    mode: str = "scaled",
    exclude: Optional[str] = None,
) -> Tuple[BranchProfile, List[str]]:
    """The summary prediction contract over one database.

    Dataset profiles are combined in sorted dataset-name order (the order
    ``ProfileDatabase.datasets`` already guarantees); ``exclude`` drops
    one dataset first — exactly ``leave_one_out`` over the sorted profile
    list.  Returns the combined profile and the dataset names that fed it.
    """
    if mode not in COMBINE_MODES:
        raise ValueError(f"unknown combine mode {mode!r}; use one of {COMBINE_MODES}")
    datasets = database.datasets(program)
    if not datasets:
        raise KeyError(f"no profiles recorded for program {program!r}")
    if exclude is not None:
        if exclude not in datasets:
            raise KeyError(
                f"program {program!r} has no dataset {exclude!r} to exclude"
            )
        datasets = [name for name in datasets if name != exclude]
        if not datasets:
            raise ValueError(
                f"excluding {exclude!r} leaves no datasets for {program!r}"
            )
    profiles = [database.dataset_profile(program, name) for name in datasets]
    return combine_profiles(profiles, mode=mode), datasets


class Aggregator:
    """Thread-safe profile storage with write-behind persistence.

    Safe to drive from the asyncio server, worker threads, and the
    benchmark harness alike: every operation happens under one lock.
    """

    def __init__(self, persist_dir: Optional[str] = None) -> None:
        self.persist_dir = persist_dir
        self.dirty = False
        self._database = ProfileDatabase()
        self._epoch = 0
        self._lock = threading.Lock()
        if persist_dir:
            os.makedirs(persist_dir, exist_ok=True)
            self._load()

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    # -- recording ----------------------------------------------------------

    def record_profile(
        self, program: str, dataset: str, profile: BranchProfile
    ) -> int:
        """Accumulate one uploaded profile; returns the new epoch."""
        with self._lock:
            self._database.record_profile(program, dataset, profile)
            self.dirty = True
            self._epoch += 1
            return self._epoch

    # -- queries ------------------------------------------------------------

    def predict(
        self,
        program: str,
        mode: str = "scaled",
        exclude: Optional[str] = None,
    ) -> Tuple[BranchProfile, List[str], int]:
        """Summary prediction plus the epoch it was computed at."""
        with self._lock:
            profile, datasets = database_predict(
                self._database, program, mode=mode, exclude=exclude
            )
            return profile, datasets, self._epoch

    def programs(self) -> List[str]:
        with self._lock:
            return self._database.programs()

    def datasets(self, program: str) -> List[str]:
        with self._lock:
            return self._database.datasets(program)

    def stats(self) -> Dict:
        """A JSON-ready summary of everything recorded."""
        programs = {}
        with self._lock:
            for name in self._database.programs():
                datasets = {}
                for dataset in self._database.datasets(name):
                    profile = self._database.dataset_profile(name, dataset)
                    datasets[dataset] = {
                        "runs": profile.runs,
                        "branch_sites": len(profile),
                        "total_executed": profile.total_executed,
                    }
                programs[name] = {"datasets": datasets}
            return {"epoch": self._epoch, "programs": programs}

    # -- persistence --------------------------------------------------------

    def _path(self) -> str:
        return os.path.join(self.persist_dir, DATABASE_FILE)

    def _load(self) -> None:
        # A directory from the sharded layout would otherwise start empty
        # and serve silently wrong predictions.
        stale = sorted(glob.glob(os.path.join(self.persist_dir, "shard-*.json")))
        if stale:
            raise ValueError(
                f"{self.persist_dir} holds profile shards from an older "
                f"layout ({', '.join(os.path.basename(p) for p in stale)}); "
                f"merge them into {DATABASE_FILE} or use another directory"
            )
        if os.path.exists(self._path()):
            self._database = ProfileDatabase.load(self._path())

    def flush(self) -> bool:
        """Write the database to disk if it changed; returns whether it
        wrote.

        The lock covers only snapshotting and marking it clean; the write
        goes through a private temp file and an atomic rename, so a reader
        (or a crash) never sees a half-written database.
        """
        if not self.persist_dir:
            return False
        with self._lock:
            if not self.dirty:
                return False
            snapshot = self._database.to_dict()
            self.dirty = False
        write_json_atomic(self._path(), snapshot, indent=1, sort_keys=True)
        return True
