"""The aggregation core: sharded profile storage with epoch snapshots.

The aggregator is the server's state — ``ProfileDatabase`` shards keyed by
a stable hash of the program name, so unrelated programs never contend on
one lock and persistence writes stay proportional to what actually
changed.  Every mutation advances a global *epoch*; predictions and stats
report the epoch they were computed at, and the write-behind persister
snapshots a shard's JSON form under its lock but does the disk write
outside it (through ``ProfileDatabase.save``'s atomic rename), so uploads
are never blocked on the filesystem.

``database_predict`` is the single implementation of summary prediction
over a database — the server and the client's offline fallback both call
it, which is what makes "served bytes == offline bytes" true by
construction rather than by coincidence.
"""
from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.prediction.combine import COMBINE_MODES, combine_profiles
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase

DEFAULT_SHARDS = 8

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(name: str) -> int:
    """Stable 64-bit FNV-1a: shard placement must not depend on
    ``PYTHONHASHSEED`` or the process that computes it."""
    value = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


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


class _Shard:
    __slots__ = ("database", "lock", "dirty")

    def __init__(self) -> None:
        self.database = ProfileDatabase()
        self.lock = threading.RLock()
        self.dirty = False


class Aggregator:
    """Sharded, thread-safe profile storage with write-behind persistence.

    Safe to drive from the asyncio server, worker threads, and the
    benchmark harness alike: every shard operation happens under that
    shard's lock, and the epoch counter under its own.
    """

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        persist_dir: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.persist_dir = persist_dir
        self._shards = [_Shard() for _ in range(shards)]
        self._epoch = 0
        self._epoch_lock = threading.Lock()
        if persist_dir:
            os.makedirs(persist_dir, exist_ok=True)
            self._load()

    # -- sharding -----------------------------------------------------------

    def shard_index(self, program: str) -> int:
        return _fnv1a(program) % len(self._shards)

    def _shard(self, program: str) -> _Shard:
        return self._shards[self.shard_index(program)]

    def _bump_epoch(self) -> int:
        with self._epoch_lock:
            self._epoch += 1
            return self._epoch

    @property
    def epoch(self) -> int:
        with self._epoch_lock:
            return self._epoch

    # -- recording ----------------------------------------------------------

    def record_profile(
        self, program: str, dataset: str, profile: BranchProfile
    ) -> int:
        """Accumulate one uploaded profile; returns the new epoch."""
        shard = self._shard(program)
        with shard.lock:
            shard.database.record_profile(program, dataset, profile)
            shard.dirty = True
        return self._bump_epoch()

    # -- queries ------------------------------------------------------------

    def predict(
        self,
        program: str,
        mode: str = "scaled",
        exclude: Optional[str] = None,
    ) -> Tuple[BranchProfile, List[str], int]:
        """Summary prediction plus the epoch it was computed at."""
        shard = self._shard(program)
        with shard.lock:
            profile, datasets = database_predict(
                shard.database, program, mode=mode, exclude=exclude
            )
        return profile, datasets, self.epoch

    def programs(self) -> List[str]:
        names: List[str] = []
        for shard in self._shards:
            with shard.lock:
                names.extend(shard.database.programs())
        return sorted(names)

    def datasets(self, program: str) -> List[str]:
        shard = self._shard(program)
        with shard.lock:
            return shard.database.datasets(program)

    def stats(self) -> Dict:
        """A JSON-ready summary of everything recorded."""
        programs = {}
        per_shard = []
        for index, shard in enumerate(self._shards):
            with shard.lock:
                names = shard.database.programs()
                per_shard.append({"programs": len(names), "dirty": shard.dirty})
                for name in names:
                    datasets = {}
                    for dataset in shard.database.datasets(name):
                        profile = shard.database.dataset_profile(name, dataset)
                        datasets[dataset] = {
                            "runs": profile.runs,
                            "branch_sites": len(profile),
                            "total_executed": profile.total_executed,
                        }
                    programs[name] = {"shard": index, "datasets": datasets}
        return {
            "epoch": self.epoch,
            "shards": per_shard,
            "programs": programs,
        }

    # -- persistence --------------------------------------------------------

    def _shard_path(self, index: int) -> str:
        return os.path.join(self.persist_dir, f"shard-{index:02d}.json")

    def _load(self) -> None:
        for index, shard in enumerate(self._shards):
            path = self._shard_path(index)
            if os.path.exists(path):
                shard.database = ProfileDatabase.load(path)

    def flush(self) -> int:
        """Write every dirty shard to disk; returns how many were written.

        The shard lock covers only marking it clean and snapshotting —
        ``ProfileDatabase.save`` writes via a private temp file and an
        atomic rename, so a reader (or a crash) never sees a half-written
        shard.
        """
        if not self.persist_dir:
            return 0
        written = 0
        for index, shard in enumerate(self._shards):
            with shard.lock:
                if not shard.dirty:
                    continue
                snapshot = ProfileDatabase.from_dict(shard.database.to_dict())
                shard.dirty = False
            snapshot.save(self._shard_path(index))
            written += 1
        return written

    def dirty_shards(self) -> int:
        return sum(1 for shard in self._shards if shard.dirty)
