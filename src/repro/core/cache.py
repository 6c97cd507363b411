"""Run-result serialization and the on-disk run cache.

Simulating every (program, dataset) takes seconds; every table and figure is
arithmetic over the same runs.  The cache keys on a digest of the program
source, the input bytes and the compile configuration, so it can never serve
stale results after a workload or compiler change.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Optional

from repro.ir.instructions import BranchId
from repro.vm.counters import ControlEvents, RunResult

#: Bump when the RunResult layout, counting semantics, or digest scheme
#: change.  v4: length-prefixed digest fields (the v3 ``|``-joined form was
#: not injective across field boundaries).
CACHE_FORMAT_VERSION = 4


def run_result_to_dict(result: RunResult) -> dict:
    """JSON-serializable form of a RunResult."""
    return {
        "program": result.program,
        "instructions": result.instructions,
        "branch_table": [
            [bid.function, bid.index] for bid in result.branch_table
        ],
        "branch_exec": result.branch_exec,
        "branch_taken": result.branch_taken,
        "events": result.events.as_dict(),
        "output_hex": result.output.hex(),
        "exit_code": result.exit_code,
    }


#: The exact keys of a serialized RunResult and of its events.
_RUN_KEYS = frozenset(
    ("program", "instructions", "branch_table", "branch_exec",
     "branch_taken", "events", "output_hex", "exit_code")
)
_EVENT_KEYS = frozenset(field.name for field in dataclasses.fields(ControlEvents))


def _is_count(value) -> bool:
    # ``type`` rather than ``isinstance``: a JSON ``true`` is not a count.
    return type(value) is int and value >= 0


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(f"malformed run entry: {what}")


def run_result_from_dict(data: dict) -> RunResult:
    """Decode ``run_result_to_dict``'s form, raising ``ValueError`` for
    anything no run can produce (a corrupt or edited cache entry)."""
    _require(isinstance(data, dict) and data.keys() == _RUN_KEYS, "keys")
    events = data["events"]
    _require(
        isinstance(events, dict)
        and events.keys() == _EVENT_KEYS
        and all(_is_count(count) for count in events.values()),
        "events",
    )
    table = data["branch_table"]
    executed = data["branch_exec"]
    taken = data["branch_taken"]
    _require(
        type(table) is list and type(executed) is list and type(taken) is list
        and len(table) == len(executed) == len(taken),
        "branch list lengths",
    )
    _require(
        all(
            type(entry) is list and len(entry) == 2
            and type(entry[0]) is str and _is_count(entry[1])
            for entry in table
        ),
        "branch_table",
    )
    _require(
        all(
            _is_count(count) and _is_count(hits) and hits <= count
            for count, hits in zip(executed, taken)
        ),
        "branch counts",
    )
    _require(
        type(data["program"]) is str
        and _is_count(data["instructions"])
        and type(data["output_hex"]) is str
        and type(data["exit_code"]) is int,
        "scalar fields",
    )
    return RunResult(
        program=data["program"],
        instructions=data["instructions"],
        branch_table=[BranchId(function, index) for function, index in table],
        branch_exec=list(executed),
        branch_taken=list(taken),
        events=ControlEvents(**events),
        output=bytes.fromhex(data["output_hex"]),
        exit_code=data["exit_code"],
    )


def run_digest(source: str, input_data: bytes, config: str) -> str:
    """Digest identifying one run for caching purposes.

    Every field is length-prefixed before hashing so the encoding is
    injective: joining with a separator alone would let content containing
    the separator shift across field boundaries — e.g.
    ``(source="x|y", input=b"z")`` vs ``(source="x", input=b"y|z")`` —
    and serve the wrong cached run.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_FORMAT_VERSION}".encode())
    for field in (config.encode(), source.encode(), input_data):
        hasher.update(b"%d:" % len(field))
        hasher.update(field)
    return hasher.hexdigest()[:32]


class DiskCache:
    """A trivial one-file-per-entry JSON cache."""

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    def load(self, digest: str) -> Optional[RunResult]:
        if not self.directory:
            return None
        path = self._path(digest)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return run_result_from_dict(json.load(handle))
        except ValueError:
            return None  # corrupt or malformed entry: recompute

    def store(self, digest: str, result: RunResult) -> None:
        if not self.directory:
            return
        path = self._path(digest)
        # Unique per-writer temp file: a shared "<path>.tmp" lets two
        # parallel workers storing the same digest interleave writes (and
        # race the final rename), leaving a corrupt or vanished entry.
        # mkstemp in the cache directory keeps the os.replace atomic
        # (same filesystem) while giving each writer its own file.
        fd, tmp_path = tempfile.mkstemp(
            prefix=f"{digest}.", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(run_result_to_dict(result), handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
