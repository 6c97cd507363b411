"""Run-result serialization and the on-disk run cache.

Simulating every (program, dataset) takes seconds; every table and figure is
arithmetic over the same runs.  The cache keys on a digest of the program
source, the input bytes, the compile configuration and a fingerprint of the
toolchain code (compiler, optimizer, VM, workloads and this module), so it
can never serve stale results after a workload, compiler or VM change.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from typing import Optional

from repro.fileio import write_json_atomic
from repro.ir.instructions import BranchId
from repro.vm.counters import ControlEvents, RunResult

#: Subpackages of ``repro`` that only read run results, so their code is
#: left out of the toolchain fingerprint.
_NOT_TOOLCHAIN = ("experiments", "serve", "tools")


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


def _length_prefixed(hasher, *fields: bytes) -> None:
    for field in fields:
        hasher.update(b"%d:" % len(field))
        hasher.update(field)


@functools.lru_cache(maxsize=None)
def _toolchain_fingerprint() -> bytes:
    """sha256 over the path and bytes of every ``.py`` file under
    ``repro`` outside ``_NOT_TOOLCHAIN``: any change to the code that
    decides a run's result (or to the cache format, defined here and in
    ``vm/counters.py``) changes every digest.  Computed once per process.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = []
    for directory, subdirs, names in os.walk(root):
        if directory == root:
            subdirs[:] = [name for name in subdirs if name not in _NOT_TOOLCHAIN]
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                files.append((os.path.relpath(path, root).replace(os.sep, "/"), path))
    hasher = hashlib.sha256()
    for relative, path in sorted(files):
        with open(path, "rb") as handle:
            _length_prefixed(hasher, relative.encode(), handle.read())
    return hasher.digest()


def run_digest(source: str, input_data: bytes, config: str) -> str:
    """Digest identifying one run for caching purposes.

    Every field is length-prefixed before hashing so the encoding is
    injective: joining with a separator alone would let content containing
    the separator shift across field boundaries — e.g.
    ``(source="x|y", input=b"z")`` vs ``(source="x", input=b"y|z")`` —
    and serve the wrong cached run.
    """
    hasher = hashlib.sha256(_toolchain_fingerprint())
    _length_prefixed(hasher, config.encode(), source.encode(), input_data)
    return hasher.hexdigest()[:32]


class DiskCache:
    """A trivial one-file-per-entry JSON cache."""

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    def load(self, digest: str, program: str) -> Optional[RunResult]:
        """The cached run of ``program`` under ``digest``, or ``None``: a
        missing, corrupt or malformed entry, or one recorded for another
        program, is a miss and gets recomputed."""
        if not self.directory:
            return None
        path = self._path(digest)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                result = run_result_from_dict(json.load(handle))
        except ValueError:
            return None
        return result if result.program == program else None

    def store(self, digest: str, result: RunResult) -> None:
        if self.directory:
            write_json_atomic(self._path(digest), run_result_to_dict(result))
