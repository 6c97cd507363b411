"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

``install`` wraps the public functions of each ``repro`` layer at every
name a caller looks up (a function imported with ``from x import f`` is
bound in the importing module too, so each such binding is replaced),
plus the optimizer's ``PASSES`` entries and a few methods.  Every wrapped
call records a span: name, start, end, pid, its own id and its parent's.
Spans stay in memory; ``write_chrome_trace`` exports them as Chrome
trace-event JSON and ``layer_metrics`` folds them into the per-layer
metrics listed in ``BENCHMARK.json``.

Pool workers forked by ``repro.core.parallel`` inherit the wrappers; each
worker task appends its spans and counters to ``spans-<pid>.jsonl`` in
the spill directory when it finishes, and so does each sweep process when
it ends.  ``Tracer.merge_spills`` reads them all back into one trace.

Nothing here runs unless ``install`` is called: untraced runs import no
wrapper and pay nothing.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

#: Experiment sections in the order ``repro-experiments all`` prints them
#: (the sweep renders them in two processes, see ``sweeps.PARTS``).
SECTIONS = (
    "table1", "table2", "table3", "figure1", "figure2", "figure3",
    "coverage", "scaling", "overview", "ablations",
    "dynamic", "informal", "runlengths", "proofs",
)


@dataclasses.dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    self_ns: int
    pid: int
    span_id: str
    parent_id: Optional[str]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class Tracer:
    """In-memory span and counter store for one process.

    Spans nest per process (the traced code is single-threaded in each
    process), so a span's self time is its duration minus the durations
    of the spans opened directly inside it.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # Open spans: [span_id, start_ns, child_ns]
        self._stack: List[list] = []
        self._root_parent: Optional[str] = None
        self._next = 0

    def _check_fork(self) -> None:
        """A forked pool worker starts with a copy of the parent's state:
        drop it, and parent the worker's spans on the span that was open
        when the parent forked."""
        pid = os.getpid()
        if pid != self.pid:
            self._root_parent = self._stack[-1][0] if self._stack else None
            self.pid = pid
            self.spans = []
            self.counters = defaultdict(float)
            self.calls = defaultdict(int)
            self._stack = []

    def begin(self) -> None:
        self._check_fork()
        self._next += 1
        self._stack.append(
            [f"{self.pid}:{self._next}", time.perf_counter_ns(), 0]
        )

    def end(self, name: str) -> None:
        end = time.perf_counter_ns()
        span_id, start, child_ns = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        else:
            parent = self._root_parent
        self.spans.append(Span(
            name, start, end, duration - child_ns, self.pid, span_id, parent
        ))
        self.calls[name] += 1

    def count(self, name: str, value: float = 1) -> None:
        self._check_fork()
        self.counters[name] += value

    # -- worker spill ---------------------------------------------------------

    def spill(self) -> None:
        """Append this process's spans and counters to its spill file and
        forget them (by pool workers after each task, and by a sweep
        process when it ends)."""
        if not self.spill_dir:
            return
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps({
                "spans": [span.as_dict() for span in self.spans],
                "counters": dict(self.counters),
                "calls": dict(self.calls),
            }) + "\n")
        self.spans = []
        self.counters = defaultdict(float)
        self.calls = defaultdict(int)

    def merge_spills(self) -> None:
        """Fold every spill file into this tracer."""
        if not self.spill_dir or not os.path.isdir(self.spill_dir):
            return
        for entry in sorted(os.listdir(self.spill_dir)):
            if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
                continue
            with open(os.path.join(self.spill_dir, entry)) as handle:
                for line in handle:
                    record = json.loads(line)
                    self.spans.extend(Span(**span) for span in record["spans"])
                    for name, value in record["counters"].items():
                        self.counters[name] += value
                    for name, value in record["calls"].items():
                        self.calls[name] += value

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin()
        try:
            yield
        finally:
            self.end(name)


# -- wrapping -------------------------------------------------------------------


def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    after: Optional[Callable] = None,
    when: Optional[Callable] = None,
) -> Callable:
    """``fn`` inside a span called ``name``.

    ``when(*args)`` false skips the span (e.g. a memo hit);
    ``after(tracer, result, *args)`` runs outside the span to count work.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args, **kwargs):
            return fn(*args, **kwargs)
        tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name)
        if after is not None:
            after(tracer, result, *args, **kwargs)
        return result

    return wrapper


def _rebind(original: Callable, wrapper: Callable) -> int:
    """Replace ``original`` with ``wrapper`` at every module-level name in
    a loaded ``repro`` module; returns how many bindings changed."""
    replaced = 0
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def _ir_instrs(module) -> int:
    return sum(len(block.instrs) for func in module.functions for block in func.blocks)


def pass_metric(pass_name: str) -> str:
    return "opt." + pass_name.replace("-", "_")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; import order matters, so this loads
    every module whose bindings it patches first."""
    import repro.core.cache as cache
    import repro.core.parallel as parallel
    import repro.core.runner as runner
    import repro.experiments.cli  # noqa: F401  (binds the layer functions)
    import repro.ir.lower as lower
    import repro.lang.codegen as codegen
    import repro.lang.parser as parser
    import repro.lang.sema as sema
    import repro.opt.pipeline as pipeline
    import repro.prediction.combine as combine
    import repro.prediction.evaluate as evaluate
    import repro.serve.client  # noqa: F401
    import repro.serve.protocol as protocol
    import repro.vm.engine as engine
    import repro.workloads.registry as registry

    def count_instrs(tracer, module, *args, **kwargs):
        tracer.count("opt.ir_instrs", _ir_instrs(module))

    def count_fast(tracer, result, *args, **kwargs):
        tracer.count("vm.fast_instrs", result.instructions)

    def count_branches(tracer, result, *args, **kwargs):
        tracer.count("vm.branch_events", sum(result.branch_exec))

    def count_load(tracer, result, *args, **kwargs):
        tracer.count("cache.hits", result is not None)

    def count_store(tracer, result, disk, digest, *args, **kwargs):
        if disk.directory:
            tracer.count("cache.bytes_written", os.path.getsize(disk._path(digest)))

    def count_requests(tracer, result, self, requests, *args, **kwargs):
        tracer.count("parallel.requests", len(requests))

    generic = [
        (registry.get_workload, "workloads.build",
         None, lambda name: name not in registry._CACHE),
        (parser.parse_source, "lang.parse", None, None),
        (sema.analyze, "lang.sema", None, None),
        (codegen.generate_module, "lang.codegen", None, None),
        (pipeline.optimize_module, "opt.optimize", count_instrs, None),
        (lower.lower_module, "ir.lower", None, None),
        (engine.predecode, "vm.predecode",
         None, lambda program: program.predecoded is None),
        (engine.run_fast, "vm.fast", count_fast, None),
        (engine.run_monitored, "vm.monitored", count_branches, None),
        (combine.combine_profiles, "prediction.combine", None, None),
        (evaluate.evaluate_static, "prediction.evaluate", None, None),
        (protocol.encode_frame, "serve.client.encode", None, None),
        (protocol.decode_body, "serve.client.decode", None, None),
    ]
    for original, name, after, when in generic:
        if _rebind(original, _wrap(tracer, name, original, after, when)) == 0:
            raise RuntimeError(f"no binding found for {name}")

    # Only the runner's own binding of compile_source: the time in
    # WorkloadRunner compile misses (dataset factories that compile go
    # through other bindings and show under workloads.build).
    runner.compile_source = _wrap(tracer, "runner.compile", runner.compile_source)

    for index, entry in enumerate(pipeline.PASSES):
        metric = pass_metric(entry.name)

        def counted(tracer, changed, *args, _metric=metric, **kwargs):
            tracer.count(_metric + "_changed", bool(changed))

        pipeline.PASSES[index] = dataclasses.replace(
            entry, run=_wrap(tracer, metric, entry.run, counted)
        )

    cache.DiskCache.load = _wrap(tracer, "cache.load", cache.DiskCache.load, count_load)
    cache.DiskCache.store = _wrap(
        tracer, "cache.store", cache.DiskCache.store, count_store
    )
    parallel.ParallelRunner.run_many = _wrap(
        tracer, "parallel.run_many", parallel.ParallelRunner.run_many, count_requests
    )
    parallel.ParallelRunner._run_pool = _wrap(
        tracer, "parallel.fanout", parallel.ParallelRunner._run_pool
    )
    parallel._worker_execute = _worker_task(tracer, parallel._worker_execute)


def _worker_task(tracer: Tracer, original: Callable) -> Callable:
    """The pool's task function, traced in the worker: one span per task,
    its CPU time, and a spill of the worker's spans once it is done.
    Pickled by name, so the wrapper keeps the original's identity."""

    @functools.wraps(original)
    def task(*args, **kwargs):
        cpu = time.process_time()
        tracer.begin()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end("parallel.task")
            tracer.count("parallel.worker_cpu_s", time.process_time() - cpu)
            tracer.spill()

    return task


# -- export -----------------------------------------------------------------------


def write_chrome_trace(tracer: Tracer, path: str, metadata: dict) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span, with the
    span's id, parent and self time in ``args``."""
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": (span.end_ns - span.start_ns) / 1000.0,
            "pid": span.pid,
            "tid": span.pid,
            "args": {
                "id": span.span_id,
                "parent": span.parent_id,
                "self_us": span.self_ns / 1000.0,
            },
        }
        for span in sorted(tracer.spans, key=lambda span: span.start_ns)
    ]
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": metadata},
            handle,
        )


def span_totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in tracer.spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total_s"] += (span.end_ns - span.start_ns) / 1e9
        entry["self_s"] += span.self_ns / 1e9
    return totals


#: Spans whose metric is the inclusive time, because the layer is defined
#: by elapsed time rather than by its own work: a section's wall time, the
#: time spent in WorkloadRunner compile misses, and the batch fan-out.
INCLUSIVE = ("experiments.", "runner.compile", "parallel.run_many")


def layer_metrics(
    tracer: Tracer, pass_names: List[str], jobs: int
) -> Dict[str, float]:
    """Per-layer metric values (the traced run's ``metrics``), without the
    serve and trace ones, which come from the workload itself.  ``jobs``
    is the pool size the utilization is a share of."""
    totals = span_totals(tracer)
    counters = tracer.counters

    def seconds(name: str) -> float:
        entry = totals.get(name)
        if entry is None:
            return 0.0
        inclusive = any(name.startswith(prefix) for prefix in INCLUSIVE)
        return entry["total_s" if inclusive else "self_s"]

    def calls(name: str) -> int:
        entry = totals.get(name)
        return int(entry["calls"]) if entry else 0

    metrics = {
        "workloads.build_s": seconds("workloads.build"),
        "lang.parse_s": seconds("lang.parse"),
        "lang.sema_s": seconds("lang.sema"),
        "lang.codegen_s": seconds("lang.codegen"),
        "lang.compiles": calls("lang.parse"),
        "opt.optimize_s": seconds("opt.optimize"),
        "opt.ir_instrs": int(counters.get("opt.ir_instrs", 0)),
        "ir.lower_s": seconds("ir.lower"),
        "vm.predecode_s": seconds("vm.predecode"),
        "vm.predecodes": calls("vm.predecode"),
        "vm.fast_s": seconds("vm.fast"),
        "vm.fast_runs": calls("vm.fast"),
        "vm.fast_instrs": int(counters.get("vm.fast_instrs", 0)),
        "vm.monitored_s": seconds("vm.monitored"),
        "vm.monitored_runs": calls("vm.monitored"),
        "vm.branch_events": int(counters.get("vm.branch_events", 0)),
        "cache.store_s": seconds("cache.store"),
        "cache.stores": calls("cache.store"),
        "cache.bytes_written": int(counters.get("cache.bytes_written", 0)),
        "cache.load_s": seconds("cache.load"),
        "cache.loads": calls("cache.load"),
        "runner.compile_s": seconds("runner.compile"),
        "parallel.run_many_s": seconds("parallel.run_many"),
        "parallel.requests": int(counters.get("parallel.requests", 0)),
        "parallel.worker_cpu_s": counters.get("parallel.worker_cpu_s", 0.0),
        "prediction.combine_s": seconds("prediction.combine"),
        "prediction.combines": calls("prediction.combine"),
        "prediction.evaluate_s": seconds("prediction.evaluate"),
        "prediction.evaluates": calls("prediction.evaluate"),
        "serve.client.encode_s": seconds("serve.client.encode"),
        "serve.client.decode_s": seconds("serve.client.decode"),
    }
    fast_s = metrics["vm.fast_s"]
    metrics["vm.fast_mops"] = (
        metrics["vm.fast_instrs"] / fast_s / 1e6 if fast_s else 0.0
    )
    loads = metrics["cache.loads"]
    metrics["cache.hit_ratio"] = counters.get("cache.hits", 0) / loads if loads else 0.0
    fanout = seconds("parallel.fanout")
    metrics["parallel.utilization"] = (
        metrics["parallel.worker_cpu_s"] / (jobs * fanout) if fanout and jobs else 0.0
    )
    for name in pass_names:
        metric = pass_metric(name)
        metrics[metric + "_s"] = seconds(metric)
        metrics[metric + "_changed"] = int(counters.get(metric + "_changed", 0))
    for section in SECTIONS:
        metrics[f"experiments.{section}_s"] = seconds(f"experiments.{section}")
    return metrics


#: Span names that must fire at least once on each workload; a traced run
#: that misses one fails instead of reporting a zero.
EXPECTED_SPANS = {
    "sweep": [
        "workloads.build", "lang.parse", "lang.sema", "lang.codegen",
        "opt.optimize", "ir.lower", "vm.predecode", "vm.fast",
        "vm.monitored", "cache.store", "cache.load", "runner.compile",
        "parallel.run_many", "parallel.fanout", "parallel.task",
        "prediction.combine", "prediction.evaluate",
    ],
    "serve-mix": ["serve.client.encode", "serve.client.decode"],
}


def missing_spans(
    calls: Dict[str, int], workload: str, extra: List[str]
) -> List[str]:
    """Expected span names that never fired, given calls per span name."""
    expected = EXPECTED_SPANS[workload] + list(extra)
    return [name for name in expected if not calls.get(name)]
