"""The traced run: spans around each layer's public entry points.

The tracer patches public callables of the program's modules inside
this process only, for the traced pass, and restores them afterwards.
Each call records a span (name, layer, role, start, end, parent,
statement id) with the Section-3.1 counts taken in a rolled-up counter
scope around it.  Spans stay in memory and are written to
``.bench_out/`` when the run ends.  A span's self time is its duration
minus the durations of its child spans.

A span whose layer and role already have a span open further up the
stack is still recorded, but the totals below count only the outermost
one, so a layer that calls itself (``db.selection_plan`` ->
``Optimizer.plan_selection``) is not counted twice.

The run has four passes over the same database, each of the same number
of whole rounds: untraced with counters on, untraced with counters off
(``instrument.overhead_ratio``), traced (every other metric, and
``trace.overhead_ratio``), and, for ``olap_parallel``, traced again at
``workers=1`` (``parallel.exec_ratio_vs_w1``).  A traced drill on a
durable database follows for the recovery and replication layers.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from spec import Stmt
from workloads import (
    WORKLOADS,
    Session,
    drill,
    durable_copy,
    timed_loop,
)

from repro.cache.plan_cache import PlanCache
from repro.cache.result_cache import ResultCache
from repro.engine.database import MainMemoryDatabase
from repro.indexes import INDEX_KINDS
from repro.indexes.base import Index, OrderedIndex
from repro.instrument import counters as counter_module
from repro.instrument.counters import OpCounters, counters_scope
from repro.query import aggregate as aggregate_module
from repro.query.executor import Executor
from repro.query.optimizer import Optimizer
from repro.query.vectorized.engine import BatchExecutor
from repro.recovery.log import StableLogBuffer
from repro.recovery.log_device import LogDevice
from repro.recovery.restart import RecoveryManager
from repro.replication.coordinator import FailoverCoordinator
from repro.replication.replica import ReplicaApplier
from repro.replication.shipper import LogShipper
from repro.sql import parser as parser_module
from repro.sql.interpreter import SQLInterpreter
from repro.sql.prepared import PreparedStatement
from repro.storage.relation import Relation
from repro.storage.temporary import TemporaryList
from repro.txn.locks import LockManager

OUT_DIR = ".bench_out"
#: Meaning of each position of a span line in the written file.
SPAN_FIELDS = ["id", "parent", "stmt", "phase", "name", "start", "end",
               "counts", "value"]
TRACE_SHARE = 0.25  # of --seconds, spent on the untraced reference pass


class Span:
    __slots__ = ("id", "parent", "stmt", "phase", "name", "layer", "role",
                 "top", "start", "end", "child", "counts", "value")

    def record(self) -> list:
        """The span as one JSON line (see :data:`SPAN_FIELDS`)."""
        counts = {k: v for k, v in self.counts.as_dict().items() if v}
        value = self.value
        if not isinstance(value, (int, float, type(None))):
            value = repr(value)
        return [self.id, self.parent, self.stmt, self.phase, self.name,
                round(self.start, 7), round(self.end, 7), counts, value]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _pickled_size(record) -> int:
    return len(pickle.dumps(record, protocol=4))


#: (owner, attribute, layer, role, value-of-result) for every traced
#: callable.  Index methods are added per concrete class below.
PATCHES: List[Tuple[Any, str, str, str, Optional[Callable]]] = [
    (parser_module, "parse_statement", "sql", "parse", None),
    (SQLInterpreter, "execute", "sql", "stmt", None),
    (PreparedStatement, "execute", "sql", "stmt", None),
    (PlanCache, "statement_for", "cache", "lookup", None),
    (PlanCache, "plan_for", "cache", "lookup", None),
    (PlanCache, "store_statement", "cache", "store", None),
    (PlanCache, "store_plan", "cache", "store", None),
    (ResultCache, "lookup_statement", "cache", "lookup", None),
    (ResultCache, "lookup_plan", "cache", "lookup", None),
    (ResultCache, "store_statement", "cache", "store", None),
    (ResultCache, "store_plan", "cache", "store", None),
    (MainMemoryDatabase, "selection_plan", "optimizer", "plan", None),
    (MainMemoryDatabase, "join_plan", "optimizer", "plan", None),
    (Optimizer, "plan_selection", "optimizer", "plan", None),
    (Optimizer, "plan_join", "optimizer", "plan", None),
    (Optimizer, "plan_join_chain", "optimizer", "plan", None),
    (Executor, "execute", "exec", "execute", None),
    (MainMemoryDatabase, "project", "exec", "post", None),
    (Executor, "sort_rows", "exec", "post", None),
    (BatchExecutor, "sort_rows", "exec", "post", None),
    (aggregate_module, "group_aggregate", "exec", "post", None),
    (Relation, "insert", "storage", "dml", None),
    (Relation, "update", "storage", "dml", None),
    (Relation, "delete", "storage", "dml", None),
    (TemporaryList, "materialize", "storage", "materialize", len),
    (LockManager, "acquire", "txn", "lock", None),
    (StableLogBuffer, "append", "log", "append", _pickled_size),
    (LogDevice, "absorb", "logdev", "absorb", None),
    (LogDevice, "propagate", "logdev", "propagate", None),
    (RecoveryManager, "checkpoint_all", "checkpoint", "checkpoint",
     lambda written: written),
    (RecoveryManager, "restart", "restart", "restart", lambda stats: stats),
    (LogShipper, "ship", "repl", "ship", None),
    (LogShipper, "flush", "repl", "ship", None),
    (ReplicaApplier, "apply_batch", "repl", "apply",
     lambda ack: ack["applied"]),
    (FailoverCoordinator, "promote", "repl", "promote",
     lambda stats: stats.partitions_restored),
]
for _cls in {Index, OrderedIndex, *INDEX_KINDS.values()}:
    for _attr in ("search", "search_all", "probe_all", "range_scan",
                  "scan_from"):
        if _attr in vars(_cls):
            PATCHES.append((_cls, _attr, "index", "search", None))
    for _attr in ("insert", "delete"):
        if _attr in vars(_cls):
            PATCHES.append((_cls, _attr, "index", "modify", None))


class Tracer:
    """Records spans while installed; one statement at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.open_layers: Dict[str, int] = {}
        self.stmt_id = 0
        self.stmt_kinds: Dict[int, str] = {}
        self.phase = "loop"
        self.lag_max = 0
        self.shipper: Optional[LogShipper] = None
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, role, value in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{_name(owner)}.{attr}",
                                            layer, role, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, layer, role, value):
        tracer = self
        clock = time.perf_counter
        key = (layer, role)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)  # recursion / super() call
            span = Span()
            span.id = len(tracer.spans)
            tracer.spans.append(span)
            span.parent = stack[-1].id if stack else None
            span.stmt = tracer.stmt_id
            span.phase = tracer.phase
            span.name, span.layer, span.role = name, layer, role
            open_layers = tracer.open_layers
            span.top = not open_layers.get(key)
            open_layers[key] = open_layers.get(key, 0) + 1
            span.child = 0.0
            span.value = None
            span.counts = OpCounters()
            stack.append(span)
            try:
                with counters_scope(span.counts, rollup=True):
                    span.start = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        span.end = clock()
                if value is not None:
                    span.value = value(result)
                return result
            finally:
                stack.pop()
                open_layers[key] -= 1
                if stack:
                    stack[-1].child += span.end - span.start

        return traced

    # -- statement boundaries ----------------------------------------------

    def statement(self, stmt: Stmt):
        return _Statement(self, stmt)


class _Statement:
    """Context manager marking one workload operation."""

    __slots__ = ("tracer", "stmt")

    def __init__(self, tracer: Tracer, stmt: Stmt) -> None:
        self.tracer = tracer
        self.stmt = stmt

    def __enter__(self):
        tracer = self.tracer
        tracer.stmt_id += 1
        tracer.stmt_kinds[tracer.stmt_id] = self.stmt.kind

    def __exit__(self, *exc):
        tracer = self.tracer
        if tracer.shipper is not None:
            tracer.lag_max = max(tracer.lag_max, tracer.shipper.lag_records)
        return False


def _name(owner) -> str:
    return getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]


# --------------------------------------------------------------------- #
# roll-up
# --------------------------------------------------------------------- #


class Rollup:
    """Layer totals over the spans of one phase."""

    def __init__(self, tracer: Tracer, phase: str) -> None:
        self.kinds = tracer.stmt_kinds
        self.spans = [s for s in tracer.spans if s.phase == phase]

    def select(self, layer: str, role: Optional[str] = None,
               kind: Optional[str] = None, top: bool = True) -> List[Span]:
        return [
            s for s in self.spans
            if s.layer == layer
            and (role is None or s.role == role)
            and (kind is None or self.kinds.get(s.stmt) == kind)
            and (s.top or not top)
        ]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _cache_counts(db) -> Dict[str, Tuple[int, int, int]]:
    """(hits, misses, invalidations) per cache layer, zeros when off."""
    stats = db.cache_stats()
    out = {}
    for layer in ("ast", "plan", "result"):
        entry = stats.get(layer, {})
        out[layer] = (entry.get("hits", 0), entry.get("misses", 0),
                      entry.get("invalidations", 0))
    return out


def _slot_fill(db) -> float:
    live = capacity = 0
    for relation in db.catalog:
        live += len(relation)
        capacity += (
            len(relation.partitions) * relation.partition_config.slot_capacity
        )
    return _per(live, capacity)


class Probe:
    """Counter readings taken before and after the traced loop."""

    def __init__(self, db) -> None:
        self.cache = _cache_counts(db)
        scheduler = getattr(db.executor, "scheduler", None)
        self.scheduler = dict(scheduler.stats) if scheduler else {}
        self.disk = db.recovery.disk.bytes_written if db.recovery else 0
        shipper = db.replication.shipper if db.replication else None
        self.shipped = shipper.records_shipped if shipper else 0


def traced_run(name: str, seed: int, seconds: float):
    """Run the four passes and the traced drill; per-layer metrics."""
    session = Session(WORKLOADS[name], seed)
    tracer = Tracer()
    try:
        session.setup(repeats=1)
        db = session.db
        # Read-only workloads repeat the reference pass's rounds in every
        # pass, so the ratios compare the same statements; workloads that
        # write cannot, and run the same number of fresh rounds.
        read_only = session.workload.name.startswith("olap")
        timed_loop(session, rounds=1)  # warm-up: statistics, allocator
        plain = timed_loop(session, seconds * TRACE_SHARE, keep=read_only)
        rounds = plain.rounds
        replay = plain.batches if read_only else None
        counter_module.set_counters_enabled(False)
        try:
            off = timed_loop(session, rounds=rounds, replay=replay)
        finally:
            counter_module.set_counters_enabled(True)
        scheduler = getattr(db.executor, "scheduler", None)
        if scheduler is not None:
            scheduler.measure_bytes = True
        if db.replication is not None:
            tracer.shipper = db.replication.shipper
        before = Probe(db)
        tracer.install()
        session.tracer = tracer
        try:
            traced = timed_loop(session, rounds=rounds, replay=replay)
            after = Probe(db)
            fill = _slot_fill(db)
            serial = None
            if session.workload.workers > 1:
                db.configure_execution(engine="batch", workers=1)
                tracer.phase = "loop_w1"
                serial = timed_loop(session, rounds=rounds, replay=replay)
            tracer.phase = "drill"
            tracer.shipper = None
            if session.workload.durable:
                drill(session, db, 1, 1)
            else:
                drill(session, durable_copy(session), 1, 1)
        finally:
            session.tracer = None
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced, before, after, serial)
        metrics["storage.slot_fill"] = (fill, "ratio")
        metrics["instrument.overhead_ratio"] = (plain.seconds / off.seconds,
                                                "ratio")
        metrics["instrument.counters_on_s"] = (plain.seconds, "s")
        metrics["instrument.counters_off_s"] = (off.seconds, "s")
        metrics["trace.overhead_ratio"] = (traced.seconds / plain.seconds,
                                           "ratio")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        write_spans(tracer, name, seed)
        return session, metrics
    finally:
        session.close()


def layer_metrics(tracer: Tracer, loop, before: Probe, after: Probe,
                  serial) -> Dict[str, Tuple[float, str]]:
    r = Rollup(tracer, "loop")
    stmts = loop.statements
    reads = len(loop.reads)
    writes = len(loop.writes)
    us, ms = 1e6, 1e3
    m: Dict[str, Tuple[float, str]] = {}

    parses = r.select("sql", "parse")
    m["sql.parse_us"] = (_mean([s.duration for s in parses]) * us, "us")
    m["sql.parses_per_stmt"] = (_per(len(parses), stmts), "count")
    m["sql.stmt_self_us"] = (
        _mean([s.self_time for s in r.select("sql", "stmt")]) * us, "us")

    for layer in ("ast", "plan", "result"):
        hits, misses, stale = (
            a - b for a, b in zip(after.cache[layer], before.cache[layer]))
        # A stale entry is counted by the cache as a hit and then as an
        # invalidation; only the rest were usable.
        m[f"cache.{layer}_hit_ratio"] = (_per(hits - stale, hits + misses),
                                         "ratio")
    stale_total = sum(after.cache[k][2] - before.cache[k][2]
                      for k in ("plan", "result"))
    m["cache.stale_per_kstmt"] = (_per(stale_total, stmts) * 1000, "count")
    m["cache.lookup_us"] = (
        _mean([s.duration for s in r.select("cache", "lookup")]) * us, "us")

    plans = r.select("optimizer")
    m["optimizer.plans_per_stmt"] = (_per(len(plans), stmts), "count")
    m["optimizer.plan_us"] = (_mean([s.duration for s in plans]) * us, "us")

    execute = r.select("exec", "execute", kind="read")
    post = r.select("exec", "post", kind="read")
    exec_ms = _per(sum(s.duration for s in execute), reads) * ms
    m["exec.ms_per_select"] = (exec_ms, "ms")
    m["exec.post_ms_per_select"] = (
        _per(sum(s.duration for s in post), reads) * ms, "ms")
    counts = OpCounters()
    for s in execute + post:
        counts.merge(s.counts)
    for field in ("comparisons", "moves", "hashes", "traversals"):
        m[f"exec.{field}_per_select"] = (
            _per(getattr(counts, field), reads), "count")
    m["vectorized.deref_saved_ratio"] = (
        _per(counts.extra.get("deref_saved_traversals", 0),
             counts.traversals), "ratio")

    def sched(key: str) -> int:
        return after.scheduler.get(key, 0) - before.scheduler.get(key, 0)

    kb = 1024.0
    m["parallel.morsels_per_select"] = (_per(sched("morsels"), reads),
                                        "count")
    m["parallel.dispatch_kb_per_select"] = (
        _per(sched("dispatch_bytes"), reads) / kb, "KB")
    m["parallel.result_kb_per_select"] = (
        _per(sched("result_bytes"), reads) / kb, "KB")
    ratio = 0.0
    if serial is not None:
        w1 = Rollup(tracer, "loop_w1")
        serial_ms = _per(
            sum(s.duration for s in w1.select("exec", "execute", kind="read")),
            len(serial.reads)) * ms
        ratio = _per(exec_ms, serial_ms)
    m["parallel.exec_ratio_vs_w1"] = (ratio, "ratio")
    m["parallel.inline_fallbacks"] = (float(sched("inline_runs")), "count")

    searches = r.select("index", "search")
    m["index.search_us"] = (_mean([s.duration for s in searches]) * us, "us")
    m["index.cmp_per_search"] = (
        _mean([s.counts.comparisons for s in searches]), "count")
    m["index.modify_us"] = (
        _per(sum(s.duration for s in r.select("index", "modify",
                                              kind="write")), writes) * us,
        "us")

    m["storage.dml_us"] = (
        _per(sum(s.self_time for s in r.select("storage", "dml",
                                               kind="write")), writes) * us,
        "us")
    materialized = r.select("storage", "materialize")
    m["storage.materialize_us_per_row"] = (
        _per(sum(s.duration for s in materialized),
             sum(s.value for s in materialized)) * us, "us")

    locks = r.select("txn", "lock")
    m["txn.locks_per_stmt"] = (_per(len(locks), stmts), "count")
    m["txn.lock_us"] = (_mean([s.duration for s in locks]) * us, "us")

    appends = r.select("log", "append", kind="write")
    m["log.records_per_write"] = (_per(len(appends), writes), "count")
    m["log.bytes_per_write"] = (_per(sum(s.value for s in appends), writes),
                                "bytes")
    propagates = [s for s in r.select("logdev", kind="propagate")]
    m["logdev.propagate_ms"] = (
        _per(sum(s.duration for s in propagates),
             sum(1 for k in tracer.stmt_kinds.values() if k == "propagate"))
        * ms if propagates else 0.0, "ms")
    m["disk.bytes_written_per_user_byte"] = (
        _per(after.disk - before.disk, loop.user_bytes), "ratio")

    everywhere = Rollup(tracer, "drill").spans + r.spans
    checkpoints = [s.value for s in everywhere if s.role == "checkpoint"]
    m["checkpoint.partitions_written"] = (_mean(checkpoints), "count")
    restarts = [s.value for s in everywhere if s.role == "restart"]
    m["restart.partitions_loaded"] = (
        _mean([st.total_partitions for st in restarts]), "count")
    m["restart.log_records_merged"] = (
        _mean([st.log_records_merged for st in restarts]), "count")

    ships = r.select("repl", "ship")
    m["repl.ship_ms_per_kstmt"] = (
        _per(sum(s.duration for s in ships), stmts) * ms * 1000, "ms")
    applies = [s for s in everywhere if s.role == "apply"]
    m["repl.apply_us_per_record"] = (
        _per(sum(s.duration for s in applies),
             sum(s.value for s in applies)) * us, "us")
    m["repl.records_shipped_per_write"] = (
        _per(after.shipped - before.shipped, writes), "count")
    m["repl.lag_records_max"] = (float(tracer.lag_max), "count")
    promotes = [s.value for s in everywhere if s.role == "promote"]
    m["repl.promote_partitions"] = (_mean(promotes), "count")
    return m


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    path = out / f"spans_{name}_{seed}.jsonl"
    with path.open("w") as handle:
        handle.write(json.dumps(SPAN_FIELDS) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span.record()) + "\n")
    return path
