"""The four workloads: set-up, the timed closed loop, and the drills.

A workload is one client on one thread with no think time: it sends the
next statement when the previous one has returned and its rows are
materialised.  Only that call is timed.  The mirror update and the
result check run between statements, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from oracle import Mirror, check, check_tables
from spec import (
    PREPARED,
    TABLE_ORDER,
    Generator,
    Sizes,
    Stmt,
    ddl,
    insert_statements,
)

from repro import MainMemoryDatabase
from repro.errors import ReproError
from repro.instrument.counters import OpCounters, counters_scope

SETUP_REPEATS = 3
DRILL_CYCLES = 7
#: Point writes after the olap loops, run in rounds of ``OLAP_WRITE_ROUND``.
OLAP_WRITES = 12000
OLAP_WRITE_ROUND = 50
CHECKPOINT_EVERY = 8
#: Statement time between two samples of the host clock in a loop.
CLOCK_EVERY_S = 0.1
#: Median ``HostClock`` kernel time on the 2-core host the bounds in
#: BENCHMARK.json were set on.
REFERENCE_KERNEL_S = 0.0025


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Sizes
    engine: str = "tuple"
    workers: int = 1
    cache: bool = False
    durable: bool = False


WORKLOADS: Dict[str, Workload] = {
    "oltp": Workload("oltp", Sizes(400, 100, 4000), cache=True),
    "olap": Workload("olap", Sizes(500, 200, 8000), engine="batch"),
    "olap_parallel": Workload(
        "olap_parallel", Sizes(500, 200, 8000), engine="batch", workers=2
    ),
    "durable": Workload("durable", Sizes(300, 100, 3000), durable=True),
}


#: A loop's latency samples are cut into this many consecutive parts.
PARTS = 20


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``samples``."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def part_percentile(samples: List[float], q: float) -> float:
    """The lower quartile over ``PARTS`` consecutive parts of ``samples``
    (in the order they were taken) of each part's ``q``-quantile.

    Other tenants of a shared host only ever add time, and a slow spell
    moves a run's pooled quantile (a tail most of all) by as much as the
    spell is long; the quieter parts are the closer estimate of the
    program's own speed.  Each part spans two rounds or more, so it holds
    every kind of statement of the loop, and a change that slows any of
    them moves every part, and this statistic with it."""
    n = len(samples)
    if n < 2 * PARTS:
        return percentile(samples, q)
    return percentile([
        percentile(samples[n * i // PARTS:n * (i + 1) // PARTS], q)
        for i in range(PARTS)
    ], 0.25)


class HostClock:
    """Times a fixed pure-Python kernel at points spread through a run.

    The wall clock of a shared host changes speed from second to second:
    a fixed pure-Python loop and this benchmark's own deterministic
    set-up both swing by up to 1.8x between runs.  Every timing is
    therefore scaled by ``REFERENCE_KERNEL_S`` over the mean of the two
    kernel samples around it (every ``CLOCK_EVERY_S`` of loop time, and
    around every set-up build and drill step), so it reads as time on a
    host where the kernel takes ``REFERENCE_KERNEL_S``.  The kernel (dict
    lookups and integer arithmetic) works on 1,024 entries that stay in
    the processor's caches, so the program's own memory use cannot change
    its speed; it follows the processor, not the program.
    """

    ENTRIES = 1024
    PASSES = 24

    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = {key: (key, key * 7) for key in range(self.ENTRIES)}
        self.keys = [rng.randrange(self.ENTRIES) for __ in range(self.ENTRIES)]
        self.samples: List[float] = []

    def sample(self) -> float:
        table, keys = self.table, self.keys
        total = 0
        for key in keys:  # reload the caches the engine's work evicted
            total += table[key][1] % 13
        started = time.perf_counter()
        for __ in range(self.PASSES):
            for key in keys:
                total += table[key][1] % 13
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Reference seconds per wall second, median over the run (for
        the report; each timing is scaled by its own window)."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)

    def timed(self, step) -> Tuple[float, float]:
        """Run ``step`` between two kernel samples; its wall seconds and
        its reference seconds at the host speed of that moment."""
        before = self.sample()
        started = time.perf_counter()
        step()
        elapsed = time.perf_counter() - started
        after = self.sample()
        return elapsed, elapsed * 2 * REFERENCE_KERNEL_S / (before + after)


def materialize(result):
    """A SELECT result as value rows, foreign keys as key values."""
    if hasattr(result, "descriptor"):
        return result.materialize(resolve_refs=True)
    return result.materialize()


class Session:
    """A built database, its prepared handles and its mirror."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.gen = Generator(seed, workload.sizes)
        self.load = insert_statements(self.gen.rows)
        self.db: Optional[MainMemoryDatabase] = None
        self.handles: Dict[str, object] = {}
        self.mirror: Optional[Mirror] = None
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: List[str] = []
        self.round_index = 0
        self.written_at_setup = 0
        #: A :class:`tracing.Tracer` in the traced run, else None.
        self.tracer = None
        self.clock = HostClock()
        #: Unscaled end-to-end metrics of the timed run, for the report.
        self.raw_metrics: Dict[str, Tuple[float, str]] = {}

    # -- set-up -----------------------------------------------------------

    def build(self) -> None:
        """Construct, load and configure the database."""
        wl = self.workload
        db = MainMemoryDatabase(durable=wl.durable)
        for text in ddl("engine") + self.load:
            db.sql(text)
        if wl.cache:
            db.configure_cache()
        if wl.engine == "batch":
            db.configure_execution(engine="batch", workers=wl.workers)
        if wl.durable:
            db.checkpoint()
            db.configure_replication(channel="inline")
        self.handles = {name: db.prepare(text) for name, text in PREPARED.items()}
        if wl.workers > 1:
            # Fork the pool now: the timed loop never writes, so the
            # pool stays valid for the whole run.
            db.sql("SELECT OId FROM Orders WHERE Amount > 9990")
        self.db = db

    def setup(self, repeats: int = SETUP_REPEATS) -> Tuple[float, float]:
        """Build ``repeats`` times, keep the last; the median seconds, wall
        clock and reference."""
        times = []
        for __ in range(repeats):
            self.close_db()
            gc.collect()
            times.append(self.clock.timed(self.build))
        self.mirror = Mirror(self.load)
        if self.workload.durable:
            self.written_at_setup = self.db.recovery.stable_log.records_written
        gc.collect()
        gc.freeze()
        return (statistics.median(t for t, __ in times),
                statistics.median(r for __, r in times))

    def close_db(self) -> None:
        db = self.db
        if db is None:
            return
        if db.replication is not None:
            db.stop_replication()
        scheduler = getattr(db.executor, "scheduler", None)
        if scheduler is not None:
            db.configure_execution()
        self.db = None

    def close(self) -> None:
        self.close_db()
        if self.mirror is not None:
            self.mirror.close()

    # -- one operation ------------------------------------------------------

    def execute(self, stmt: Stmt):
        """Run ``stmt`` on the engine; the value the checker compares."""
        db = self.db
        if stmt.kind == "propagate":
            return db.propagate_log()
        if stmt.kind == "checkpoint":
            return db.checkpoint()
        if stmt.handle is not None:
            result = self.handles[stmt.handle].execute(*stmt.params)
        else:
            result = db.sql(stmt.sql)
        if stmt.kind == "read":
            return materialize(result)
        if isinstance(result, list):  # INSERT returns the new pointers
            return len(result)
        return result

    def mismatch(self, message: str) -> None:
        """Record a wrong answer (the run is then not correct)."""
        self.mismatches += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def verify(self, stmt: Stmt, got) -> None:
        """Apply ``stmt`` to the mirror and compare answers."""
        if stmt.kind not in ("read", "write"):
            return
        error = check(stmt, got, self.mirror.run(stmt))
        if error:
            self.mismatch(f"{stmt.sql} {stmt.params}: {error}")

    def run_ops(self, ops: List[Stmt], sink, counters: OpCounters) -> None:
        """Run ``ops`` in order, each timed alone inside a counter scope
        on ``counters``; ``sink(stmt, seconds)`` takes every success.
        A statement the engine refuses counts as failed and is not
        applied to the mirror."""
        clock = time.perf_counter
        tracer = self.tracer
        for stmt in ops:
            self.attempted += 1
            try:
                with counters_scope(counters), (
                    _UNTRACED if tracer is None else tracer.statement(stmt)
                ):
                    started = clock()
                    got = self.execute(stmt)
                    elapsed = clock() - started
            except ReproError as exc:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{stmt.sql or stmt.kind}: {exc!r}")
                continue
            sink(stmt, elapsed)
            self.verify(stmt, got)

    def next_round(self) -> List[Stmt]:
        index = self.round_index
        self.round_index += 1
        name = self.workload.name
        if name == "oltp":
            return self.gen.oltp_round()
        if name == "durable":
            return self.gen.durable_round(index, CHECKPOINT_EVERY)
        return self.gen.olap_round()


_UNTRACED = contextlib.nullcontext()


@dataclass
class LoopStats:
    """Samples of one timed loop (seconds are statement time only)."""

    seconds: float = 0.0
    statements: int = 0
    rounds: int = 0
    user_bytes: int = 0
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    checkpoints: List[float] = field(default_factory=list)
    ops: OpCounters = field(default_factory=OpCounters)
    batches: List[List[Stmt]] = field(default_factory=list)
    last_round: List[Stmt] = field(default_factory=list)
    #: (reads, writes, checkpoints, seconds, kernel sample) at each
    #: sample of the host clock: the windows of :meth:`in_reference`.
    marks: List[Tuple[int, int, int, float, float]] = field(
        default_factory=list)

    def mark(self, clock: "HostClock") -> None:
        self.marks.append((len(self.reads), len(self.writes),
                           len(self.checkpoints), self.seconds,
                           clock.sample()))

    def in_reference(self) -> "LoopStats":
        """A copy whose samples are in reference time, each scaled by the
        host clock samples that open and close its window."""
        out = LoopStats(statements=self.statements, rounds=self.rounds)
        out.marks.append(self.marks[0][:4] + (REFERENCE_KERNEL_S,))
        for start, end in zip(self.marks, self.marks[1:]):
            factor = 2 * REFERENCE_KERNEL_S / (start[4] + end[4])
            out.reads += [t * factor for t in self.reads[start[0]:end[0]]]
            out.writes += [t * factor for t in self.writes[start[1]:end[1]]]
            out.checkpoints += [
                t * factor for t in self.checkpoints[start[2]:end[2]]]
            out.seconds += (end[3] - start[3]) * factor
            out.marks.append(end[:3] + (out.seconds, REFERENCE_KERNEL_S))
        return out

    def throughput(self) -> float:
        """Statements per second: the median over the host-clock windows
        (whole rounds, at least ``CLOCK_EVERY_S`` of statement time each) of
        the window's rate."""
        rates = [
            (end[0] - start[0] + end[1] - start[1]) / (end[3] - start[3])
            for start, end in zip(self.marks, self.marks[1:])
            if end[3] > start[3]
        ]
        return statistics.median(rates)

    def sink(self, stmt: Stmt, elapsed: float) -> None:
        self.seconds += elapsed
        if stmt.kind == "read":
            self.reads.append(elapsed)
            self.statements += 1
        elif stmt.kind == "write":
            self.writes.append(elapsed)
            self.statements += 1
            self.user_bytes += stmt.user_bytes
        elif stmt.kind == "checkpoint":
            self.checkpoints.append(elapsed)


def timed_loop(session: Session, seconds: float = 0.0, rounds: int = 0,
               replay: Optional[List[List[Stmt]]] = None,
               keep: bool = False) -> LoopStats:
    """Whole rounds until ``seconds`` of statement time have passed, or
    exactly ``rounds`` rounds when that is given.  ``replay`` runs the
    given rounds instead of new ones (to run rounds again, read-only
    workloads only); ``keep`` keeps every round run in ``stats.batches``."""
    stats = LoopStats()
    stats.mark(session.clock)
    clock_at = CLOCK_EVERY_S
    if replay is not None:
        rounds = len(replay)
    while (stats.rounds < rounds) if rounds else (stats.seconds < seconds):
        if replay is not None:
            batch = replay[stats.rounds]
        else:
            batch = session.next_round()
        if keep:
            stats.batches.append(batch)
        session.run_ops(batch, stats.sink, stats.ops)
        stats.last_round = batch
        stats.rounds += 1
        if stats.seconds >= clock_at:
            stats.mark(session.clock)
            clock_at = stats.seconds + CLOCK_EVERY_S
    if stats.marks[-1][3] != stats.seconds:
        stats.mark(session.clock)
    return stats


def compare_worker_counts(session: Session, batch: List[Stmt]) -> Optional[str]:
    """Run ``batch`` at the configured worker count and then at
    ``workers=1`` on the same data; the Section-3.1 totals must be
    identical.

    The batch runs once untallied first: the optimizer charges its column
    statistics to the first statement that plans against them, once per
    relation version, and that cost belongs to whichever engine ran
    first.
    """
    ignore = lambda *a: None  # noqa: E731
    session.run_ops(batch, ignore, OpCounters())
    parallel, serial = OpCounters(), OpCounters()
    session.run_ops(batch, ignore, parallel)
    session.db.configure_execution(engine="batch", workers=1)
    session.run_ops(batch, ignore, serial)
    if serial.as_dict() != parallel.as_dict():
        return (
            f"workers={session.workload.workers} counts "
            f"{parallel.as_dict()} != workers=1 counts {serial.as_dict()}"
        )
    return None


# --------------------------------------------------------------------- #
# durability drill
# --------------------------------------------------------------------- #


def durable_copy(session: Session) -> MainMemoryDatabase:
    """A durable database holding the mirror's current rows, for the
    drill of a workload that runs volatile."""
    rows = {name: session.mirror.table(name) for name in TABLE_ORDER}
    db = MainMemoryDatabase(durable=True)
    for text in ddl("engine") + insert_statements(rows):
        db.sql(text)
    return db


@dataclass
class DrillStats:
    """(wall seconds, reference seconds) of each timed drill step."""

    checkpoints: List[Tuple[float, float]] = field(default_factory=list)
    recovers: List[Tuple[float, float]] = field(default_factory=list)
    failovers: List[Tuple[float, float]] = field(default_factory=list)


def drill(session: Session, db: MainMemoryDatabase, cycles: int,
          checkpoints: int) -> DrillStats:
    """Checkpoint ``checkpoints`` times, then fail over to a warm replica
    and restart from the disk copy ``cycles`` times each, checking the
    tables against the mirror after every crash.

    The first failover promotes the replica that is already attached
    (the durable workload's, which shipped the whole loop); later ones
    attach a fresh replica first.  Only crash -> demote and crash ->
    recover -> finish_recovery are timed.
    """
    stats = DrillStats()
    timed = session.clock.timed

    def fail_over() -> None:
        db.crash()
        db.demote()

    def restart() -> None:
        db.crash()
        db.recover()
        db.finish_recovery()

    for __ in range(checkpoints):
        session.attempted += 1
        stats.checkpoints.append(timed(db.checkpoint))
    for cycle in range(cycles):
        state = db.replication_state()
        if state is None or state["state"] != "active":
            db.configure_replication(channel="inline")
        session.attempted += 1
        stats.failovers.append(timed(fail_over))
        if cycle == 0 and session.workload.durable:
            shipped = db.replication_state()["shipper"]["records_shipped"]
            written = (
                db.recovery.stable_log.records_written
                - session.written_at_setup
            )
            if shipped != written:
                session.mismatch(
                    f"replica shipped {shipped} records, log wrote {written}"
                )
        error = check_tables(db, session.mirror, probe=cycle == cycles - 1)
        if error:
            session.mismatch(f"after failover {cycle}: {error}")
    for cycle in range(cycles):
        session.attempted += 1
        stats.recovers.append(timed(restart))
        if db.quarantine_report():
            session.mismatch(f"quarantine after restart: "
                             f"{db.quarantine_report()}")
        error = check_tables(db, session.mirror, probe=cycle == cycles - 1)
        if error:
            session.mismatch(f"after restart {cycle}: {error}")
    db.stop_replication()
    return stats


def peak_rss_mb() -> float:
    """High-water resident set of this (the coordinator) process."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


# --------------------------------------------------------------------- #
# the untraced measurement
# --------------------------------------------------------------------- #


def measure(name: str, seed: int, seconds: float) -> Tuple[Session, Dict]:
    """Set up, run the timed loop and the fixed phases; the end-to-end
    metrics, every one of them measured in this run."""
    session = Session(WORKLOADS[name], seed)
    try:
        setup_s = session.setup()
        # One untimed round first: the optimizer's column statistics and
        # the interpreter's warm paths are a one-off, not per-statement.
        timed_loop(session, rounds=1)
        loop = timed_loop(session, seconds)
        rss = peak_rss_mb()
        trickle = loop
        if name.startswith("olap"):
            writes = session.gen.olap_writes(OLAP_WRITES)
            trickle = timed_loop(session, replay=[
                writes[start:start + OLAP_WRITE_ROUND]
                for start in range(0, OLAP_WRITES, OLAP_WRITE_ROUND)
            ])
            if session.workload.workers > 1:
                error = compare_worker_counts(session, loop.last_round)
                if error:
                    session.mismatch(error)
        if session.workload.durable:
            session.run_ops([Stmt("propagate")], lambda *a: None, OpCounters())
            result = drill(session, session.db, DRILL_CYCLES, 0)
        else:
            result = drill(session, durable_copy(session), DRILL_CYCLES,
                           DRILL_CYCLES)
        ref_loop, ref_trickle = loop.in_reference(), trickle.in_reference()
        if session.workload.durable:
            checkpoints = list(zip(loop.checkpoints, ref_loop.checkpoints))
        else:
            checkpoints = result.checkpoints
        ms = 1000.0

        def loop_metrics(run: LoopStats, writes: List[float], setup: float):
            return {
                "setup_s": (setup, "s"),
                "throughput_stmt_s": (run.throughput(), "statements/s"),
                "read_p50_ms": (part_percentile(run.reads, 0.50) * ms, "ms"),
                "read_p95_ms": (part_percentile(run.reads, 0.95) * ms, "ms"),
                "read_p99_ms": (part_percentile(run.reads, 0.99) * ms, "ms"),
                "write_p50_ms": (part_percentile(writes, 0.50) * ms, "ms"),
                "write_p99_ms": (part_percentile(writes, 0.99) * ms, "ms"),
            }

        raw = loop_metrics(loop, trickle.writes, setup_s[0])
        metrics = loop_metrics(ref_loop, ref_trickle.writes, setup_s[1])
        for metric, steps in (("checkpoint_s", checkpoints),
                              ("recover_s", result.recovers),
                              ("failover_s", result.failovers)):
            raw[metric] = (statistics.median(t for t, __ in steps), "s")
            metrics[metric] = (statistics.median(r for __, r in steps), "s")
        counts = {
            "ops_per_stmt": (loop.ops.weighted_cost() / loop.statements, "ops"),
            "peak_rss_mb": (rss, "MB"),
        }
        raw.update(counts)
        metrics.update(counts)
        session.raw_metrics = raw
        return session, metrics
    finally:
        session.close()

