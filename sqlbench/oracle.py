"""The independent oracle: an in-memory sqlite3 mirror and the checker.

The mirror is fed every statement the engine runs, in the same order,
and the checker compares the engine's answer with the mirror's:

* SELECT results as bags of rows (foreign-key columns arrive as key
  values through ``materialize(resolve_refs=True)``), AVG columns with a
  relative float tolerance;
* ``ORDER BY ... LIMIT`` on the sort key only, so any of the rows tied at
  the cut is accepted, and every returned row must be a row of the full
  answer;
* UPDATE / DELETE / INSERT by affected-row count;
* whole tables after a restart or a failover, plus a primary-key probe
  that must find every live row.

A check returns an error message, or ``None`` when the answer is right.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

from spec import TABLE_ORDER, TABLES, Stmt, ddl

FLOAT_TOLERANCE = 1e-9


class Mirror:
    """sqlite3 in memory, loaded and written exactly as the engine is."""

    def __init__(self, load_statements: Iterable[str]) -> None:
        self.conn = sqlite3.connect(":memory:")
        for text in ddl("sqlite"):
            self.conn.execute(text)
        for text in load_statements:
            self.conn.execute(text)

    def run(self, stmt: Stmt):
        """Rows for a read, affected-row count for a write."""
        cursor = self.conn.execute(stmt.lite, stmt.params)
        if stmt.kind == "read":
            return cursor.fetchall()
        return cursor.rowcount

    def table(self, name: str) -> List[Tuple]:
        columns = ", ".join(TABLES[name][0])
        return self.conn.execute(f"SELECT {columns} FROM {name}").fetchall()

    def close(self) -> None:
        self.conn.close()


def _split(row: Sequence, float_cols: Sequence[int]):
    exact = tuple(v for i, v in enumerate(row) if i not in float_cols)
    floats = tuple(row[i] for i in float_cols)
    return exact, floats


def compare_bags(
    got: Sequence[Sequence], want: Sequence[Sequence],
    float_cols: Sequence[int] = (),
) -> Optional[str]:
    """Equal as multisets; ``float_cols`` compare within a tolerance."""
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    if not float_cols:
        got_bag = Counter(tuple(r) for r in got)
        want_bag = Counter(tuple(r) for r in want)
        if got_bag == want_bag:
            return None
        missing = want_bag - got_bag
        extra = got_bag - want_bag
        return (
            f"missing {list(missing.elements())[:3]}, "
            f"unexpected {list(extra.elements())[:3]}"
        )
    got_rows = sorted(_split(r, float_cols) for r in got)
    want_rows = sorted(_split(r, float_cols) for r in want)
    for (g_exact, g_floats), (w_exact, w_floats) in zip(got_rows, want_rows):
        if g_exact != w_exact or not all(
            math.isclose(g, w, rel_tol=FLOAT_TOLERANCE)
            for g, w in zip(g_floats, w_floats)
        ):
            return f"row {g_exact + g_floats} != {w_exact + w_floats}"
    return None


def compare_top(
    got: Sequence[Sequence], full: Sequence[Sequence],
    column: int, limit: int,
) -> Optional[str]:
    """``got`` is an ORDER BY column ... LIMIT cut of the ordered
    ``full`` answer: the same sort keys in the same order, and every row
    drawn from ``full`` (ties at the cut may pick any row)."""
    want_keys = [row[column] for row in full[:limit]]
    got_keys = [row[column] for row in got]
    if got_keys != want_keys:
        return f"sort keys {got_keys[:5]} != {want_keys[:5]}"
    leftover = Counter(tuple(r) for r in got) - Counter(tuple(r) for r in full)
    if leftover:
        return f"rows not in the full answer: {list(leftover)[:3]}"
    return None


def check(stmt: Stmt, got, want) -> Optional[str]:
    """Compare one statement's engine answer with the mirror's."""
    if stmt.kind != "read":
        return None if got == want else f"affected {got}, expected {want}"
    if stmt.order is not None:
        column, limit, __ = stmt.order
        return compare_top(got, want, column, limit)
    return compare_bags(got, want, stmt.float_cols)


def engine_table(db, name: str) -> List[Tuple]:
    columns = ", ".join(TABLES[name][0])
    return db.sql(f"SELECT {columns} FROM {name}").materialize(
        resolve_refs=True
    )


def check_tables(db, mirror: Mirror, probe: bool) -> Optional[str]:
    """Every table equals the mirror's; with ``probe``, the primary-key
    index of each relation finds every live row."""
    for name in TABLE_ORDER:
        want = mirror.table(name)
        error = compare_bags(engine_table(db, name), want)
        if error:
            return f"table {name}: {error}"
        if probe:
            relation = db.relation(name)
            key = TABLES[name][1]
            index = relation.index_on(key)
            for row in want:
                ref = index.search(row[0])
                if ref is None or relation.read_field(ref, key) != row[0]:
                    return f"table {name}: key {row[0]} not found by probe"
    return None
