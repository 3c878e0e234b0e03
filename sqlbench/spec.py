"""One seeded description of every workload, rendered in two dialects.

Each statement is described once (:class:`Query`, :func:`write`) and
rendered both for the engine under test and for stdlib ``sqlite3``, the
independent oracle.  The dialects differ where the engine's SQL does:

* joins are written ``JOIN T ON a = b`` for the engine (the interpreter
  resolves bare column names) and fully qualified for sqlite;
* ``CREATE INDEX ... USING ttree`` names the engine's index structure;
* ``ORDER BY ... LIMIT`` is rendered without the ``LIMIT`` for sqlite, so
  the checker can accept any of the rows tied at the cut.

The schema is an order-processing star with distinct column names, so a
bare name is never ambiguous: ``Orders`` points at ``Customer`` and
``Product`` through foreign keys (the engine stores tuple pointers, the
paper's precomputed joins), ``Customer.CRegion`` and ``Orders.Day`` join
by value to ``Region`` and ``Promo`` (hash joins).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Table name -> (columns, primary key, foreign keys {column: (table, col)}).
TABLES: Dict[str, Tuple[Tuple[str, ...], str, Dict[str, Tuple[str, str]]]] = {
    "Region": (("RId", "RName"), "RId", {}),
    "Customer": (("CId", "CName", "CRegion", "CSegment"), "CId", {}),
    "Product": (("PId", "PName", "PCat", "Price"), "PId", {}),
    "Promo": (("PrId", "PrDay", "Discount"), "PrId", {}),
    "Orders": (
        ("OId", "OCust", "OProd", "Qty", "Amount", "Day", "Status"),
        "OId",
        {"OCust": ("Customer", "CId"), "OProd": ("Product", "PId")},
    ),
}
#: Load order: referenced tables first.
TABLE_ORDER = ("Region", "Customer", "Product", "Promo", "Orders")
_TEXT_COLUMNS = {"RName", "CName", "PName"}

DAYS = 3650
N_REGIONS = 8
N_PROMOS = 120
ROWS_PER_INSERT = 100


@dataclass(frozen=True)
class Sizes:
    """Table cardinalities of one workload."""

    customers: int
    products: int
    orders: int


@dataclass
class Stmt:
    """One operation of a workload, rendered for both systems.

    ``kind`` is ``read`` or ``write`` for SQL, or ``propagate`` /
    ``checkpoint`` for the durable workload's log-device calls.
    ``handle`` names a prepared statement; ``params`` are its bound
    values (sqlite binds the same values to the same ``?`` text).
    ``order`` is ``(sort column index, limit, descending)`` for an
    ``ORDER BY ... LIMIT`` read; ``float_cols`` are AVG columns.
    ``user_bytes`` is the size of the values a write stores.
    """

    kind: str
    sql: str = ""
    lite: str = ""
    params: Tuple = ()
    handle: Optional[str] = None
    order: Optional[Tuple[int, int, bool]] = None
    float_cols: Tuple[int, ...] = ()
    user_bytes: int = 0


def _literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


def _row_bytes(values: Sequence) -> int:
    return sum(len(_literal(v)) for v in values)


# --------------------------------------------------------------------- #
# schema and data
# --------------------------------------------------------------------- #


def ddl(dialect: str) -> List[str]:
    """CREATE TABLE / CREATE INDEX statements in ``dialect``."""
    out = []
    for name in TABLE_ORDER:
        columns, key, fks = TABLES[name]
        parts = []
        for column in columns:
            kind = "TEXT" if column in _TEXT_COLUMNS else "INT"
            ref = fks.get(column)
            suffix = f" REFERENCES {ref[0]}({ref[1]})" if ref else ""
            parts.append(f"{column} {kind}{suffix}")
        out.append(
            f"CREATE TABLE {name} ({', '.join(parts)}, PRIMARY KEY ({key}))"
        )
    using = " USING ttree" if dialect == "engine" else ""
    out.append(f"CREATE INDEX o_day ON Orders (Day){using}")
    return out


def order_row(rng: random.Random, oid: int, sizes: Sizes) -> Tuple:
    return (
        oid,
        rng.randrange(sizes.customers),
        rng.randrange(sizes.products),
        rng.randrange(1, 50),
        rng.randrange(1, 10000),
        rng.randrange(DAYS),
        rng.randrange(4),
    )


def initial_rows(rng: random.Random, sizes: Sizes) -> Dict[str, List[Tuple]]:
    """Every table's starting rows."""
    return {
        "Region": [(r, f"region-{r}") for r in range(N_REGIONS)],
        "Customer": [
            (c, f"cust-{c}", rng.randrange(N_REGIONS), rng.randrange(5))
            for c in range(sizes.customers)
        ],
        "Product": [
            (p, f"prod-{p}", rng.randrange(20), rng.randrange(1, 1000))
            for p in range(sizes.products)
        ],
        "Promo": [
            (p, rng.randrange(DAYS), rng.randrange(5, 50))
            for p in range(N_PROMOS)
        ],
        "Orders": [order_row(rng, o, sizes) for o in range(sizes.orders)],
    }


def insert_statements(rows: Dict[str, List[Tuple]]) -> List[str]:
    """Multi-row INSERTs loading ``rows``; the text is valid in both
    dialects (foreign keys are written as the referenced key value)."""
    out = []
    for name in TABLE_ORDER:
        table = rows.get(name, [])
        for start in range(0, len(table), ROWS_PER_INSERT):
            chunk = table[start:start + ROWS_PER_INSERT]
            values = ", ".join(
                "(" + ", ".join(_literal(v) for v in row) + ")"
                for row in chunk
            )
            out.append(f"INSERT INTO {name} VALUES {values}")
    return out


# --------------------------------------------------------------------- #
# statement descriptions
# --------------------------------------------------------------------- #


@dataclass
class Query:
    """A SELECT described once and rendered per dialect."""

    columns: str
    table: str
    joins: Tuple[Tuple[str, str, str], ...] = ()  # (table, left, right)
    where: str = ""
    group_by: str = ""
    order_by: str = ""
    desc: bool = False
    limit: Optional[int] = None
    distinct: bool = False
    float_cols: Tuple[int, ...] = ()

    def render(self, dialect: str) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts += [self.columns, "FROM", self.table]
        tables = [self.table]
        for table, left, right in self.joins:
            if dialect == "engine":
                parts.append(f"JOIN {table} ON {left} = {right}")
            else:
                owner = next(t for t in tables if left in TABLES[t][0])
                parts.append(
                    f"JOIN {table} ON {owner}.{left} = {table}.{right}"
                )
            tables.append(table)
        if self.where:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append(f"GROUP BY {self.group_by}")
        if self.order_by:
            parts.append(f"ORDER BY {self.order_by}")
            if self.desc:
                parts.append("DESC")
        if self.limit is not None and dialect == "engine":
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    def stmt(self) -> Stmt:
        order = None
        if self.limit is not None:
            names = [c.strip() for c in self.columns.split(",")]
            order = (names.index(self.order_by), self.limit, self.desc)
        return Stmt(
            "read",
            self.render("engine"),
            self.render("sqlite"),
            order=order,
            float_cols=self.float_cols,
        )


def write(text: str, user_bytes: int = 0) -> Stmt:
    """A write whose text is the same in both dialects."""
    return Stmt("write", text, text, user_bytes=user_bytes)


#: Prepared statements every workload registers in set-up.
PREPARED = {
    "order_by_id": "SELECT OId, OCust, Qty, Amount, Day FROM Orders "
    "WHERE OId = ?",
    "customer_by_id": "SELECT CName, CRegion, CSegment FROM Customer "
    "WHERE CId = ?",
}


def prepared(handle: str, *params) -> Stmt:
    text = PREPARED[handle]
    return Stmt("read", text, text, params=tuple(params), handle=handle)


class Generator:
    """Seeded source of every workload's rounds.

    The generator tracks live order keys, so writes never fail: updates
    and deletes name a live key and inserts a fresh one.  The same seed
    gives the same rounds in the same order.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.rows = initial_rows(self.rng, sizes)
        self.live: List[int] = [row[0] for row in self.rows["Orders"]]
        self.next_id = sizes.orders

    # -- key choice -----------------------------------------------------

    def hot_key(self) -> int:
        """A skewed pick: half the picks land on ~6% of the live keys."""
        return self.live[int(len(self.live) * self.rng.random() ** 4)]

    def any_key(self) -> int:
        return self.live[self.rng.randrange(len(self.live))]

    # -- writes ---------------------------------------------------------

    def insert(self) -> Stmt:
        row = order_row(self.rng, self.next_id, self.sizes)
        self.next_id += 1
        self.live.append(row[0])
        values = ", ".join(str(v) for v in row)
        return write(f"INSERT INTO Orders VALUES ({values})", _row_bytes(row))

    def delete(self) -> Stmt:
        index = self.rng.randrange(len(self.live))
        key = self.live[index]
        self.live[index] = self.live[-1]
        self.live.pop()
        return write(f"DELETE FROM Orders WHERE OId = {key}")

    def update_amount(self) -> Stmt:
        value = self.rng.randrange(1, 10000)
        return write(
            f"UPDATE Orders SET Amount = {value} WHERE OId = {self.hot_key()}",
            len(str(value)),
        )

    def update_day(self) -> Stmt:
        value = self.rng.randrange(DAYS)
        return write(
            f"UPDATE Orders SET Day = {value} WHERE OId = {self.any_key()}",
            len(str(value)),
        )

    def writes(self, inserts: int, deletes: int, amounts: int, days: int):
        return (
            [self.insert() for __ in range(inserts)]
            + [self.delete() for __ in range(deletes)]
            + [self.update_amount() for __ in range(amounts)]
            + [self.update_day() for __ in range(days)]
        )

    # -- rounds ---------------------------------------------------------

    def oltp_round(self) -> List[Stmt]:
        """50 operations, 80/20 read/write, shuffled.

        Reads: 30 point lookups by primary key, half ad-hoc text (15
        order lookups by skewed key) and half prepared (11 order lookups
        by skewed key, 4 lookups of customers, a table no write touches),
        and 10 short T-Tree ranges on the secondary ``Day`` index.  The
        shares put the median read inside the ad-hoc cluster rather than
        in a gap between two clusters, where it would jump.
        """
        rng = self.rng
        ops = [
            Query(
                "OId, OCust, Qty, Amount, Day", "Orders",
                where=f"OId = {self.hot_key()}",
            ).stmt()
            for __ in range(15)
        ]
        ops += [prepared("order_by_id", self.hot_key()) for __ in range(11)]
        ops += [
            prepared("customer_by_id", rng.randrange(self.sizes.customers))
            for __ in range(4)
        ]
        for __ in range(10):
            day = rng.randrange(DAYS - 3)
            ops.append(
                Query(
                    "OId, Amount, Day", "Orders",
                    where=f"Day BETWEEN {day} AND {day + 2}",
                ).stmt()
            )
        ops += self.writes(3, 3, 2, 2)
        rng.shuffle(ops)
        return ops

    def olap_round(self) -> List[Stmt]:
        """20 analytic reads: 60% selections, 20% joins, 20% DISTINCT /
        GROUP BY / ORDER BY ... LIMIT (the paper's query mix).

        Every constant is drawn from a range of fixed width, so each
        statement selects about the same share of rows in every round and
        under every seed."""
        rng = self.rng
        ops = []
        for __ in range(2):
            day = rng.randrange(DAYS - 60)
            amount = rng.randrange(1, 9000)
            qty = rng.randrange(2, 48)
            ops += [
                Query("OId, Qty, Amount", "Orders",
                      where=f"Day BETWEEN {day} AND {day + 60}"),
                Query("OId, Amount", "Orders",
                      where=f"Day >= {day} AND Day < {day + 40} "
                      f"AND Qty > {rng.randrange(20, 30)}"),
                Query("OId, Amount", "Orders",
                      where=f"Amount BETWEEN {amount} AND {amount + 300} "
                      f"AND Status = {rng.randrange(4)}"),
                Query("OId, Qty", "Orders",
                      where=f"Qty = {qty} OR Amount > 9950"),
                Query("OId, Day", "Orders",
                      where=f"Qty < 3 AND Status != {rng.randrange(4)} "
                      f"OR Amount < {rng.randrange(5, 40)}"),
                Query("CId, CName", "Customer",
                      where=f"CSegment = {rng.randrange(5)} "
                      f"OR CRegion = {rng.randrange(N_REGIONS)}"),
            ]
        day = rng.randrange(DAYS - 30)
        amount = rng.randrange(1, 6900)
        qty = rng.randrange(1, 25)
        ops += [
            Query("CName, Amount", "Orders", (("Customer", "OCust", "CId"),),
                  where=f"Amount BETWEEN {amount} AND {amount + 200}"),
            Query("PName, Qty", "Orders", (("Product", "OProd", "PId"),),
                  where=f"Day BETWEEN {day} AND {day + 30}"),
            Query("OId, Discount", "Orders", (("Promo", "Day", "PrDay"),),
                  where=f"Qty BETWEEN {qty} AND {qty + 9}"),
            Query("RName, CName, Amount", "Orders",
                  (("Customer", "OCust", "CId"), ("Region", "CRegion", "RId")),
                  where=f"Amount BETWEEN {amount} AND {amount + 100}"),
        ]
        day = rng.randrange(DAYS - 400)
        ops += [
            Query("Status, Qty", "Orders", distinct=True,
                  where=f"Amount BETWEEN {amount} AND {amount + 3000}"),
            Query("CRegion, COUNT(*) AS n, SUM(Amount) AS total", "Orders",
                  (("Customer", "OCust", "CId"),),
                  where=f"Day BETWEEN {day} AND {day + 400}",
                  group_by="CRegion"),
            Query("Status, AVG(Amount) AS mean, MAX(Qty) AS top", "Orders",
                  where=f"Qty BETWEEN {qty} AND {qty + 24}",
                  group_by="Status", float_cols=(1,)),
            Query("OId, Amount", "Orders",
                  where=f"Day BETWEEN {day} AND {day + 300}",
                  order_by="Amount", desc=True, limit=10),
        ]
        stmts = [q.stmt() for q in ops]
        rng.shuffle(stmts)
        return stmts

    def olap_writes(self, count: int) -> List[Stmt]:
        """A trickle of point writes after the analytic loop, mostly
        corrections of an unindexed column: per ten, one INSERT, one
        DELETE, two UPDATEs of the indexed ``Day``, six of ``Amount``."""
        tenth = count // 10
        ops = self.writes(tenth, tenth, 6 * tenth, 2 * tenth)
        self.rng.shuffle(ops)
        return ops

    def durable_round(self, index: int, checkpoint_every: int) -> List[Stmt]:
        """25 autocommit statements (80/20 write/read), then the log
        device propagates; every ``checkpoint_every`` rounds a full
        checkpoint follows."""
        ops = self.writes(5, 5, 6, 4)
        ops += [prepared("order_by_id", self.any_key()) for __ in range(5)]
        self.rng.shuffle(ops)
        ops.append(Stmt("propagate"))
        if index % checkpoint_every == checkpoint_every - 1:
            ops.append(Stmt("checkpoint"))
        return ops
