"""The checker must catch what it is there to catch.

Run:  python3 -m pytest sqlbench/test_oracle.py
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import Mirror, check, compare_bags, compare_top, check_tables  # noqa: E402
from spec import Generator, Query, Sizes, ddl, insert_statements  # noqa: E402

from repro import MainMemoryDatabase  # noqa: E402

ROWS = [(1, "a", 10), (2, "b", 20), (2, "b", 20), (3, "c", 30)]


def test_equal_bags_pass_in_any_order():
    assert compare_bags(list(reversed(ROWS)), ROWS) is None


def test_dropped_row_fails():
    assert compare_bags(ROWS[:-1], ROWS) is not None


def test_dropped_duplicate_fails():
    assert compare_bags([ROWS[0], ROWS[1], ROWS[3], ROWS[0]], ROWS) is not None


def test_extra_row_fails():
    assert compare_bags(ROWS + [(4, "d", 40)], ROWS) is not None


def test_changed_value_fails():
    changed = [ROWS[0], ROWS[1], ROWS[2], (3, "c", 31)]
    assert compare_bags(changed, ROWS) is not None


def test_float_columns_compare_within_tolerance_only():
    want = [(0, 2.0 / 3.0), (1, 0.1 + 0.2)]
    assert compare_bags([(1, 0.3), (0, 0.6666666666666666)], want, (1,)) is None
    assert compare_bags([(1, 0.3), (0, 0.6667)], want, (1,)) is not None


def test_top_k_accepts_any_tied_row_at_the_cut():
    full = [(9, 100), (7, 90), (8, 90), (5, 80)]
    assert compare_top([(9, 100), (8, 90)], full, 1, 2) is None
    assert compare_top([(9, 100), (7, 90)], full, 1, 2) is None


def test_top_k_rejects_wrong_keys_and_foreign_rows():
    full = [(9, 100), (7, 90), (8, 90), (5, 80)]
    assert compare_top([(9, 100), (5, 80)], full, 1, 2) is not None
    assert compare_top([(9, 100), (6, 90)], full, 1, 2) is not None
    assert compare_top([(9, 100)], full, 1, 2) is not None


def test_affected_row_counts_compare_exactly():
    stmt = Generator(1, Sizes(3, 3, 10)).delete()
    assert check(stmt, 1, 1) is None
    assert check(stmt, 0, 1) is not None


def _pair():
    gen = Generator(7, Sizes(5, 4, 30))
    load = insert_statements(gen.rows)
    db = MainMemoryDatabase()
    for text in ddl("engine") + load:
        db.sql(text)
    return db, Mirror(load)


def test_tables_agree_after_the_same_statements():
    db, mirror = _pair()
    stmt = Generator(7, Sizes(5, 4, 30)).update_amount()
    db.sql(stmt.sql)
    mirror.run(stmt)
    assert check_tables(db, mirror, probe=True) is None


def test_tables_catch_a_row_dropped_by_the_engine():
    db, mirror = _pair()
    db.sql("DELETE FROM Orders WHERE OId = 3")
    assert "Orders" in check_tables(db, mirror, probe=False)


def test_tables_catch_an_extra_engine_row():
    db, mirror = _pair()
    db.sql("INSERT INTO Region VALUES (99, 'extra')")
    assert "Region" in check_tables(db, mirror, probe=False)


def test_tables_catch_a_changed_engine_value():
    db, mirror = _pair()
    db.sql("UPDATE Customer SET CSegment = 77 WHERE CId = 2")
    assert "Customer" in check_tables(db, mirror, probe=False)


def test_select_rendered_for_both_dialects_agrees():
    db, mirror = _pair()
    query = Query(
        "RName, CName, Amount", "Orders",
        (("Customer", "OCust", "CId"), ("Region", "CRegion", "RId")),
        where="Amount > 100",
    ).stmt()
    assert "Orders.OCust = Customer.CId" in query.lite
    got = db.sql(query.sql).materialize(resolve_refs=True)
    assert got
    assert check(query, got, mirror.run(query)) is None
    random.Random(0).shuffle(got)
    assert check(query, got[1:], mirror.run(query)) is not None
