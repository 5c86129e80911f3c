"""The small configs of the output record, run in process against record.json."""

import json

import record


def test_small_configs_match_the_record(tmp_path):
    got = record.build(tmp_path, small=True)
    assert len(got) == 16
    assert record.mismatches(got, json.loads(record.RECORD.read_text())) == []


def test_a_one_ulp_change_is_reported(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("x,v\n-1.0,0.1\n0.0,0.30000000000000004\n")
    new.write_text("x,v\n-1.0,0.1\n0.0,0.3\n")
    assert record.file_diff(old, new) == "1 float cells differ, max abs 5.55e-17, max ulp 1"


def test_rows_that_come_or_go_are_grouped_by_name():
    old = ["a = 1", "seam@-1.5 = 2", "seam@1.5 = 3", "eq_-1 = 4", "eq_0 = 5", "eq_1 = 6", "x_y = 7"]
    new = ["a = 1", "b = 8"]
    assert record._stream_diff(old, new) == (
        "7 -> 2 lines; -seam@* (2 rows); -eq_* (3 rows); -x_y; +b"
    )
