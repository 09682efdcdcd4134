import base64
import csv
import json

import numpy as np
import pytest

from logbench import tables
from logbench.cli import main
from logbench.tables import (CodedColumn, EventTable, SequenceTable, Table,
                             TokenColumn, _first_seen, _first_seen_codes,
                             _null_mask, object_column, split_train_test,
                             validate_event_table)


def small_events():
    return EventTable({
        "m_message": ["alpha one", "beta two", "gamma three"],
        "m_timestamp": np.array(["2020-01-01T00:00:00",
                                 "2020-01-01T00:00:01",
                                 "2020-01-01T00:00:02"],
                                dtype="datetime64[us]"),
        "seq_id": ["s1", "s1", None],
        "count": [1, 2, 3],
        "flag": [True, False, True],
    })


def test_column_coercion_kinds():
    t = small_events()
    assert t["m_message"].dtype.kind == "O"
    assert t["count"].dtype == np.int64
    assert t["flag"].dtype == np.bool_
    assert t["m_timestamp"].dtype == np.dtype("datetime64[us]")


def test_list_columns_stay_ragged():
    t = Table({"words": [["a", "b"], ["c"], ["d", "e"]]})
    assert t["words"].dtype.kind == "O"
    assert t["words"][0] == ["a", "b"]
    assert t["words"][1] == ["c"]
    # equal-length sublists must not become a 2-d array either
    t2 = Table({"words": [["a", "b"], ["c", "d"]]})
    assert t2["words"].dtype.kind == "O"
    assert t2["words"][1] == ["c", "d"]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Table({"a": [1, 2], "b": [1, 2, 3]})


def test_columns_frozen():
    t = small_events()
    with pytest.raises(ValueError):
        t["count"][0] = 99


def test_with_column_and_take_and_head():
    t = small_events()
    t2 = t.with_column("extra", [9, 8, 7])
    assert "extra" not in t
    assert list(t2["extra"]) == [9, 8, 7]
    sub = t2.take([2, 0])
    assert list(sub["count"]) == [3, 1]
    assert sub["m_message"][0] == "gamma three"
    assert len(t2.head(2)) == 2


def test_take_refuses_a_boolean_mask():
    t = Table({"a": [10, 20, 30]})
    for mask in (np.array([True, False, True]), [True, False, True]):
        with pytest.raises(TypeError, match="flatnonzero"):
            t.take(mask)
    kept = t.take(np.flatnonzero([True, False, True]))
    assert kept["a"].tolist() == [10, 30]
    assert len(t.take([])) == 0


def test_equals():
    a = small_events()
    b = small_events()
    assert a.equals(b)
    assert not a.equals(b.with_column("x", [0, 0, 0]))
    assert not a.equals(b.take([0, 1, 1]))
    nat = EventTable({"t": np.array(["NaT", "2020-01-01"],
                                    dtype="datetime64[us]")})
    assert nat.equals(nat.take([0, 1]))
    assert not nat.equals(nat.take([1, 0]))


def test_validate_ok_and_missing():
    report = validate_event_table(small_events())
    assert report.is_valid
    assert report.missing_columns == []

    bad = Table({"m_message": ["x"]})
    report = validate_event_table(bad)
    assert not report.is_valid
    assert report.missing_columns == ["m_timestamp"]
    assert report.warnings


def test_validation_summary_names_each_problem_once():
    report = validate_event_table(Table({"m_message": [None]}))
    assert report.summary() == "missing columns: m_timestamp\nnull cells: 1"
    assert report.warnings == report.summary().split("\n")
    assert validate_event_table(small_events()).summary() == "table is valid"


def test_validate_finds_nulls_but_exempts_seq_id():
    t = EventTable({
        "m_message": ["ok", None],
        "m_timestamp": np.array(["2020-01-01", "NaT"], dtype="datetime64[us]"),
        "seq_id": [None, "s"],
        "score": [1.0, float("nan")],
    })
    report = validate_event_table(t)
    cells = set(report.null_cells)
    assert ("m_message", 1) in cells
    assert ("m_timestamp", 1) in cells
    assert ("score", 1) in cells
    assert not any(col == "seq_id" for col, _ in cells)


def test_save_load_round_trip(tmp_path):
    t = small_events().with_column("words", [["a", "b"], [], ["c"]]) \
                      .with_column("ids", [[1, 2], [3], []]) \
                      .with_column("score", [1.5, float("nan"), 0.0])
    path = tmp_path / "t.table.json"
    t.save(path)
    back = Table.load(path)
    assert isinstance(back, EventTable)
    assert back.equals(t)

    # byte-identical re-serialization
    path2 = tmp_path / "t2.table.json"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_foreign_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"hello": 1}')
    with pytest.raises(ValueError):
        Table.load(p)


def test_sequence_table_kind_round_trip(tmp_path):
    s = SequenceTable({"seq_id": ["a"], "label": [False],
                       "seq_len": [3]})
    p = tmp_path / "s.table.json"
    s.save(p)
    assert isinstance(Table.load(p), SequenceTable)


def test_write_csv(tmp_path):
    p = tmp_path / "t.csv"
    small_events().with_column("words", [["a", "b"], [], ["c"]]).write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("m_message,")
    assert len(lines) == 4
    assert "a b" in lines[1]


def test_list_column_tag_looks_past_empty_lists(tmp_path):
    def tag(values):
        Table({"w": values}).save(tmp_path / "t.table.json")
        obj = json.loads((tmp_path / "t.table.json").read_text("utf-8"))
        return obj["columns"][0]["dtype"]

    assert tag([[], ["a", "b"]]) == "str_list"
    assert tag(object_column([None, [], [1]])) == "int_list"
    assert tag([["a"], []]) == "str_list"


@pytest.mark.parametrize("cells", [
    [None, "a", "b"], ["a", None, "b"], ["a", "b", None], ["a", "b", "c"],
    [None, None, None], [["x"], None, []], [["x"], [], ["y", "z"]],
    [np.arange(3), None, np.arange(2)], [np.arange(3), "a", np.arange(2)],
], ids=["first", "middle", "last", "absent", "all", "lists",
        "lists-absent", "arrays", "arrays-absent"])
def test_null_mask_of_object_cells(cells):
    arr = object_column(cells)
    assert _null_mask(arr).tolist() == [v is None for v in cells]


def test_list_column_keeps_null_cells(tmp_path):
    cells = np.empty(3, dtype=object)
    cells[0], cells[1], cells[2] = ["a"], None, []
    t = Table({"w": [["a"], None, []]})
    assert t["w"].tolist() == [["a"], None, []]
    assert t.equals(Table({"w": cells}))
    p = tmp_path / "t.table.json"
    t.save(p)
    assert Table.load(p).equals(t)


def test_load_rejects_unknown_version(tmp_path):
    p = tmp_path / "t.table.json"
    small_events().save(p)
    obj = json.loads(p.read_text(encoding="utf-8"))
    obj["version"] = 3
    p.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="version 3") as err:
        Table.load(p)
    assert str(p) in str(err.value)


def test_load_rejects_column_shorter_than_rows(tmp_path):
    p = tmp_path / "t.table.json"
    _reference_save(small_events(), p)
    obj = json.loads(p.read_text(encoding="utf-8"))
    obj["columns"][3]["values"].pop()
    p.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="'count' has 2 values") as err:
        Table.load(p)
    assert str(p) in str(err.value)


def test_load_shares_equal_cells(tmp_path):
    t = Table({"w": [["a", "b"], ["a", "b"], ["a"], [], [], None],
               "s": ["node-1", "node-1", "node-2", "node-1", None, "node-2"]})
    p = tmp_path / "t.table.json"
    t.save(p)
    back = Table.load(p)
    assert back.equals(t)
    w, s = back["w"], back["s"]
    assert w[0] is w[1] and w[3] is w[4]
    assert len({id(c) for c in w[:5]}) == 3
    assert s[0] is s[1] is s[3] and s[2] is s[5] and s[0] is not s[2]


@pytest.mark.parametrize("indent", [None, 2])
def test_load_matches_json_module(tmp_path, indent):
    # cells that compare equal across types, nested lists, and a file with
    # other whitespace and key order than Table.save writes
    columns = {
        "mixed": [1, True, 1.0, "1", None, "1", []],
        "ids": [[1], [True], [1.0], [1], [], None, [[1]]],
        "nested": [[["a"]], [["a"]], [], ["a"], [None], [None], [[]]],
        "w": [["a", "b"], [], ["a", "b"], ["c"], ["a"], [], ["a", "b"]],
    }
    obj = {"format": "logbench.table", "version": 1, "kind": "table",
           "rows": 7, "columns": [{"name": n, "dtype": "str", "values": v}
                                  for n, v in columns.items()]}
    p = tmp_path / "t.table.json"
    p.write_text(json.dumps(obj, indent=indent, sort_keys=True,
                            separators=(",", ":") if indent is None else None),
                 encoding="utf-8")
    back = Table.load(p)
    for name, values in columns.items():
        assert repr(back[name].tolist()) == repr(values)
    assert back["ids"][0] is not back["ids"][1]


def test_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "t.table.json"
    _reference_save(Table({"w": [["a", "b"], ["c"]], "s": ["x", "y"]}), p)
    text = p.read_text(encoding="utf-8")
    for bad in (text[:-12], text.replace('["a","b"]', '["a" "b"]'),
                text.replace('],["c"]', '] ["c"]'),
                text.replace('"x",', '"x",,'), text.replace("]]", "],]")):
        p.write_text(bad, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            Table.load(p)


# -- reference copies of the per-cell serializers that the column-at-a-time
# code replaced; their files are the reference bytes of the v1 format

def _reference_tag(arr):
    kind = arr.dtype.kind
    if kind in "Mmifb":
        return {"M": "timestamp_us", "m": "duration_us", "i": "int",
                "f": "float", "b": "bool"}[kind]
    for v in arr:
        if v is None:
            continue
        if isinstance(v, list):
            if v and isinstance(v[0], str):
                return "str_list"
            return "int_list"
        return "str"
    return "str"


def _reference_to_dict(table):
    cols = []
    for name in table.column_names:
        arr = table[name]
        tag = _reference_tag(arr)
        if tag in ("timestamp_us", "duration_us"):
            ints = arr.astype(np.int64)
            nat = np.isnat(arr)
            vals = [None if nat[i] else int(ints[i]) for i in range(len(arr))]
        elif tag == "int":
            vals = [int(v) for v in arr]
        elif tag == "float":
            vals = [None if np.isnan(v) else float(v) for v in arr]
        elif tag == "bool":
            vals = [bool(v) for v in arr]
        elif tag in ("str_list", "int_list"):
            vals = [None if v is None else list(v) for v in arr]
        else:
            vals = [None if v is None else str(v) for v in arr]
        cols.append({"name": name, "dtype": tag, "values": vals})
    return {"format": "logbench.table", "version": 1,
            "kind": table._kind_name(), "rows": len(table), "columns": cols}


def _reference_save(table, path):
    text = json.dumps(_reference_to_dict(table), ensure_ascii=False,
                      separators=(",", ":"))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
        f.write("\n")


def _reference_write_csv(table, path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(table.column_names)
        cols = [table[name] for name in table.column_names]
        for i in range(len(table)):
            row = []
            for arr in cols:
                v = arr[i]
                if arr.dtype.kind in "Mm":
                    row.append("" if np.isnat(v) else str(v))
                elif isinstance(v, list):
                    row.append(" ".join(str(x) for x in v))
                elif v is None:
                    row.append("")
                else:
                    row.append(v)
            w.writerow(row)


def every_tag_columns():
    """One column per tag, with nulls, empty lists and text csv must quote.

    Empty lists never come first in a list column, where the reference tag
    differs (see test_list_column_tag_looks_past_empty_lists).
    """
    nat = np.iinfo(np.int64).min
    return {
        "m_message": ["plain", "a,b", 'say "hi"', "line\r\nbreak",
                      " leading space", "\u00fcn\u00efcode \u2603"],
        "m_timestamp": np.array([0, nat, 1_600_000_000_123_456, -5, 1, 2],
                                dtype="datetime64[us]"),
        "duration": np.array([1, nat, 0, -7, 10**12, 3],
                             dtype="timedelta64[us]"),
        "score": [1.5, float("nan"), 1e-05, float("inf"), -0.0, 1e16],
        "count": [1, -2, 3, 2**62, 0, 7],
        "repeats": [5, -2**63, 5, 2**62, -1, 5],
        "flag": [True, False, True, True, False, False],
        "level": object_column(["INFO", None, "", "x\ny", "a,\"b\"", "W"]),
        "e_words": object_column([["a", "b,c"], [], None, ['"q"'],
                                  ["\u00fc"], ["x", "y"]]),
        "ids": object_column([[1, 2], [], None, [3], [4, 5], [6]]),
        "mixed": object_column(["x", 5, None, 2.5, True, "y"]),
        **{f"only_{name}": ["x", f"a{ch}b", "", "y", None, ch]
           for name, ch in (("comma", ","), ("quote", '"'), ("cr", "\r"),
                            ("lf", "\n"))},
    }


def _block_sizes(monkeypatch):
    """``write_csv``'s rows per block, set in turn to 1, 2, 3 and the
    default: each one the test runs at."""
    for block in (1, 2, 3, tables._CSV_BLOCK):
        monkeypatch.setattr(tables, "_CSV_BLOCK", block)
        yield block


def _every_tag_rows(n):
    """``n`` rows cycling through the every-tag rows."""
    t = Table(every_tag_columns()).take(np.arange(n) % 6)
    return {name: t[name] for name in t}


@pytest.mark.parametrize("columns", [
    every_tag_columns(),
    {"only": ["", "a", None, "b,c"]},
    {k: v[:0] for k, v in every_tag_columns().items()},
    {},
    # two full default blocks and a short one, and short at sizes 2 and 3
    _every_tag_rows(2 * tables._CSV_BLOCK + 7),
], ids=["every-tag", "one-column-empty-cell", "zero-rows", "no-columns",
        "uneven-rows"])
def test_table_files_match_reference_serializers(tmp_path, monkeypatch,
                                                 columns):
    t = EventTable(columns)
    t.save(tmp_path / "t.table.json")
    _reference_save(t, tmp_path / "ref.table.json")
    back = Table.load(tmp_path / "ref.table.json")
    assert back.equals(_as_saved(t))
    back.save(tmp_path / "resaved.table.json")
    assert (tmp_path / "t.table.json").read_bytes() == \
        (tmp_path / "resaved.table.json").read_bytes()
    _reference_write_csv(t, tmp_path / "ref.csv")
    for _ in _block_sizes(monkeypatch):
        t.write_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


def _as_saved(table):
    """``table`` as a file gives it back: a str column's cells become str."""
    if "mixed" not in table:
        return table
    return table.with_column("mixed", object_column(
        [None if v is None else str(v) for v in table["mixed"]]))


def test_load_reads_file_written_by_reference_serializer(tmp_path):
    columns = every_tag_columns()
    del columns["mixed"]  # its int would come back as the str "5"
    t = EventTable(columns)
    _reference_save(t, tmp_path / "t.table.json")
    back = Table.load(tmp_path / "t.table.json")
    assert isinstance(back, EventTable)
    assert back.equals(t)
    assert back["score"].dtype == np.float64 and np.isnan(back["score"][1])
    assert np.isnat(back["m_timestamp"][1]) and np.isnat(back["duration"][1])


@pytest.mark.parametrize("columns", [
    every_tag_columns(),
    {"only": ["", "a", None, "b,c"]},
    {k: v[:0] for k, v in every_tag_columns().items()},
    {},
], ids=["every-tag", "one-column-empty-cell", "zero-rows", "no-columns"])
def test_v2_round_trip(tmp_path, columns):
    t = EventTable(columns)
    p = tmp_path / "t.table.json"
    t.save(p)
    text = p.read_text(encoding="utf-8")
    obj = json.loads(text)
    assert obj["version"] == 2 and obj["rows"] == len(t)
    # one compact JSON document, as json itself writes it
    assert text == json.dumps(obj, ensure_ascii=False,
                              separators=(",", ":")) + "\n"
    wire = {"int": "<i8", "float": "<f8", "bool": "|b1",
            "timestamp_us": "<i8", "duration_us": "<i8"}
    for col in obj["columns"]:  # decoded here as the format says
        arr = _as_saved(t)[col["name"]]
        if arr.dtype.kind == "O":
            codes = np.frombuffer(base64.b64decode(col["codes"]), "<i4")
            assert [None if c < 0 else col["dictionary"][c]
                    for c in codes] == arr.tolist()
        else:
            data = np.frombuffer(base64.b64decode(col["data"]),
                                 wire[col["dtype"]])
            np.testing.assert_array_equal(
                data, arr.view(np.int64) if arr.dtype.kind in "Mm" else arr)
    back = Table.load(p)
    assert isinstance(back, EventTable)
    assert back.equals(_as_saved(t))
    assert [back[n].dtype for n in back] == [t[n].dtype for n in t]


def test_equal_content_saves_equal_bytes(tmp_path):
    nan = np.array([np.nan])
    payload = (nan.view(np.int64) | 1).view(np.float64)  # another NaN
    shared = ["a", "b"]
    a = Table({"w": object_column([shared, shared, None, shared]),
               "s": object_column(["node-1", "node-1", None, "x"]),
               "f": np.array([1.0, nan[0], nan[0], -0.0])})
    b = Table({"w": object_column([["a", "b"], list(shared), None,
                                   ["a"] + ["b"]]),
               "s": object_column(["node-" + str(n) for n in (1, 1)]
                                  + [None, "x"]),
               "f": np.array([1.0, payload[0], -nan[0], -0.0])})
    assert a["s"][0] is a["s"][1] and b["s"][0] is not b["s"][1]
    a.save(tmp_path / "a.table.json")
    b.save(tmp_path / "b.table.json")
    assert (tmp_path / "a.table.json").read_bytes() == \
        (tmp_path / "b.table.json").read_bytes()


def test_v2_keeps_equal_numbers_of_other_types_apart(tmp_path):
    # a str column's cells are saved as their text, unhashable ones too
    t = Table({"ids": object_column([[1], [True], [1.0], [1], None, [1.0]]),
               "s": object_column(["1", 1, True, 1.0, None, ["1"]]),
               "u": object_column(["a", ["b"], {"k": [1]}, None, ["b"],
                                   1])})
    t.save(tmp_path / "t.table.json")
    back = Table.load(tmp_path / "t.table.json")
    assert repr(back["ids"].tolist()) == \
        "[[1], [True], [1.0], [1], None, [1.0]]"
    assert back["s"].tolist() == ["1", "1", "True", "1.0", None, "['1']"]
    assert back["u"].tolist() == ["a", "['b']", "{'k': [1]}", None,
                                  "['b']", "1"]
    ids = back["ids"]
    assert ids[0] is ids[3] and ids[2] is ids[5]
    assert len({id(c) for c in ids[:3]}) == 3


def _v2_file(tmp_path, edit):
    """A saved version 2 file of small_events(), its header edited."""
    p = tmp_path / "t.table.json"
    small_events().with_column("words", [["a"], ["a", "b"], []]).save(p)
    obj = json.loads(p.read_text(encoding="utf-8"))
    edit(obj, {c["name"]: c for c in obj["columns"]})
    p.write_text(json.dumps(obj, ensure_ascii=False, separators=(",", ":")),
                 encoding="utf-8")
    return p


def _b64(values, dtype):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()) \
        .decode("ascii")


@pytest.mark.parametrize("code", [-2, 3, 2**31 - 1])
def test_v2_load_rejects_code_outside_dictionary(tmp_path, code):
    def edit(obj, cols):
        cols["words"]["codes"] = _b64([0, code, 1], "<i4")
    p = _v2_file(tmp_path, edit)
    with pytest.raises(ValueError, match="'words' has codes outside") as err:
        Table.load(p)
    assert str(p) in str(err.value)


@pytest.mark.parametrize("name,field,values,dtype", [
    ("m_message", "codes", [0, 1], "<i4"),
    ("count", "data", [1, 2], "<i8"),
    ("flag", "data", [1, 0, 1, 1], "|b1"),
])
def test_v2_load_rejects_column_of_wrong_length(tmp_path, name, field,
                                                values, dtype):
    def edit(obj, cols):
        cols[name][field] = _b64(values, dtype)
    p = _v2_file(tmp_path, edit)
    with pytest.raises(ValueError, match=f"'{name}' has .* bytes of "
                                         f"{field}") as err:
        Table.load(p)
    assert str(p) in str(err.value)


def test_v2_load_rejects_unknown_dtype(tmp_path):
    def edit(obj, cols):
        cols["count"]["dtype"] = "int8"
    p = _v2_file(tmp_path, edit)
    with pytest.raises(ValueError, match="'count' has unknown dtype 'int8'") \
            as err:
        Table.load(p)
    assert str(p) in str(err.value)


@pytest.mark.parametrize("version", [0, 3, "2", None])
def test_v2_load_rejects_other_versions(tmp_path, version):
    def edit(obj, cols):
        obj["version"] = version
    p = _v2_file(tmp_path, edit)
    with pytest.raises(ValueError, match=f"version {version!r}") as err:
        Table.load(p)
    assert str(p) in str(err.value)


@pytest.mark.parametrize("rows", [-1, "3", None, 3.0])
def test_v2_load_rejects_bad_row_count(tmp_path, rows):
    def edit(obj, cols):
        obj["rows"] = rows
    p = _v2_file(tmp_path, edit)
    with pytest.raises(ValueError, match=f"rows is {rows!r}") as err:
        Table.load(p)
    assert str(p) in str(err.value)


@pytest.mark.parametrize("bad", ["AAAA!AAA", "AAAAA", "AAA=AAAA", 12, None])
def test_v2_load_rejects_malformed_base64(tmp_path, bad):
    def edit(obj, cols):
        cols["seq_id"]["codes"] = bad
    p = _v2_file(tmp_path, edit)
    with pytest.raises(ValueError, match="'seq_id': bad codes") as err:
        Table.load(p)
    assert str(p) in str(err.value)


def test_v2_load_rejects_column_shorter_than_rows(tmp_path):
    def edit(obj, cols):
        raw = base64.b64decode(cols["count"]["data"])
        cols["count"]["data"] = base64.b64encode(raw[:-8]).decode("ascii")
    p = _v2_file(tmp_path, edit)
    with pytest.raises(ValueError, match="'count' has 16 bytes of data, "
                                         "expected 3 rows of 8") as err:
        Table.load(p)
    assert str(p) in str(err.value)


def test_v2_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "t.table.json"
    Table({"w": [["a", "b"], ["c"]], "s": ["x", "y"]}).save(p)
    text = p.read_text(encoding="utf-8")
    for bad in (text[:-12], text.replace('["a","b"]', '["a" "b"]'),
                text.replace('"dictionary":', '"dictionary"'),
                text.replace('"x",', '"x",,'), text.replace("]]", "],]")):
        assert bad != text
        p.write_text(bad, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            Table.load(p)


def test_enhance_reads_v1_file_and_writes_v2(tmp_path, capsys):
    msgs = [f"Receiving block blk_{i % 4} src /10.0.0.{i}:50010" if i % 3
            else f"Deleting block blk_{i % 4} file /tmp/f{i}"
            for i in range(30)]
    t = EventTable({"m_message": msgs,
                    "m_timestamp": np.arange(30).astype("datetime64[s]")
                    .astype("datetime64[us]"),
                    "seq_id": [f"blk_{i % 4}" if i % 7 else None
                               for i in range(30)]})
    _reference_save(t, tmp_path / "v1.table.json")
    out = tmp_path / "out"
    assert main(["enhance", "--table", str(tmp_path / "v1.table.json"),
                 "--chain", "normalize,tokenize,drain,aggregate",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("events", "sequences"):
        obj = json.loads((out / f"{name}.table.json").read_text("utf-8"))
        assert obj["version"] == 2 and obj["kind"] == name[:-1]
    events = Table.load(out / "events.table.json")
    assert events["m_message"].tolist() == msgs
    assert len(Table.load(out / "sequences.table.json")) == 4


def _loop_units(seq):
    """The per-row loop that numbered split units before first-seen codes."""
    unit_of_row = np.empty(len(seq), dtype=np.int64)
    unit_ids: dict = {}
    singleton = 0
    for i, sid in enumerate(seq):
        if sid is None:
            unit_of_row[i] = len(unit_ids) + singleton
            singleton += 1
        else:
            key = unit_ids.get(sid)
            if key is None:
                key = len(unit_ids) + singleton
                unit_ids[sid] = key
            unit_of_row[i] = key
    return unit_of_row, len(unit_ids) + singleton


def _loop_split(table, train_fraction, seed):
    n = len(table)
    if "seq_id" in table:
        unit_of_row, n_units = _loop_units(list(table["seq_id"]))
    else:
        unit_of_row, n_units = np.arange(n, dtype=np.int64), n
    perm = np.random.default_rng(seed).permutation(n_units)
    train_units = np.zeros(n_units, dtype=bool)
    train_units[perm[:int(round(train_fraction * n_units))]] = True
    row_mask = train_units[unit_of_row] if n else np.zeros(0, dtype=bool)
    return np.flatnonzero(row_mask), np.flatnonzero(~row_mask)


def test_split_matches_per_row_loop():
    rng = np.random.default_rng(9)
    tables = [Table({"seq_id": [None, "a", None, "b", "a", None, None, "c",
                                "b", None]}),
              Table({"seq_id": object_column([None] * 7)}),
              Table({"seq_id": object_column([])}),
              Table({"row": list(range(25))})]
    for _ in range(20):
        n = int(rng.integers(1, 300))
        tables.append(Table({"seq_id": object_column(
            [None if k == 0 else f"s{k}"
             for k in rng.integers(0, int(rng.integers(1, 40)), n)])}))
    for i, t in enumerate(tables):
        t = t.with_column("row", list(range(len(t))))
        for frac, seed in ((0.3, i), (0.5, 100 + i), (1.0, 7)):
            train, test = split_train_test(t, frac, seed)
            want_train, want_test = _loop_split(t, frac, seed)
            assert train["row"].tolist() == want_train.tolist()
            assert test["row"].tolist() == want_test.tolist()


def test_split_fraction_bounds():
    with pytest.raises(ValueError):
        split_train_test(small_events(), 1.5, seed=0)


def test_split_partitions_rows():
    t = Table({"v": list(range(100))})
    train, test = split_train_test(t, 0.3, seed=7)
    assert len(train) == 30 and len(test) == 70
    together = sorted(list(train["v"]) + list(test["v"]))
    assert together == list(range(100))
    # original order preserved inside each side
    assert list(train["v"]) == sorted(train["v"])
    assert list(test["v"]) == sorted(test["v"])


def test_split_deterministic_and_seed_sensitive():
    t = Table({"v": list(range(60))})
    a1, _ = split_train_test(t, 0.5, seed=1)
    a2, _ = split_train_test(t, 0.5, seed=1)
    b1, _ = split_train_test(t, 0.5, seed=2)
    assert list(a1["v"]) == list(a2["v"])
    assert list(a1["v"]) != list(b1["v"])


def test_split_keeps_sequences_together():
    n = 200
    seqs = [f"s{i % 37}" for i in range(n)]
    t = Table({"seq_id": seqs, "row": list(range(n))})
    train, test = split_train_test(t, 0.4, seed=3)
    train_seqs = set(train["seq_id"])
    test_seqs = set(test["seq_id"])
    assert not (train_seqs & test_seqs)
    assert len(train_seqs) == round(0.4 * 37)
    assert len(train) + len(test) == n


def test_split_null_seq_ids_are_singletons():
    t = Table({"seq_id": ["a", None, "a", None], "row": [0, 1, 2, 3]})
    train, test = split_train_test(t, 0.5, seed=0)
    # 3 units total (a, and two singletons); a's rows stay together
    sides = []
    for part in (train, test):
        rows = set(part["row"])
        sides.append(rows)
    a_side = [0 in s for s in sides]
    assert (2 in sides[0]) == a_side[0]
    assert len(sides[0] | sides[1]) == 4


def test_split_property_loop():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(1, 80))
        frac = float(rng.uniform(0.0, 1.0))
        cols = {"row": list(range(n))}
        if trial % 2:
            cols["seq_id"] = [f"s{int(rng.integers(0, max(1, n // 3)))}"
                              for _ in range(n)]
        t = Table(cols)
        train, test = split_train_test(t, frac, seed=trial)
        assert len(train) + len(test) == n
        assert sorted(list(train["row"]) + list(test["row"])) == \
            list(range(n))
        if "seq_id" in cols:
            assert not (set(train["seq_id"]) & set(test["seq_id"]))


_ENTRIES = [["a", "b,c"], ['"q"', "\u00fc"], [], ["a", "b,c"], ["x"],
            ["line\r\nbreak", "y"]]


@pytest.mark.parametrize("entries,rows", [
    # shared entries, an unused one, and two entries of equal content
    (_ENTRIES, [0, 1, 2, 0, 3, 4, 1, 2, 3]),
    # rows not in first-seen order of their entries
    (_ENTRIES, [4, 2, 0, 4, 1]),
    # only empty lists: tagged as an int list column, as lists would be
    ([[], ["z"]], [0, 0]),
    ([["z"]], []),
    # int tokens, as an int list column holds them
    ([[1, 2], [3], []], [0, 1, 2, 1]),
    # tokens that are equal but of different types
    ([[1, True], [1.0], [True, 1]], [0, 1, 2, 1]),
], ids=["shared", "reordered", "all-empty", "zero-rows", "int-tokens",
        "equal-tokens-of-other-types"])
def test_token_column_io_matches_list_column(tmp_path, entries, rows):
    coded = TokenColumn.of(entries)[np.asarray(rows, dtype=np.int64)]
    listed = object_column([list(entries[r]) for r in rows])
    base = {"m_message": [f"m{i}" for i in range(len(rows))],
            "m_timestamp": np.arange(len(rows)).astype("datetime64[us]")}
    a = EventTable({**base, "e_words": coded})
    b = EventTable({**base, "e_words": listed})
    assert a["e_words"] is coded
    assert [coded[i] for i in range(len(rows))] == list(listed)
    assert a.equals(b) and b.equals(a)
    for name, t in (("a", a), ("b", b)):
        t.save(tmp_path / f"{name}.table.json")
        t.write_csv(tmp_path / f"{name}.csv")
    for ext in (".table.json", ".csv"):
        assert (tmp_path / f"a{ext}").read_bytes() == \
            (tmp_path / f"b{ext}").read_bytes()
    for name in "ab":
        back = Table.load(tmp_path / f"{name}.table.json")
        assert back.equals(a) and back.equals(b)
    pick = np.asarray([len(rows) - 1, 0], dtype=np.int64) if rows \
        else np.zeros(0, dtype=np.int64)
    assert isinstance(a.take(pick)["e_words"], TokenColumn)
    assert a.take(pick)["e_words"].codes is coded.codes  # codes not copied
    assert a.take(pick).equals(b.take(pick))
    assert a.head(2).equals(b.head(2))
    assert not _null_mask(coded).any()
    assert validate_event_table(a).is_valid


# every character csv quotes, None cells, an empty string and repeats
_CODED_CELLS = ["a,b", None, 'say "hi"', "cr\rlf", "line\nbreak", "",
                "plain", "a,b", None, "plain", "x"]


def _csv_reference(rows) -> bytes:
    """What ``csv.writer`` writes for ``rows``, None as an empty field."""
    import io
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["" if v is None else v for v in r]
                               for r in rows])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("idx", [
    np.array([3, 3, 0, 0, 10, 3]),
    np.arange(10, -1, -1),
    np.array([True, False, False, True] * 2 + [False, True, True]),
    np.zeros(0, dtype=np.int64),
], ids=["repeated", "reordered", "boolean", "empty"])
def test_coded_column_gathers_like_an_object_column(tmp_path, monkeypatch,
                                                    idx):
    coded = CodedColumn.of(_CODED_CELLS)
    plain = object_column(_CODED_CELLS)
    assert coded.dictionary == ["a,b", 'say "hi"', "cr\rlf", "line\nbreak",
                                "", "plain", "x"]
    assert coded.codes.dtype == np.int32 and coded.codes[1] == -1
    part, want = coded[idx], plain[idx].tolist()
    assert isinstance(part, CodedColumn)
    assert part.dictionary is coded.dictionary
    assert len(part) == len(want) and part.tolist() == want
    assert list(part) == want and [part[i] for i in range(len(want))] == want
    assert np.asarray(part).tolist() == want
    assert _null_mask(part).tolist() == [v is None for v in want]
    # the gather may leave unused and reordered entries; first_seen drops
    # and reorders them, and is the column itself once they are in order
    seen = part.first_seen()
    assert seen.dictionary == list(dict.fromkeys(v for v in want
                                                 if v is not None))
    assert seen.tolist() == want and seen.first_seen() is seen
    # a table holding either saves, exports and compares alike; the export
    # at every block size
    for _ in _block_sizes(monkeypatch):
        for name, col in (("coded", part), ("plain", plain[idx])):
            t = Table({"s": col, "n": np.arange(len(want))})
            t.save(tmp_path / f"{name}.table.json")
            t.write_csv(tmp_path / f"{name}.csv")
        for ext in (".table.json", ".csv"):
            assert (tmp_path / f"coded{ext}").read_bytes() == \
                (tmp_path / f"plain{ext}").read_bytes()
        assert (tmp_path / "coded.csv").read_bytes() == _csv_reference(
            [["s", "n"]] + [[v, str(i)] for i, v in enumerate(want)])
    a, b = Table({"s": part}), Table({"s": plain[idx]})
    assert a.equals(b) and b.equals(a)
    back = Table.load(tmp_path / "coded.table.json")
    assert isinstance(back["s"], CodedColumn) and back["s"].tolist() == want
    if idx.dtype != bool:  # Table.take reads row numbers
        taken = Table({"s": coded}).take(idx)
        assert isinstance(taken["s"], CodedColumn) and taken.equals(b)


def test_coded_column_tokens_split_each_entry_once(monkeypatch):
    split, seen = tables.split_tokens, []
    monkeypatch.setattr(tables, "split_tokens",
                        lambda text: (seen.append(text), split(text))[1])
    col = CodedColumn(["a  b", "", "c\x1cd"], [0, 2, 0, 1, 2])
    assert col.tokens.tolist() == [["a", "b"], ["c\x1cd"], ["a", "b"], [],
                                   ["c\x1cd"]]
    assert col.tokens.rows is col.codes
    assert col.tokens is col.tokens and seen == col.dictionary
    # a row of code -1 has no entry to read
    with pytest.raises(TypeError, match="messages must be str"):
        CodedColumn(["a b", "c"], [0, -1, 1]).tokens


def test_coded_column_equals_compares_cells():
    a = Table({"s": CodedColumn(["x", "y"], [0, 1, -1, 0])})
    assert a.equals(Table({"s": ["x", "y", None, "x"]}))
    assert a.equals(Table({"s": CodedColumn(["y", "x", "z"], [1, 0, -1, 1])}))
    assert not a.equals(Table({"s": ["x", "y", "x", "x"]}))
    assert not a.equals(Table({"s": CodedColumn(["x", "y"], [0, 1, -1, 1])}))


@pytest.mark.parametrize("cells", [["", None, "x", ""], [None], [""], []],
                         ids=["mixed", "none", "empty-string", "no-rows"])
def test_one_coded_column_csv_quotes_empty_fields(tmp_path, monkeypatch,
                                                  cells):
    # csv quotes the lone empty field of a one-field row
    for _ in _block_sizes(monkeypatch):
        Table({"s": CodedColumn.of(cells)}).write_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == \
            _csv_reference([["s"]] + [[v] for v in cells])


def test_v1_str_column_loads_and_saves_as_v2(tmp_path):
    t = Table({"s": CodedColumn.of(_CODED_CELLS)})
    _reference_save(t, tmp_path / "v1.table.json")
    back = Table.load(tmp_path / "v1.table.json")
    assert back.equals(t) and back["s"].tolist() == _CODED_CELLS
    back.save(tmp_path / "a.table.json")
    t.save(tmp_path / "b.table.json")
    assert (tmp_path / "a.table.json").read_bytes() == \
        (tmp_path / "b.table.json").read_bytes()


def _first_seen_reference(values):
    """``_first_seen`` by a dict: codes in first-seen order, -1 for a
    negative value, and each distinct value's first index."""
    seen = {}
    for i, v in enumerate(values.tolist()):
        if v >= 0:
            seen.setdefault(v, (len(seen), i))
    return ([seen[v][0] if v >= 0 else -1 for v in values.tolist()],
            [i for _, i in seen.values()])


@pytest.mark.parametrize("case", ["empty", "one", "bounded", "distinct",
                                  "sparse"])
def test_first_seen_matches_a_dict(case):
    rng = np.random.default_rng(6)
    inputs = {
        "empty": [np.zeros(0, dtype=np.int32)],
        "one": [np.array([v], dtype=dt) for v in (-1, 0, 7, 2**40)
                for dt in (np.int32, np.int64) if v < 2**31],
        # codes over a dictionary, -1 for None: dense and sparse in it;
        # values below -1 are absent too
        "bounded": [rng.integers(lo, k, size=n).astype(np.int32)
                    for n, k, lo in ((50, 3, -1), (1000, 40, -1),
                                     (1000, 5000, -1), (10, 10**6, -1),
                                     (100, 40, -3))],
        "distinct": [rng.permutation(n).astype(np.int64)
                     for n in (1, 2, 1000)] + [np.arange(-1, 500)],
        # packed keys: wide values, and negatives below -1
        "sparse": [rng.integers(lo, 2**62, size=n, dtype=np.int64)
                   // k * k for n, k, lo in ((1000, 2**58, 0),
                                             (1000, 1, 0),
                                             (1000, 2**59, -2**62),
                                             (7, 1, -2**62))],
    }[case]
    for values in inputs:
        before = values.copy()
        codes, first = _first_seen(values)
        want_codes, want_first = _first_seen_reference(values)
        assert codes.dtype == np.int32
        assert codes.tolist() == want_codes
        assert first.tolist() == want_first
        assert values.tolist() == before.tolist()  # the input is kept


def test_token_column_keeps_equal_tokens_of_other_types_apart():
    col = TokenColumn.of([[1, True], [1.0], ["1", 1, True]])
    assert [col[i] for i in range(3)] == [[1, True], [1.0], ["1", 1, True]]
    assert [list(map(type, col[i])) for i in range(3)] == \
        [[int, bool], [float], [str, int, bool]]
    assert col.tolist() == [[1, True], [1.0], ["1", 1, True]]
    # str tokens, as every loader makes them, are coded by value alone
    strs = TokenColumn.of([["a", "b"], [], ["b", "c", "a"]])
    assert strs.tokens == ["a", "b", "c"]
    assert strs.codes.tolist() == [0, 1, 1, 2, 0]


def _flat_reference(col):
    """``TokenColumn.flat`` by its earlier formula: each row's run shift
    repeated over the run, plus an arange of all places."""
    starts = col.offsets[col.rows]
    lengths = np.diff(col.offsets)[col.rows]
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return col.codes[np.arange(len(shift)) + shift], lengths


def test_flat_and_concat_match_the_reference():
    rng = np.random.default_rng(8)
    cases = [
        ([], []),
        ([[]], [0, 0, 0]),
        # empty entries, repeated rows and rows out of entry order
        ([["a"], [], ["b", "c"], [], ["d", "e", "f"]],
         [2, 1, 0, 4, 2, 3, 3, 1, 4, 0, 0]),
        ([["a", "b"], ["c"]], [1, 1, 0]),
    ]
    for _ in range(200):
        entries = [["t%d" % rng.integers(9) for _ in range(rng.integers(4))]
                   for _ in range(rng.integers(1, 6))]
        cases.append((entries, rng.integers(len(entries),
                                            size=rng.integers(12)).tolist()))
    for entries, rows in cases:
        col = TokenColumn.of(entries)[np.asarray(rows, dtype=np.int64)]
        codes, lengths = col.flat()
        want_codes, want_lengths = _flat_reference(col)
        assert codes.dtype == want_codes.dtype
        assert codes.tolist() == want_codes.tolist()
        assert lengths.dtype == want_lengths.dtype
        assert lengths.tolist() == want_lengths.tolist()
        counts = [len(rows) // 2, len(rows) - len(rows) // 2]
        joined = col.concat(counts)
        assert joined.tolist() == [
            sum((entries[r] for r in rows[:counts[0]]), []),
            sum((entries[r] for r in rows[counts[0]:]), [])]


def test_flat_of_one_code_rows_matches_the_general_path():
    # every row one code, rows repeated and out of entry order; entries no
    # row reads may hold any number of codes, and shift the others' codes
    rng = np.random.default_rng(25)
    for _ in range(100):
        entries = [["u", "v", "w"], []] + [
            ["t%d" % rng.integers(6)] for _ in range(rng.integers(1, 8))]
        rows = rng.integers(2, len(entries), size=rng.integers(20))
        col = TokenColumn.of(entries)[rows]
        codes, lengths = col.flat()
        want_codes, want_lengths = _flat_reference(col)
        assert codes.dtype == want_codes.dtype
        assert codes.tolist() == want_codes.tolist()
        assert lengths.dtype == want_lengths.dtype
        assert lengths.tolist() == want_lengths.tolist() == [1] * len(rows)
        # one more row of three codes takes the general path, which must
        # give the same codes for the rows before it
        general = TokenColumn.of(entries)[np.append(rows, 0)]
        more_codes, more_lengths = general.flat()
        assert more_codes[:len(rows)].tolist() == codes.tolist()
        assert more_lengths.tolist() == [1] * len(rows) + [3]


def test_cut_column_renders_its_parts():
    # an unused key-free entry, rows kept whole, one key-free message cut
    # at different offsets, and a key cut from inside its chunk
    free = CodedColumn(["a  c", "x", "a  c ", "unused"], [0, 1, 0, 2, 1, 0])
    keys = CodedColumn(["k1", "k2"], [0, -1, 1, 0, -1, 0])
    column = CodedColumn.cut(free, keys, [2, -1, 2, 4, -1, 3])
    want = ["a k1 c", "x", "a k2 c", "a  ck1 ", "x", "a  k1c"]
    assert column.parts[:2] == (free, keys)
    assert column.parts[2].tolist() == [2, -1, 2, 4, -1, 3]
    # the (free code, at) pairs in first-seen order
    assert column.parts[3].tolist() == [0, 1, 0, 2, 1, 3]
    assert column.parts[4].tolist() == [0, 1, 3, 5]  # where each first is
    assert column.codes.tolist() == [0, 1, 2, 3, 1, 4]
    assert column.first_seen() is column
    assert column.tolist() == want
    assert column.dictionary == list(dict.fromkeys(want))
    assert column[[1, 0]].parts is None


def test_cut_column_codes_where_packed_parts_would_overflow():
    # packed into one int64 as (free code * width + at + 1) * (keys + 1)
    # + key code + 1, with width 2**30 and 2**16 key codes, free codes 0
    # and 2**18 fall 2**64 apart: the same int64
    n_free, n_keys, top = (1 << 18) + 1, (1 << 16) - 1, (1 << 30) - 2
    free_codes = np.array([0, 1 << 18, 0, 5, 1 << 18, 7])
    at = np.array([3, 3, top, -1, 3, 3])
    key_codes = np.array([9, 9, 9, -1, 9, n_keys - 1])
    free = CodedColumn([str(i) for i in range(n_free)], free_codes)
    keys = CodedColumn([f"k{i}" for i in range(n_keys)], key_codes)
    column = CodedColumn.cut(free, keys, at)
    want = _first_seen_codes(list(zip(free_codes.tolist(), at.tolist(),
                                      key_codes.tolist())))[1]
    assert column.codes.tolist() == want.tolist() == [0, 1, 2, 3, 1, 4]
