"""Columnar tables for log events and sequences.

Every dataset in this package is held as a small set of named numpy columns of
equal length. Two concrete layouts exist: event tables (one row per log line)
and sequence tables (one row per trace / block / application run). Tables are
treated as immutable after construction; every operation returns a new table.
"""

from __future__ import annotations

import json
import re
from json.decoder import WHITESPACE
from json.scanner import py_make_scanner
from typing import Iterator, Mapping, Sequence

import numpy as np

# Mandatory columns for an event table. ``m_`` marks columns that come
# straight from the raw data, ``e_`` marks columns derived by enhancers.
EVENT_MANDATORY = ("m_message", "m_timestamp")

# numpy dtype kind -> (column dtype, tag in the JSON table format); object
# columns are tagged by their values
_KINDS = {
    "M": (np.dtype("datetime64[us]"), "timestamp_us"),
    "m": (np.dtype("timedelta64[us]"), "duration_us"),
    "i": (np.dtype(np.int64), "int"),
    "f": (np.dtype(np.float64), "float"),
    "b": (np.dtype(np.bool_), "bool"),
}
_TAG_DTYPES = {tag: dtype for dtype, tag in _KINDS.values()}
_TAG_STR = "str"
_TAG_STR_LIST = "str_list"
_TAG_INT_LIST = "int_list"

_FORMAT_NAME = "logbench.table"
_FORMAT_VERSION = 1
_NAT_INT = np.iinfo(np.int64).min

# characters that make csv's QUOTE_MINIMAL quote a cell (excel dialect)
_CSV_QUOTE_CHARS = ',"\r\n'
_CSV_QUOTE_RE = re.compile("[" + _CSV_QUOTE_CHARS + "]")


def object_column(values: Sequence) -> np.ndarray:
    """1-d object array holding ``values`` as they are (lists stay lists)."""
    return np.fromiter(values, dtype=object, count=len(values))


def _coerce_column(values) -> np.ndarray:
    """Bring a column candidate into one of the supported array dtypes."""
    if isinstance(values, np.ndarray):
        arr = values
        if arr.ndim != 1:
            raise ValueError("columns must be one dimensional")
        kind = arr.dtype.kind
        if kind in _KINDS:
            return arr.astype(_KINDS[kind][0])
        if kind == "U":
            return arr.astype(object)
        if kind != "O":
            raise TypeError(f"unsupported column dtype: {arr.dtype}")
        return arr

    values = list(values)
    if values and isinstance(values[0], (list, tuple)):
        # list-valued column (token lists, event id traces); keep as object
        # and never let numpy guess a 2-d shape; a null cell stays None
        return object_column([None if v is None else list(v)
                              for v in values])
    if values and all(isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=np.bool_)
    if values and all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=np.int64)
    if values and all(isinstance(v, float) for v in values):
        return np.asarray(values, dtype=np.float64)
    return object_column(values)


def _freeze(arr: np.ndarray) -> np.ndarray:
    try:
        arr.flags.writeable = False
    except ValueError:
        pass
    return arr


class Table:
    """Ordered mapping of column name to a 1-d numpy array, all equal length.

    ``meta`` carries loader diagnostics (dropped line counts and the like);
    it is informational and ignored by equality and serialization of data.
    """

    def __init__(self, columns: Mapping[str, object], meta: dict | None = None):
        self._columns: dict[str, np.ndarray] = {}
        n = None
        for name, values in columns.items():
            arr = _coerce_column(values)
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {n}"
                )
            self._columns[name] = _freeze(arr)
        self._n = 0 if n is None else n
        self.meta: dict = dict(meta or {})

    # -- basic access ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._n} rows, columns={self.column_names})"

    # -- derived tables --------------------------------------------------

    def with_column(self, name: str, values) -> "Table":
        cols = dict(self._columns)
        cols[name] = values
        return type(self)(cols, meta=self.meta)

    def take(self, indices) -> "Table":
        idx = np.asarray(indices, dtype=np.int64)
        cols = {name: arr[idx] for name, arr in self._columns.items()}
        return type(self)(cols, meta=self.meta)

    def head(self, n: int = 5) -> "Table":
        return self.take(np.arange(min(n, self._n)))

    def equals(self, other: "Table") -> bool:
        if self.column_names != other.column_names or len(self) != len(other):
            return False
        for name in self._columns:
            a, b = self._columns[name], other._columns[name]
            if a.dtype.kind != b.dtype.kind:
                return False
            if a.dtype.kind == "O":
                if any(x != y for x, y in zip(a, b)):
                    return False
            elif a.dtype.kind in "fMm":
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            else:
                if not np.array_equal(a, b):
                    return False
        return True

    # -- serialization ---------------------------------------------------

    def _column_tag(self, arr: np.ndarray) -> str:
        if arr.dtype.kind in _KINDS:
            return _KINDS[arr.dtype.kind][1]
        # object column: the first non-null value decides; a list column
        # takes its element type from its first non-empty list
        tag = None
        for v in arr:
            if isinstance(v, list):
                if v:
                    return _TAG_STR_LIST if isinstance(v[0], str) \
                        else _TAG_INT_LIST
                tag = _TAG_INT_LIST
            elif v is not None and tag is None:
                return _TAG_STR
        return tag or _TAG_STR

    def to_dict(self) -> dict:
        """Plain-python representation used by the JSON table format."""
        cols = []
        for name, arr in self._columns.items():
            tag = self._column_tag(arr)
            cols.append({"name": name, "dtype": tag,
                         "values": _json_values(arr, tag)})
        return {
            "format": _FORMAT_NAME,
            "version": _FORMAT_VERSION,
            "kind": self._kind_name(),
            "rows": self._n,
            "columns": cols,
        }

    def _kind_name(self) -> str:
        return "table"

    def save(self, path) -> None:
        """Write the table as deterministic JSON (byte identical per content)."""
        text = json.dumps(self.to_dict(), ensure_ascii=False,
                          separators=(",", ":"))
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
            f.write("\n")

    @staticmethod
    def _decode_column(tag: str, vals: list) -> np.ndarray:
        dtype = _TAG_DTYPES.get(tag)
        if dtype is None:
            return object_column(vals)
        if dtype.kind in "Mm":
            if None in vals:
                vals = [_NAT_INT if v is None else v for v in vals]
            return np.asarray(vals, dtype=np.int64).view(dtype)
        return np.asarray(vals, dtype=dtype)  # a null float becomes NaN

    @classmethod
    def load(cls, path) -> "Table":
        """Read a table file. Equal strings, and list cells whose JSON text
        is equal, come back as one shared, read-only object each."""
        decoder = json.JSONDecoder()
        decoder.parse_array = _shared_array
        decoder.scan_once = py_make_scanner(decoder)
        with open(path, "r", encoding="utf-8") as f:
            obj = decoder.decode(f.read())
        if obj.get("format") != _FORMAT_NAME:
            raise ValueError(f"{path}: not a {_FORMAT_NAME} file")
        if obj.get("version") != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported {_FORMAT_NAME} version "
                             f"{obj.get('version')!r}")
        rows = obj.get("rows")
        cols = {}
        for c in obj["columns"]:
            if len(c["values"]) != rows:
                raise ValueError(f"{path}: column {c['name']!r} has "
                                 f"{len(c['values'])} values, rows is {rows}")
            cols[c["name"]] = cls._decode_column(c["dtype"], c["values"])
        target = {"event": EventTable, "sequence": SequenceTable}
        return target.get(obj.get("kind"), Table)(cols)

    def write_csv(self, path) -> None:
        """Human-inspectable CSV export, byte for byte as ``csv.writer`` writes
        it: lists space separated, None and NaT empty, other values ``str``.
        Each column is rendered once and the rows are streamed to the file.
        """
        cols = [_csv_quoted([name] + _csv_cells(arr))
                for name, arr in self._columns.items()]
        if len(cols) == 1:
            # csv quotes the empty field of a one-field row
            cols = [[c or '""' for c in cols[0]]]
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(",".join(r) + "\r\n"
                         for r in (zip(*cols) if cols else [()]))


_SCAN_JSON = json.JSONDecoder().scan_once
_SKIP_WS = WHITESPACE.match


def _shared_array(s_and_end, scan_once):
    """``JSONArray`` for ``Table.load``: one object per distinct cell, so
    that loading holds the table rather than every copy in the text.

    The columns (objects) are read one at a time through ``scan_once``,
    which brings each ``values`` array back here. A list column is read a
    row at a time, rows with equal text sharing one list; any other array
    is read whole, equal strings sharing one str. Whitespace between the
    rows or objects, which ``Table.save`` never writes, sends the array to
    ``json``'s own parser: the same values, unshared.
    """
    s, end = s_and_end
    start, end = end - 1, _SKIP_WS(s, end).end()
    if s[end:end + 1] not in ("[", "{"):
        values, end = _SCAN_JSON(s, start)
        seen: dict = {}
        return [seen.setdefault(v, v) if type(v) is str else v
                for v in values], end
    scan, rows = (_SCAN_JSON, {}) if s[end] == "[" else (scan_once, None)
    values = []
    while True:
        value, nxt = scan(s, end)
        values.append(value if rows is None
                      else rows.setdefault(s[end:nxt], value))
        end = nxt + 1
        if s[nxt:end] != "," or s[end:end + 1] in " \t\n\r":
            break
    if s[nxt:end] == "]":
        return values, end
    return _SCAN_JSON(s, start)


def _json_values(arr: np.ndarray, tag: str) -> list:
    """Column values as JSON-ready Python objects, nulls as None."""
    kind = arr.dtype.kind
    if kind in "Mmf":
        vals = (arr.astype(object) if kind == "f"
                else arr.view(np.int64).astype(object))
        vals[np.isnan(arr)] = None
        return vals.tolist()
    vals = arr.tolist()
    if kind == "O":
        cast = str if tag == _TAG_STR else list
        if not set(map(type, vals)) <= {cast, type(None)}:
            vals = [None if v is None else cast(v) for v in vals]
    return vals


def _csv_cells(arr: np.ndarray) -> list[str]:
    """Unquoted CSV text of every cell of one column."""
    kind = arr.dtype.kind
    if kind in "Mm":
        cells = (np.datetime_as_string(arr) if kind == "M" else np.char.add(
            arr.view(np.int64).astype(str), " microseconds"))
        cells[np.isnat(arr)] = ""
        return cells.tolist()
    vals = arr.tolist()
    if kind != "O":
        return list(map(str, vals))
    types = set(map(type, vals))
    if types <= {str}:
        return vals
    if types <= {list, type(None)}:
        try:
            return ["" if v is None else " ".join(v) for v in vals]
        except TypeError:  # elements that are not str
            pass
    return ["" if v is None else " ".join(map(str, v))
            if isinstance(v, list) else str(v) for v in vals]


def _csv_quoted(cells: list[str]) -> list[str]:
    """csv QUOTE_MINIMAL: quote, doubling ``"``, cells with , " \\r or \\n."""
    text = "".join(cells)
    if not any(c in text for c in _CSV_QUOTE_CHARS):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _CSV_QUOTE_RE.search(c) else c
            for c in cells]


class EventTable(Table):
    """One row per log line. Requires ``m_message`` and ``m_timestamp``."""

    def _kind_name(self) -> str:
        return "event"


class SequenceTable(Table):
    """One row per sequence (block, application run, ...)."""

    def _kind_name(self) -> str:
        return "sequence"


class ValidationReport:
    """Outcome of structural validation of an event table.

    The report is valid exactly when all three lists are empty.
    """

    def __init__(self, missing_columns: list[str], null_cells: list[tuple],
                 warnings: list[str]):
        self.missing_columns = list(missing_columns)
        self.null_cells = list(null_cells)
        self.warnings = list(warnings)

    @property
    def is_valid(self) -> bool:
        return not (self.missing_columns or self.null_cells or self.warnings)

    def __repr__(self) -> str:
        state = "valid" if self.is_valid else "invalid"
        return (f"ValidationReport({state}, missing={self.missing_columns}, "
                f"nulls={len(self.null_cells)}, warnings={len(self.warnings)})")

    def summary(self) -> str:
        if self.is_valid:
            return "table is valid"
        lines = []
        if self.missing_columns:
            lines.append("missing columns: " + ", ".join(self.missing_columns))
        if self.null_cells:
            lines.append(f"null cells: {len(self.null_cells)}")
        lines.extend(self.warnings)
        return "\n".join(lines)


def _null_mask(arr: np.ndarray) -> np.ndarray:
    kind = arr.dtype.kind
    if kind in "Mm":
        return np.isnat(arr)
    if kind == "f":
        return np.isnan(arr)
    if kind == "O":
        return np.asarray([v is None for v in arr], dtype=bool)
    return np.zeros(len(arr), dtype=bool)


def validate_event_table(table: Table) -> ValidationReport:
    """Check mandatory columns and scan every cell for nulls.

    Null means None in object columns, NaT in time columns and NaN in float
    columns. The seq_id column is exempt from the null scan because loaders
    legitimately emit None there for lines without a sequence marker.
    """
    missing = [c for c in EVENT_MANDATORY if c not in table]
    nulls: list[tuple] = []
    for name in table.column_names:
        if name == "seq_id":
            continue
        mask = _null_mask(table[name])
        if mask.any():
            for i in np.flatnonzero(mask):
                nulls.append((name, int(i)))
    warnings = []
    if missing:
        warnings.append("missing mandatory columns: " + ", ".join(missing))
    if nulls:
        warnings.append(f"{len(nulls)} null cells found")
    return ValidationReport(missing, nulls, warnings)


def split_train_test(table: Table, train_fraction: float, seed: int):
    """Split a table into (train, test) with a seeded shuffle.

    When the table has a ``seq_id`` column the unit of sampling is the unique
    sequence id (all rows of one sequence land on the same side); rows with a
    null seq_id count as singleton units. Otherwise rows are sampled directly.
    Sampling is unstratified. The train side gets ``round(fraction * n_units)``
    units; both sides preserve the original row order.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise ValueError("train_fraction must be in [0, 1]")
    n = len(table)
    if "seq_id" in table:
        seq = table["seq_id"]
        unit_of_row = np.empty(n, dtype=np.int64)
        unit_ids: dict = {}
        singleton = 0
        for i in range(n):
            sid = seq[i]
            if sid is None:
                unit_of_row[i] = len(unit_ids) + singleton
                singleton += 1
            else:
                key = unit_ids.get(sid)
                if key is None:
                    key = len(unit_ids) + singleton
                    unit_ids[sid] = key
                unit_of_row[i] = key
        n_units = len(unit_ids) + singleton
    else:
        unit_of_row = np.arange(n, dtype=np.int64)
        n_units = n

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_units)
    n_train = int(round(train_fraction * n_units))
    train_units = np.zeros(n_units, dtype=bool)
    train_units[perm[:n_train]] = True
    row_mask = train_units[unit_of_row] if n else np.zeros(0, dtype=bool)
    train_idx = np.flatnonzero(row_mask)
    test_idx = np.flatnonzero(~row_mask)
    return table.take(train_idx), table.take(test_idx)
