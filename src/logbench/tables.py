"""Columnar tables for log events and sequences.

Every dataset in this package is held as a small set of named numpy columns of
equal length. Two concrete layouts exist: event tables (one row per log line)
and sequence tables (one row per trace / block / application run). Tables are
treated as immutable after construction; every operation returns a new table.
A column of few distinct strings is a ``CodedColumn`` (a dictionary plus
int32 codes) and a column of token lists a ``TokenColumn``; both read as
object columns, and saving, CSV export and validation work on their codes.
"""

from __future__ import annotations

import base64
import json
import re
from functools import cached_property
from itertools import chain
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
_FORMAT_VERSION = 2
_NAT_INT = np.iinfo(np.int64).min
# version 2: object columns as a dictionary plus int32 codes, every other
# column as its raw bytes; both little-endian and base64 encoded
_CODES_DTYPE = np.dtype("<i4")
_WIRE_DTYPES = {tag: dtype.newbyteorder("<")
                for tag, dtype in _TAG_DTYPES.items()}
_dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

# characters that make csv's QUOTE_MINIMAL quote a cell (excel dialect)
_CSV_QUOTE_CHARS = ',"\r\n'
_CSV_QUOTE_RE = re.compile("[" + _CSV_QUOTE_CHARS + "]")


def object_column(values: Sequence) -> np.ndarray:
    """1-d object array holding ``values`` as they are (lists stay lists)."""
    return np.fromiter(values, dtype=object, count=len(values))


class TokenColumn:
    """A column of token lists held as codes over one dictionary: entry
    ``e`` is ``tokens[c]`` for ``c`` in ``codes[offsets[e]:offsets[e + 1]]``
    and row ``i`` holds entry ``rows[i]`` (rows with equal messages share
    one). ``col[i]`` is a new ``list[str]``; ``col[indices]`` gathers rows
    over the same codes. Tables treat it as an object column of str lists.
    """

    dtype = np.dtype(object)

    def __init__(self, tokens: list, codes, offsets, rows):
        self.tokens = tokens
        self.codes = _freeze(np.asarray(codes))
        self.offsets = _freeze(np.asarray(offsets, dtype=np.int64))
        self.rows = _freeze(np.asarray(rows))

    @classmethod
    def of(cls, lists) -> "TokenColumn":
        """A token column as it is, or token lists coded, an entry each."""
        if isinstance(lists, TokenColumn):
            return lists
        lists = list(lists)
        tokens, codes = _first_seen_codes(list(chain.from_iterable(lists)))
        offsets = np.cumsum([0, *map(len, lists)])
        return cls(tokens, codes, offsets, np.arange(len(lists)))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.entry(self.rows[key])
        return TokenColumn(self.tokens, self.codes, self.offsets,
                           self.rows[key])

    def entry(self, e) -> list:
        """Entry ``e``'s tokens as a new ``list[str]``."""
        return list(map(self.tokens.__getitem__, self.codes[
            self.offsets[e]:self.offsets[e + 1]].tolist()))

    def __iter__(self):
        return iter(self.tolist())

    def entries(self, cell=None) -> list:
        """Every entry's token list, or ``cell`` of it."""
        words = object_column(self.tokens)[self.codes].tolist()
        bounds = self.offsets.tolist()
        cells = [words[a:b] for a, b in zip(bounds, bounds[1:])]
        return cells if cell is None else list(map(cell, cells))

    def tolist(self, cell=None) -> list:
        """Every row's token list, or ``cell`` of it. ``cell`` runs once
        per entry, and rows sharing an entry share its (read-only) list."""
        return list(map(self.entries(cell).__getitem__, self.rows.tolist()))

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The codes of all rows in row order, and each row's length."""
        starts = self.offsets[self.rows]
        lengths = np.diff(self.offsets)[self.rows]
        # position k of row j's run reads codes[starts[j] + k]
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return self.codes[np.arange(len(shift)) + shift], lengths

    def concat(self, counts) -> "TokenColumn":
        """One row per run of ``counts[g]`` rows, joining their tokens."""
        codes, lengths = self.flat()
        ends = np.concatenate(([0], np.cumsum(lengths)))
        return TokenColumn(self.tokens, codes,
                           ends[np.concatenate(([0], np.cumsum(counts)))],
                           np.arange(len(counts), dtype=np.int32))


class CodedColumn:
    """A column of str cells held as a dictionary plus int32 codes: row
    ``i`` holds ``dictionary[codes[i]]``, or None where its code is -1.
    ``col[i]`` is the cell; ``col[indices]`` gathers codes over the same
    dictionary, which may then hold unused entries or stand out of
    first-seen order (``first_seen`` restores it). Tables treat it as an
    object column of str.

    ``dictionary`` may be given as a function that renders it, which runs
    on its first read: a pass that reads only ``codes`` and ``tokens``
    never builds the strings. ``tokens`` is the column's ``TokenColumn``,
    whose rows are ``codes`` itself, when the code that built the column
    kept what it takes (``code_tokens``: one compact entry per dictionary
    entry, coded on first read), else None.
    """

    dtype = np.dtype(object)

    def __init__(self, dictionary, codes, code_tokens=None):
        if callable(dictionary):
            self._render = dictionary
        else:
            self.dictionary = dictionary
        self.codes = _freeze(np.asarray(codes, dtype=np.int32))
        self._code_tokens = code_tokens

    @classmethod
    def of(cls, cells) -> "CodedColumn":
        """A coded column as it is, or hashable cells coded in first-seen
        order."""
        if isinstance(cells, CodedColumn):
            return cells
        return cls(*_first_seen_codes(
            cells.tolist() if isinstance(cells, np.ndarray) else list(cells)))

    @cached_property
    def dictionary(self) -> list:
        render, self._render = self._render, None
        return render()

    @cached_property
    def tokens(self) -> TokenColumn | None:
        code, self._code_tokens = self._code_tokens, None
        if code is None:
            return None
        entries = code()
        return TokenColumn(entries.tokens, entries.codes, entries.offsets,
                           self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            code = self.codes[key]
            return None if code < 0 else self.dictionary[code]
        return CodedColumn(self.dictionary, self.codes[key])

    def __iter__(self):
        return iter(self.tolist())

    def __array__(self, dtype=None, copy=None):
        cells = object_column(self.dictionary + [None])[self.codes]
        return cells if dtype is None else cells.astype(dtype)

    def tolist(self) -> list:
        return self.__array__().tolist()

    def first_seen(self) -> "CodedColumn":
        """The column with its dictionary in first-seen order of the rows
        and no unused entry: itself when it already is, as a loader or
        ``masking.normalize`` builds it, else re-coded in numpy."""
        codes, size = self.codes, len(self.dictionary)
        # in first-seen order every code is at most one above the highest
        # code before it, and the highest of all is the last entry
        top = np.maximum.accumulate(np.concatenate(([-1], codes)))
        if top[-1] == size - 1 and (codes <= top[:-1] + 1).all():
            return self
        used = _first_seen_order(codes)[0]
        recode = np.full(size + 1, -1, dtype=np.int32)  # [-1] stays -1
        recode[used] = np.arange(len(used), dtype=np.int32)
        return CodedColumn(list(map(self.dictionary.__getitem__,
                                    used.tolist())), recode[codes])


def _coerce_column(values) -> np.ndarray:
    """Bring a column candidate into one of the supported array dtypes."""
    if isinstance(values, (TokenColumn, CodedColumn)):
        return values
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
    except (ValueError, AttributeError):  # a coded column freezes its own
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
        if isinstance(arr, CodedColumn):
            return _TAG_STR
        if isinstance(arr, TokenColumn) and len(arr):
            # the first row that holds a token decides
            filled = np.flatnonzero(np.diff(arr.offsets)[arr.rows])
            if not len(filled):
                return _TAG_INT_LIST
            first = arr.tokens[arr.codes[arr.offsets[arr.rows[filled[0]]]]]
            return _TAG_STR_LIST if isinstance(first, str) else _TAG_INT_LIST
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

    def _kind_name(self) -> str:
        return "table"

    def save(self, path) -> None:
        """Write the table as compact JSON, format version 2: each object
        column as its distinct cells in first-seen order plus one int32 code
        per row, every other column as its raw bytes. Equal content gives
        equal bytes, coded or not."""
        cols = []
        for name, arr in self._columns.items():
            tag = self._column_tag(arr)
            col = {"name": name, "dtype": tag}
            if arr.dtype.kind == "O":
                col["dictionary"], codes = _encode_cells(arr, tag)
                field, raw = "codes", codes.astype(_CODES_DTYPE)
            else:
                if arr.dtype.kind == "f":  # one NaN bit pattern
                    arr = np.where(np.isnan(arr), np.nan, arr)
                field, raw = "data", arr.astype(_WIRE_DTYPES[tag])
            # base64 needs no JSON escaping, so its text is spliced in as is
            b64 = base64.b64encode(raw.tobytes()).decode("ascii")
            cols.append(f'{_dumps(col)[:-1]},"{field}":"{b64}"}}')
        head = _dumps({"format": _FORMAT_NAME, "version": _FORMAT_VERSION,
                       "kind": self._kind_name(), "rows": self._n,
                       "columns": []})
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(head[:-2])
            f.write(",".join(cols))
            f.write("]}\n")

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
        """Read a table file of version 2 or 1. In version 2, a str column
        comes back as a ``CodedColumn`` and equal cells of a list column as
        one shared object; version 1 cells are each their own object."""
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        if obj.get("format") != _FORMAT_NAME:
            raise ValueError(f"{path}: not a {_FORMAT_NAME} file")
        version = obj.get("version")
        if version not in (1, 2):
            raise ValueError(f"{path}: unsupported {_FORMAT_NAME} version "
                             f"{version!r}")
        rows = obj.get("rows")
        if version == 2 and not (type(rows) is int and rows >= 0):
            raise ValueError(f"{path}: rows is {rows!r}")
        cols = {}
        for c in obj["columns"]:
            if version == 2:
                cols[c["name"]] = _decode_v2_column(c, rows, path)
                continue
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
        cols = [_csv_quoted([name]) + _csv_column(arr)
                for name, arr in self._columns.items()]
        if len(cols) == 1:
            # csv quotes the empty field of a one-field row
            cols = [[c or '""' for c in cols[0]]]
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(",".join(r) + "\r\n"
                         for r in (zip(*cols) if cols else [()]))


def _first_seen_order(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-negative values of an int array in order of first
    appearance, and the index where each first appears. One sort of value
    and index packed into an int64 and a neighbour compare: ``np.unique``
    hashes int arrays and a stable argsort merges, each several times
    slower."""
    n = len(codes)
    key = np.sort(codes.astype(np.int64) * n + np.arange(n))
    value = key // n  # -1 stays -1: key // n floors
    head = np.ones(n, dtype=bool)
    head[1:] = value[1:] != value[:-1]
    first = np.sort((key - value * n)[head & (value >= 0)])
    return codes[first], first


def _first_seen_codes(cells: list) -> tuple[list, np.ndarray]:
    """Distinct non-None cells in first-seen order, and each cell's int32
    index into them; -1 for None. Cells must be hashable."""
    code_of = dict.fromkeys(cells)
    code_of.pop(None, None)
    dictionary = list(code_of)
    if len(dictionary) == len(cells):  # every cell distinct, none None
        return dictionary, np.arange(len(cells), dtype=np.int32)
    code_of.update(zip(dictionary, range(len(dictionary))))
    code_of[None] = -1
    codes = np.fromiter(map(code_of.__getitem__, cells), dtype=np.int32,
                        count=len(cells))
    return dictionary, codes


def _encode_cells(arr: np.ndarray, tag: str) -> tuple[list, np.ndarray]:
    """Dictionary and codes of an object column, its cells cast to ``str``
    or ``list`` by its tag, both in first-seen order.

    Strings are keyed by value: a ``CodedColumn`` brings its own codes,
    any other column is coded here. List rows are keyed by their JSON text,
    which keeps ``[1]``, ``[True]`` and ``[1.0]`` apart; it is computed
    once per distinct list object (per used entry of a ``TokenColumn``).
    """
    if isinstance(arr, TokenColumn):
        used = _first_seen_order(arr.rows)[0]
        at = np.zeros(len(arr.offsets) - 1, dtype=np.int32)
        at[used] = np.arange(len(used), dtype=np.int32)
        objects, codes = list(map(arr.entry, used.tolist())), at[arr.rows]
    elif tag == _TAG_STR:
        try:
            col = CodedColumn.of(arr).first_seen()
            if set(map(type, col.dictionary)) <= {str}:
                return col.dictionary, col.codes
        except TypeError:  # an unhashable cell, such as a list
            pass
        # cast first: 1, True and 1.0 are equal keys but different text
        return _first_seen_codes([None if v is None else str(v)
                                  for v in arr.tolist()])
    else:
        cells = arr.tolist()
        objects, codes = _first_seen_codes(list(map(id, cells)))
        at = np.empty(len(objects), dtype=np.int64)
        at[codes] = np.arange(len(cells))  # a row holding each object
        objects = [None if v is None else v if type(v) is list else list(v)
                   for v in map(cells.__getitem__, at.tolist())]
    keys = [None if v is None else _dumps(v) for v in objects]
    texts, text_codes = _first_seen_codes(keys)
    row_of = dict(zip(keys, objects))  # equal text, equal content
    return [row_of[t] for t in texts], text_codes[codes]


def _decode_v2_column(col: dict, rows: int, path) -> np.ndarray:
    """One column of a version 2 file; a ValueError names the file and the
    column when the column is not one that ``Table.save`` writes."""
    name, tag = col.get("name"), col.get("dtype")
    where = f"{path}: column {name!r}"
    if tag in _WIRE_DTYPES:
        field, wire = "data", _WIRE_DTYPES[tag]
    elif tag in (_TAG_STR, _TAG_STR_LIST, _TAG_INT_LIST):
        field, wire = "codes", _CODES_DTYPE
    else:
        raise ValueError(f"{where} has unknown dtype {tag!r}")
    try:
        raw = base64.b64decode(col[field], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: bad {field}: {exc}") from None
    if len(raw) != rows * wire.itemsize:
        raise ValueError(f"{where} has {len(raw)} bytes of {field}, "
                         f"expected {rows} rows of {wire.itemsize}")
    values = np.frombuffer(raw, dtype=wire)
    if field == "data":
        return values.astype(_TAG_DTYPES[tag])
    dictionary = col.get("dictionary")
    if not isinstance(dictionary, list):
        raise ValueError(f"{where} has no dictionary")
    if rows and not -1 <= values.min() <= values.max() < len(dictionary):
        raise ValueError(f"{where} has codes outside "
                         f"[-1, {len(dictionary)})")
    if tag == _TAG_STR and set(map(type, dictionary)) <= {str}:
        return CodedColumn(dictionary, values)
    return object_column(dictionary + [None])[values]


def _csv_column(arr: np.ndarray) -> list[str]:
    """Quoted CSV text of every cell of one column. The entries of a coded
    column, and the two values of a bool one, are rendered and quoted once
    and gathered by codes."""
    if isinstance(arr, CodedColumn):
        entries, codes = list(map(str, arr.dictionary)), arr.codes
    elif isinstance(arr, TokenColumn):
        entries, codes = arr.entries(" ".join), arr.rows
    elif arr.dtype.kind == "b":
        entries, codes = ["False", "True"], arr.view(np.int8)
    else:
        return _csv_quoted(_csv_cells(arr))
    # code -1, a None cell, picks the empty field
    return object_column(_csv_quoted(entries) + [""])[codes].tolist()


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
    if isinstance(arr, CodedColumn):
        return arr.codes < 0
    if kind == "O" and not isinstance(arr, TokenColumn):  # no None cells
        cells = arr.tolist()
        try:
            # `in` tests identity before ==, so False means no None cell
            has_none = None in cells
        except (ValueError, TypeError):
            # a cell, such as an array, whose == has no truth value
            has_none = True
        if has_none:
            return np.asarray([v is None for v in cells], dtype=bool)
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
        # units in first-seen order: a row opens one where its seq_id is
        # None or first seen, i.e. its code exceeds every earlier code
        codes = CodedColumn.of(table["seq_id"]).first_seen().codes
        before = np.maximum.accumulate(np.concatenate(([-1], codes)))[:-1]
        opens = (codes < 0) | (codes > before)
        unit_of_row = np.cumsum(opens) - 1
        in_seq = codes >= 0
        unit_of_row[in_seq] = unit_of_row[opens & in_seq][codes[in_seq]]
        n_units = int(opens.sum())
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
