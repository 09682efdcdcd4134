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
_CSV_BLOCK = 2048  # rows per write of Table.write_csv; more raise its peak


def object_column(values: Sequence) -> np.ndarray:
    """1-d object array holding ``values`` as they are (lists stay lists)."""
    return np.fromiter(values, dtype=object, count=len(values))


class TokenColumn:
    """A column of token lists held as codes over one dictionary: entry
    ``e`` is ``tokens[c]`` for ``c`` in ``codes[offsets[e]:offsets[e + 1]]``
    and row ``i`` holds entry ``rows[i]`` (rows with equal messages share
    one). ``col[i]`` is a new list of tokens: str for words, int for event
    ids; ``col[indices]`` gathers rows over the same codes. Tables treat it
    as an object column of lists.
    """

    dtype = np.dtype(object)

    def __init__(self, tokens: list, codes, offsets, rows):
        self.tokens = tokens
        self.codes = _freeze(np.asarray(codes))
        self.offsets = _freeze(np.asarray(offsets, dtype=np.int64))
        self.rows = _freeze(np.asarray(rows))

    @classmethod
    def of(cls, lists) -> "TokenColumn":
        """A token column as it is; a 1-d int array as one entry per
        distinct id, in id order, holding that id alone (a Python int); or
        token lists coded, an entry each."""
        if isinstance(lists, TokenColumn):
            return lists
        if isinstance(lists, np.ndarray) and lists.dtype.kind in "iu" \
                and lists.ndim == 1:
            ids, rows = np.unique(lists, return_inverse=True)
            return cls(ids.tolist(), np.arange(len(ids), dtype=np.int32),
                       np.arange(len(ids) + 1), rows)
        lists = list(lists)
        flat = list(chain.from_iterable(lists))
        tokens, codes = _first_seen_codes(flat)
        if not set(map(type, tokens)) <= {str} \
                and len(set(map(type, flat))) > 1:
            # 1, True and 1.0 are equal keys: code by type and value
            keys, codes = _first_seen_codes(list(zip(map(type, flat), flat)))
            tokens = [token for _, token in keys]
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
        """Entry ``e``'s tokens as a new list."""
        return list(map(self.tokens.__getitem__, self.codes[
            self.offsets[e]:self.offsets[e + 1]].tolist()))

    def __iter__(self):
        return iter(self.tolist())

    def entries(self) -> list:
        """Every entry's token list."""
        words = object_column(self.tokens)[self.codes].tolist()
        bounds = self.offsets.tolist()
        return [words[a:b] for a, b in zip(bounds, bounds[1:])]

    def tolist(self) -> list:
        """Every row's token list, shared (read-only) by an entry's rows."""
        return list(map(self.entries().__getitem__, self.rows.tolist()))

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The codes of all rows in row order, and each row's length. What
        it builds on the way, one item per row or per code, is int32 while
        the entries' codes and all rows' codes are fewer than 2**31."""
        entry_lengths = np.diff(self.offsets)
        if (entry_lengths == 1)[self.rows].all():
            # one code per row: it is the code its entry opens with
            return (self.codes[self.offsets[self.rows]],
                    np.ones(len(self.rows), dtype=np.int64))
        kind = np.int32 if len(self.codes) < 2**31 else np.int64
        lengths = entry_lengths.astype(kind)[self.rows]
        total = int(lengths.sum(dtype=np.int64))
        if total >= 2**31:
            kind = np.int64
        # place k of row j's run reads codes[starts[j] + k]: its place i
        # among all rows' codes plus the run's shift, starts[j] minus the
        # place the run opens at
        shift = self.offsets.astype(kind)[self.rows]
        shift += lengths
        shift -= np.cumsum(lengths, dtype=kind)
        index = np.repeat(shift, lengths)
        del shift
        index += np.arange(total, dtype=kind)
        codes = self.codes[index]
        del index
        return codes, lengths.astype(np.int64)

    def concat(self, counts) -> "TokenColumn":
        """One row per run of ``counts[g]`` rows, joining their tokens."""
        codes, lengths = self.flat()
        ends = np.cumsum(lengths, out=lengths)  # where each row's run ends
        last = np.cumsum(counts) - 1  # each joined row's last row, or -1
        offsets = np.zeros(len(last) + 1, dtype=np.int64)
        offsets[1:][last >= 0] = ends[last[last >= 0]]
        return TokenColumn(self.tokens, codes, offsets,
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
    never builds the strings; it must be in first-seen order of the codes,
    with no unused entry. ``tokens`` is the column's ``TokenColumn``, whose
    rows are ``codes`` itself, when the code that built the column kept
    what it takes (``code_tokens``: one compact entry per dictionary entry,
    coded on first read), else None.

    ``parts`` is None, or, for a column that ``cut`` built, the parts its
    cells were cut into; a gather drops them.
    """

    dtype = np.dtype(object)
    parts = None

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

    @classmethod
    def cut(cls, free: "CodedColumn", keys: "CodedColumn", at
            ) -> "CodedColumn":
        """The column whose row ``i`` is ``free[i]`` with ``keys[i]`` put
        back at offset ``at[i]``, or ``free[i]`` alone where ``at[i]`` and
        the key's code are -1: a text column kept as the key chunks cut out
        of its cells and what is left of them. Equal cells must have equal
        parts, as when each cell is cut where its own text says. The codes
        come from those of the parts, and the dictionary renders on first
        read. ``parts`` is ``(free, keys, at, pairs, pair_first)``:
        ``pairs`` is the first-seen code of each row's (free code, at) pair
        and ``pair_first`` the row where each pair first appears."""
        at = np.asarray(at, dtype=np.int32)
        # neither packing can overflow an int64: no factor exceeds 2**31 + 1
        pairs, pair_first = _first_seen(free.codes.astype(np.int64)
                                        * (int(at.max(initial=-1)) + 2)
                                        + at + 1)
        codes, first = _first_seen(
            pairs.astype(np.int64) * (len(keys.dictionary) + 1)
            + keys.codes + 1)
        column = cls(lambda: _uncut(free, keys, at, first), codes)
        column.parts = (free, keys, _freeze(at), _freeze(pairs),
                        _freeze(pair_first))
        return column

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
        ``masking.normalize`` builds it, else re-coded in numpy. A
        dictionary not yet rendered is, and stays unrendered."""
        if "dictionary" not in self.__dict__:
            return self
        codes, size = self.codes, len(self.dictionary)
        # in first-seen order every code is at most one above the highest
        # code before it, and the highest of all is the last entry
        top = np.maximum.accumulate(np.concatenate(([-1], codes)))
        if top[-1] == size - 1 and (codes <= top[:-1] + 1).all():
            return self
        recoded, first = _first_seen(codes)
        return CodedColumn(list(map(self.dictionary.__getitem__,
                                    codes[first].tolist())), recoded)


def _uncut(free: CodedColumn, keys: CodedColumn, at: np.ndarray,
           rows: np.ndarray) -> list[str]:
    """The cells at ``rows`` of ``CodedColumn.cut(free, keys, at)``."""
    cells, chunks = free.dictionary, keys.dictionary
    return [cells[f] if a < 0 else cells[f][:a] + chunks[k] + cells[f][a:]
            for f, k, a in zip(free.codes[rows].tolist(),
                               keys.codes[rows].tolist(), at[rows].tolist())]


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
        Each column is rendered once; a block of rows is one join and write.
        """
        ends = [","] * (len(self._columns) - 1) + ["\r\n"]
        empty = '""' if len(ends) == 1 else ""  # a lone empty field is quoted
        # a row's pieces: each column's cell, then its end unless the cell
        # carries it; the ends are set once, the cells block by block
        cols, flat = [], []
        for arr, end in zip(self._columns.values(), ends):
            cells, end = _csv_field(arr, end, empty)
            cols.append((len(flat), cells))
            flat += [None] if end is None else [None, end]
        stride, n = len(flat), self._n
        flat *= min(n, _CSV_BLOCK)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(",".join(_csv_quoted(self.column_names, empty)) + "\r\n")
            for a in range(0, n, _CSV_BLOCK):
                del flat[stride * (n - a):]  # the last block may be short
                for at, cells in cols:
                    flat[at::stride] = cells[a:a + _CSV_BLOCK]
                f.write("".join(flat))


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's int32 index among the distinct non-negative values of
    an int array, in first-seen order, or -1 for a negative value; and the
    index where each distinct value first appears.

    Values from -1 up to a few times their count take their first places
    from one dense table (``np.minimum.at`` over an ``arange``, about 5 ns
    and 4 bytes per value), and only the distinct ones are sorted. Wider
    values, such as packed keys, are ranked first by one ``np.unique``, a
    sort of them all (about 60 ns and 43 bytes per value)."""
    n = len(values)
    top = int(values.max(initial=-1)) + 1
    if top > 4 * n or values.min(initial=0) < -1:
        ranks, values = np.unique(values, return_inverse=True)
        negative = int(np.searchsorted(ranks, 0))
        values -= negative  # ranks of the non-negative values from 0
        np.maximum(values, -1, out=values)
        top = len(ranks) - negative
    # the table and the places share one dtype, minimum.at's fast path
    kind = np.int32 if n < 2**31 else np.int64
    first = np.full(top + 1, n, dtype=kind)  # [-1] takes the negatives
    np.minimum.at(first, values, np.arange(n, dtype=kind))
    first = first[:top]
    first = np.sort(first[first < n])
    recode = np.full(top + 1, -1, dtype=np.int32)  # [-1] stays -1
    recode[values[first]] = np.arange(len(first), dtype=np.int32)
    return recode[values], first


def _first_seen_codes(cells: list) -> tuple[list, np.ndarray]:
    """Distinct non-None cells in first-seen order, and each cell's int32
    index into them; -1 for None. Cells must be hashable. Two passes suit
    mostly distinct cells, and when all are the codes are a range; the
    loaders' ``defaultdict(count().__next__)`` pays a ``__missing__`` call
    per new cell (13.5 against 5.5 ms on 100k distinct short strings)."""
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
        codes, first = _first_seen(arr.rows)
        objects = list(map(arr.entry, arr.rows[first].tolist()))
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


def _csv_field(arr: np.ndarray, end: str, empty: str):
    """Quoted CSV text of each cell of one column (empty ones as ``empty``)
    and the piece written after it: ``end``, or None where the cell ends with
    it. Entries of a coded or token column, a bool column's two values and an
    int column's distinct values are rendered once, then gathered by codes."""
    if isinstance(arr, CodedColumn):
        entries, codes = list(map(str, arr.dictionary)), arr.codes
    elif isinstance(arr, TokenColumn):
        entries, codes = _csv_cells(object_column(arr.entries())), arr.rows
    elif arr.dtype.kind == "b":
        entries, codes = ["False", "True"], arr.view(np.int8)
    elif arr.dtype.kind == "i":
        values, codes = np.unique(arr, return_inverse=True)
        entries = list(map(str, values.tolist()))
    else:
        return _csv_quoted(_csv_cells(arr), empty), end
    # code -1, a None cell, picks the empty field
    entries = [c + end for c in _csv_quoted(entries + [""], empty)]
    return object_column(entries)[codes].tolist(), None


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


def _csv_quoted(cells: list[str], empty: str = "") -> list[str]:
    """csv QUOTE_MINIMAL: quote, doubling ``"``, cells with , " \\r or \\n;
    an empty cell becomes ``empty``."""
    text = "".join(cells)
    if not empty and not any(c in text for c in _CSV_QUOTE_CHARS):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _CSV_QUOTE_RE.search(c)
            else c or empty for c in cells]


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

    ``warnings`` names each problem once: the missing columns, then the
    null cells. The report is valid exactly when it names none.
    """

    def __init__(self, missing_columns: list[str], null_cells: list[tuple]):
        self.missing_columns = list(missing_columns)
        self.null_cells = list(null_cells)
        self.warnings = []
        if self.missing_columns:
            self.warnings.append(
                "missing columns: " + ", ".join(self.missing_columns))
        if self.null_cells:
            self.warnings.append(f"null cells: {len(self.null_cells)}")

    @property
    def is_valid(self) -> bool:
        return not self.warnings

    def __repr__(self) -> str:
        state = "valid" if self.is_valid else "invalid"
        return (f"ValidationReport({state}, missing={self.missing_columns}, "
                f"nulls={len(self.null_cells)}, warnings={len(self.warnings)})")

    def summary(self) -> str:
        return "\n".join(self.warnings) if self.warnings \
            else "table is valid"


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
    return ValidationReport(missing, nulls)


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
