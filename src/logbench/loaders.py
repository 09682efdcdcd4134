"""Dataset loaders: raw text, HDFS, BGL-family supercomputer logs, Hadoop.

Each loader turns a text log into an event table (one row per event) and,
for datasets with a grouping key, a sequence table with labels. Lines that
do not match the expected field layout are treated as continuations of the
previous event's message (appended with a newline) when a previous event
exists in the same file, otherwise they are dropped; both cases are counted
in ``table.meta`` and reported through the module logger, so no input is
silently lost.

Every text column but the all-distinct time fields (``_PLAIN_FIELDS``) is
returned coded: each is a ``CodedColumn``, its distinct values in
first-seen order plus an int32 code per row. That keeps multi-gigabyte
datasets loadable, and table files, CSV export and validation read the
codes instead of coding the strings again. Where nearly every value
repeats one seen before, each is coded as it is read, in one dictionary
probe: a ``defaultdict(count().__next__)`` gives a new value the next code
on its first lookup. Raw lines are mostly distinct and are coded once
read, in ``CodedColumn.of``'s two passes.

HDFS messages all but never repeat, since each carries its block id, but
with that id's chunk cut out most do. ``load_hdfs`` keeps its message
column as those parts, coded (``CodedColumn.cut``): the key-free messages,
the key chunks and where each was cut. ``masking.normalize`` masks the
parts, and the text itself is rendered only when something reads it.
"""

from __future__ import annotations

import csv
import logging
import os
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import date as _date
from itertools import compress, count, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .tables import (CodedColumn, EventTable, SequenceTable,
                     _first_seen_codes, object_column)

logger = logging.getLogger("logbench.loaders")

FORMATS = ("raw", "hdfs", "bgl", "thunderbird", "spirit", "liberty", "hadoop")
SUPERCOMPUTER_FORMATS = ("bgl", "thunderbird", "spirit", "liberty")
# formats labelled per sequence: their events carry no label column
SEQUENCE_LABEL_FORMATS = ("hdfs", "hadoop")

_EPOCH_ORDINAL = _date(1970, 1, 1).toordinal()
# a message's first block id, and the rest of the space-delimited chunk
# that holds it
_BLOCK_RE = re.compile(r"(blk_-?\d+)[^ ]*")


@dataclass
class LoaderSpec:
    """Where a dataset lives and how to read it."""

    format: str
    log_path: Path
    label_path: Path | None = None

    def __post_init__(self):
        self.format = str(self.format).lower()
        self.log_path = Path(self.log_path)
        if self.label_path is not None:
            self.label_path = Path(self.label_path)
        if self.format not in FORMATS:
            raise ValueError(
                f"unknown format {self.format!r}, expected one of {FORMATS}")


def load(spec: LoaderSpec):
    """Dispatch on spec.format. Returns (events, sequences or None)."""
    if spec.format == "raw":
        return load_raw(spec.log_path), None
    if spec.format == "hdfs":
        return load_hdfs(spec.log_path, spec.label_path)
    if spec.format in SUPERCOMPUTER_FORMATS:
        return load_supercomputer(spec.log_path, spec.format), None
    if spec.format == "hadoop":
        if spec.label_path is None:
            raise ValueError("hadoop loading requires label_path")
        return load_hadoop(spec.log_path, spec.label_path)
    raise ValueError(f"unknown format {spec.format!r}")


def _to_timestamps(epoch_us: list) -> np.ndarray:
    return (np.asarray(epoch_us, dtype=np.int64)
            .view(np.dtype("datetime64[us]")))


def _warn_counts(name: str, meta: dict) -> None:
    issues = {k: v for k, v in meta.items()
              if k.startswith(("dropped", "merged", "rows_without",
                               "sequences_unlabeled")) and v}
    if issues:
        logger.warning("%s: %s", name, issues)


# ---------------------------------------------------------------------------
# raw text


def load_raw(path) -> EventTable:
    """Load an unstructured text file: one line, one event.

    There is no timestamp in the data, so every row is stamped with the
    file's modification time (a single stamp for the whole table), which
    keeps repeated loads of one file identical. Nothing is dropped; empty
    lines become empty messages. Raw lines are mostly distinct, so they are
    coded once read, in ``CodedColumn.of``'s two passes.
    """
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as f:
        messages = [line.rstrip("\n") for line in f]
    mtime_us = os.stat(path).st_mtime_ns // 1000
    ts = np.full(len(messages), mtime_us, dtype=np.int64) \
        .view(np.dtype("datetime64[us]"))
    meta = {"source": str(path), "lines_read": len(messages),
            "dropped_lines": 0, "merged_continuations": 0}
    return EventTable({"m_message": CodedColumn.of(messages),
                       "m_timestamp": ts}, meta=meta)


# ---------------------------------------------------------------------------
# HDFS


# characters read at a time: a block's split fields are freed before the
# next block is read, which bounds the loader's transient memory
_HDFS_BLOCK_CHARS = 1 << 20


def _hdfs_day(datestr: str) -> int:
    """Days since epoch of a yymmdd field, -1 unless it is six decimal
    digits of a valid date."""
    if len(datestr) != 6 or not datestr.isdecimal():
        return -1
    try:
        return _date(2000 + int(datestr[0:2]), int(datestr[2:4]),
                     int(datestr[4:6])).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return -1


def _hdfs_seconds(times) -> np.ndarray:
    """Seconds into the day of each HHMMSS field, -1 unless it is six
    decimal digits of a valid time.

    Fields of six ASCII digits are read from the code points of a ``U6``
    array, which truncates longer fields (``six`` rules them out); any
    other six-character field takes the exact per-field check.
    """
    n = len(times)
    six = np.fromiter(map(len, times), np.int64, n) == 6
    digits = (np.array(times, dtype="U6").view(np.uint32).reshape(n, 6)
              - ord("0")).astype(np.int64)
    ascii_digits = (digits >= 0).all(axis=1) & (digits <= 9).all(axis=1)
    decimal = six & ascii_digits
    for i in np.flatnonzero(six & ~ascii_digits).tolist():
        if times[i].isdecimal():
            digits[i] = [int(c) for c in times[i]]
            decimal[i] = True
    hms = digits[:, 0::2] * 10 + digits[:, 1::2]
    ok = decimal & (hms[:, 0] <= 23) & (hms[:, 1] <= 59) & (hms[:, 2] <= 59)
    return np.where(ok, hms @ np.array([3600, 60, 1]), -1)


class _HdfsColumns:
    """The accepted rows of an HDFS log, filled one block of lines at a
    time, and the dropped and merged line counts.

    A row's message is kept as the chunk that holds its first block id (its
    key), coded, and the rest of the message with that chunk cut out, coded
    too, plus where it was cut. A message without a block id, or one that
    continuation lines were merged into, is kept whole, cut -1; the key of
    its first line still gives its sequence.
    """

    def __init__(self):
        self.free_of = defaultdict(count().__next__)
        self.chunk_of = defaultdict(count().__next__)
        # of the accepted rows: key-free message, key chunk and cut codes
        self.free: list[int] = []
        self.chunks: list[int] = []
        self.cuts: list[int] = []
        self.last = ""  # the full message of the last row
        self.epochs = [np.zeros(0, dtype=np.int64)]
        self.pids = [np.zeros(0, dtype=np.int64)]
        # a line's (date, level, component) is one key; key_days holds
        # each key's day, -1 for a bad date or a component without ":"
        self.key_of = defaultdict(count().__next__)
        self.key_days: list[int] = []
        self.keys = [np.zeros(0, dtype=np.int32)]  # of the accepted rows
        self.lines_read = self.dropped = self.merged = 0

    def add_block(self, lines: list[str]) -> None:
        self.lines_read += len(lines)
        parts = [line.split(" ", 5) for line in lines]
        rows = np.flatnonzero(
            np.fromiter(map(len, parts), np.int64, len(parts)) == 6)
        if len(rows) < len(parts):
            parts = [parts[i] for i in rows.tolist()]
        dates, times, pids, levels, comps, msgs = \
            zip(*parts) if parts else [()] * 6

        sec = _hdfs_seconds(times)
        ok = (sec >= 0) & np.fromiter(map(str.isdecimal, pids), bool,
                                      len(pids))
        # a key stays for the whole load, so only lines whose time and pid
        # pass are keyed; the rest keep code -1, whose day is -1
        keys = np.full(len(ok), -1, dtype=np.int32)
        keys[ok] = np.fromiter(map(self.key_of.__getitem__, compress(
            zip(dates, levels, comps), ok)), np.int32, int(ok.sum()))
        # the keys this block added, newest first, not a scan of them all
        added = islice(reversed(self.key_of),
                       len(self.key_of) - len(self.key_days))
        self.key_days += [_hdfs_day(date) if comp.endswith(":") else -1
                          for date, _, comp in added][::-1]
        day = np.array(self.key_days + [-1], np.int64)[keys]
        keep = np.flatnonzero(day >= 0)
        if len(keep) < len(ok):
            kept = keep.tolist()
            msgs = [msgs[i] for i in kept]
            pids = [pids[i] for i in kept]
        first_row = len(self.free)
        self._cut(msgs)
        self.epochs.append(((day * 86400 + sec) * 1_000_000)[keep])
        self.pids.append(np.fromiter(map(int, pids), np.int64, len(pids)))
        self.keys.append(keys[keep])

        accepted = np.zeros(len(lines), dtype=bool)
        accepted[rows[keep]] = True
        rejected = np.flatnonzero(~accepted)
        # each rejected line continues the last row accepted before it,
        # which may be the last row of an earlier block
        targets = first_row - 1 + np.cumsum(accepted)[rejected]
        merged: dict[int, str] = {}
        for i, row in zip(rejected.tolist(), targets.tolist()):
            if row < 0:
                self.dropped += 1
                continue
            text = merged.get(row) or (
                self.last if row < first_row else msgs[row - first_row])
            merged[row] = text + "\n" + lines[i]
            self.merged += 1
        for row, text in merged.items():
            self.free[row], self.cuts[row] = self.free_of[text], -1
        self.last = merged.get(len(self.free) - 1,
                               msgs[-1] if msgs else self.last)

    def _cut(self, msgs) -> None:
        """Add the rows of these messages, each cut at its key chunk."""
        free_of, chunk_of = self.free_of, self.chunk_of
        free, chunks, cuts = self.free.append, self.chunks.append, \
            self.cuts.append
        for m, hit in zip(msgs, map(_BLOCK_RE.search, msgs)):
            if hit is None:
                free(free_of[m])
                chunks(-1)
                cuts(-1)
                continue
            start, end = hit.span()
            at = m.rfind(" ", 0, start) + 1
            free(free_of[m[:at] + m[end:]])
            chunks(chunk_of[m[at:end]])
            cuts(at)


def load_hdfs(log_path, label_path=None):
    """Load an HDFS log and its block labels.

    Expected line layout::

        <yymmdd> <HHMMSS> <pid> <LEVEL> <component>: <message>

    A line is an event when it splits into those six fields, the date,
    time and pid are decimal digits (``str.isdecimal``: any script, but no
    superscripts), the date and time are valid and the component ends with
    ``:``. Any other line continues the previous event's message, or is
    dropped when no event came before it; both are counted. Acceptance
    depends on the line alone, so the file is read in blocks of lines and
    each field is checked and converted a column at a time.

    The sequence id of an event is the first ``blk_`` block id found in the
    message; lines without one keep seq_id None and are counted. Returns
    (events, sequences) where the sequence table carries one row per distinct
    block in first-seen order with its label from the label file (blocks
    missing from the label file count as normal, with a warning).

    The block id's chunk is cut out of each message as it is read, so
    ``m_message`` is a ``CodedColumn.cut`` of far fewer distinct key-free
    messages: ``masking.normalize`` masks those, and the text renders only
    when it is read.
    """
    cols = _HdfsColumns()
    with open(log_path, "r", encoding="utf-8", errors="replace",
              newline="\n") as f:
        tail: list[str] = []  # the pieces of a line not yet ended
        for chunk in iter(lambda: f.read(_HDFS_BLOCK_CHARS), ""):
            lines = chunk.split("\n")
            if len(lines) == 1:
                tail.append(chunk)
                continue
            tail.append(lines[0])
            lines[0] = "".join(tail)
            tail = [lines.pop()]
            cols.add_block(lines)
        if "".join(tail):
            cols.add_block(["".join(tail)])

    # a key chunk's first block id is its row's: none comes before it
    chunk_texts, chunks = list(cols.chunk_of), np.array(cols.chunks, np.int32)
    seq_ids, seq_of = _first_seen_codes(
        [_BLOCK_RE.search(c)[1] for c in chunk_texts])
    seq_codes = np.append(seq_of, -1)[chunks]
    cuts = np.array(cols.cuts, np.int32)
    message = CodedColumn.cut(
        CodedColumn(list(cols.free_of), cols.free),
        CodedColumn(chunk_texts, np.where(cuts < 0, -1, chunks)), cuts)
    # the keys may hold values only rejected lines hold, and stand out of
    # first-seen order: ``CodedColumn.first_seen`` drops and reorders
    keys = np.concatenate(cols.keys)
    levels, level_codes = _first_seen_codes([k[1] for k in cols.key_of])
    comps, comp_codes = _first_seen_codes([k[2][:-1] for k in cols.key_of])
    no_seq = int((seq_codes < 0).sum())
    meta = {"source": str(log_path), "lines_read": cols.lines_read,
            "dropped_lines": cols.dropped,
            "merged_continuations": cols.merged,
            "rows_without_seq_id": no_seq}
    events = EventTable({
        "seq_id": CodedColumn(seq_ids, seq_codes),
        "m_message": message,
        "m_timestamp": _to_timestamps(np.concatenate(cols.epochs)),
        "pid": np.concatenate(cols.pids),
        "level": CodedColumn(levels, level_codes[keys]).first_seen(),
        "component": CodedColumn(comps, comp_codes[keys]).first_seen(),
    }, meta=meta)

    labels = read_hdfs_labels(label_path) if label_path is not None else {}
    unlabeled = sum(1 for sid in seq_ids if sid not in labels) \
        if label_path is not None else 0
    seq_meta = {"source": str(log_path), "sequences_unlabeled": unlabeled}
    sequences = SequenceTable({
        "seq_id": CodedColumn(seq_ids, np.arange(len(seq_ids))),
        "label": np.asarray([labels.get(s, False) for s in seq_ids],
                            dtype=bool),
        "seq_len": np.bincount(seq_codes[seq_codes >= 0],
                               minlength=len(seq_ids)).astype(np.int64),
    }, meta=seq_meta)
    events.meta["sequences"] = len(seq_ids)
    _warn_counts("hdfs", {**events.meta, **seq_meta})
    return events, sequences


def _label_rows(path, header: str):
    """(line number, key, raw label) of each non-empty row of a two-field
    csv whose first line is ``header`` (case-insensitive)."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first[:2]] != \
                header.lower().split(","):
            raise ValueError(f"{path}: expected header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{header}, got {','.join(row)!r}")
            yield reader.line_num, row[0].strip(), row[1]


def read_hdfs_labels(path) -> dict[str, bool]:
    """Read a ``BlockId,Label`` csv; Label is Normal or Anomaly."""
    labels: dict[str, bool] = {}
    for line, block, label in _label_rows(path, "BlockId,Label"):
        value = label.strip().lower()
        if value not in ("anomaly", "normal"):
            raise ValueError(f"{path}:{line}: label must be "
                             f"Normal or Anomaly, got {label!r}")
        labels[block] = value == "anomaly"
    return labels


# ---------------------------------------------------------------------------
# BGL / Thunderbird / Spirit / Liberty


# every space-delimited field of a line: the second is the epoch, the last
# the message, and one all but distinct time field stays plain text
_SUPERCOMPUTER_FIELDS = {
    "bgl": ("alert_tag", "epoch", "date", "node", "time_full",
            "node_repeat", "type", "component", "level", "m_message"),
    "tbird": ("alert_tag", "epoch", "date", "admin", "month", "day", "time",
              "location", "m_message"),
}
_PLAIN_FIELDS = ("time_full", "time")


def load_supercomputer(log_path, format: str) -> EventTable:
    """Load one of the space-delimited supercomputer logs.

    ``bgl`` lines carry ten fields::

        <alert> <epoch> <date> <node> <datetime> <node> <type> <component>
        <level> <message>

    ``thunderbird``, ``spirit`` and ``liberty`` share a nine-field layout::

        <alert> <epoch> <date> <admin> <month> <day> <time> <location>
        <message>

    An alert tag of ``-`` means normal; anything else labels the event as an
    anomaly. Timestamps come from the epoch field.

    Each line's few-valued fields are coded together: the tuple of them is
    one dictionary key, so a line costs one lookup, and each column's
    dictionary and codes come from the distinct tuples afterwards. The
    message is coded as read too; a continuation line makes the merged
    text a message of its own.
    """
    if format not in SUPERCOMPUTER_FORMATS:
        raise ValueError(f"format must be one of {SUPERCOMPUTER_FORMATS}")
    fields = _SUPERCOMPUTER_FIELDS["bgl" if format == "bgl" else "tbird"]
    n_fields = len(fields)
    plain = next(i for i, f in enumerate(fields) if f in _PLAIN_FIELDS)
    coded = [i for i in range(n_fields - 1) if i not in (1, plain)]
    key_of = itemgetter(*coded)
    code_of = defaultdict(count().__next__)
    message_of = defaultdict(count().__next__)
    combos, epochs, times, messages = [], [], [], []
    last = ""  # the message of the last event
    dropped = merged = 0
    lines_read = 0
    with open(log_path, "r", encoding="utf-8", errors="replace",
              newline="\n") as f:
        for line in f:
            lines_read += 1
            p = line.rstrip("\n").split(" ", n_fields - 1)
            if len(p) == n_fields:
                try:
                    epoch = int(p[1]) * 1_000_000
                except ValueError:
                    pass
                else:
                    combos.append(code_of[key_of(p)])
                    last = p[-1]
                    messages.append(message_of[last])
                    epochs.append(epoch)
                    times.append(p[plain])
                    continue
            if messages:
                last = last + "\n" + line.rstrip("\n")
                messages[-1] = message_of[last]
                merged += 1
            else:
                dropped += 1

    meta = {"source": str(log_path), "lines_read": lines_read,
            "dropped_lines": dropped, "merged_continuations": merged}
    combos = np.fromiter(combos, np.int32, len(combos))
    # a merge can leave a message no row holds
    columns = {fields[plain]: object_column(times),
               "m_message": CodedColumn(list(message_of), np.fromiter(
                   messages, np.int32, len(messages))).first_seen()}
    for j, i in enumerate(coded):
        # the tuples are in first-seen order, so each field's values are too
        dictionary, codes = _first_seen_codes([key[j] for key in code_of])
        columns[fields[i]] = CodedColumn(dictionary, codes[combos])
    alerts = columns["alert_tag"]
    table = EventTable({
        "label": np.asarray([a != "-" for a in alerts.dictionary],
                            dtype=bool)[alerts.codes],
        "alert_tag": alerts,
        "m_timestamp": _to_timestamps(epochs),
        **{name: columns[name] for name in fields[2:]},
    }, meta=meta)
    _warn_counts(format, meta)
    return table


# ---------------------------------------------------------------------------
# Hadoop


_HADOOP_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_HADOOP_TIME_RE = re.compile(r"^\d{2}:\d{2}:\d{2},\d{3}$")


def _hadoop_epoch_us(datestr: str, timestr: str, cache: dict):
    day = cache.get(datestr)
    if day is None:
        try:
            day = _date(int(datestr[0:4]), int(datestr[5:7]),
                        int(datestr[8:10])).toordinal() - _EPOCH_ORDINAL
        except ValueError:
            return None
        cache[datestr] = day
    h = int(timestr[0:2])
    m = int(timestr[3:5])
    s = int(timestr[6:8])
    ms = int(timestr[9:12])
    if h > 23 or m > 59 or s > 59:
        return None
    return (day * 86400 + h * 3600 + m * 60 + s) * 1_000_000 + ms * 1000


def read_app_labels(path) -> dict[str, bool]:
    """Read an ``application,label`` csv.

    A label of Normal (case-insensitive) is normal; any other non-empty
    value (for instance a failure type) marks the application anomalous.
    """
    labels: dict[str, bool] = {}
    for line, app, label in _label_rows(path, "application,label"):
        if not label.strip():
            raise ValueError(f"{path}:{line}: empty label for {app!r}")
        labels[app] = label.strip().lower() != "normal"
    return labels


def load_hadoop(root_dir, app_labels):
    """Load a tree of per-application Hadoop logs.

    ``root_dir`` contains one directory per application run; every regular
    file inside (any depth) is a container log. Files are read one after
    another in sorted (application, file path) order. ``app_labels`` is
    either a dict or the path of an ``application,label`` csv. Returns
    (events, sequences) with the application name as seq_id. Layout per
    event line::

        YYYY-MM-DD HH:MM:SS,mmm LEVEL class: message

    Anything else continues the previous event in the same file, or is
    dropped when none came before it there; both are counted. The level
    and the class (``component``) are coded as they are read, as
    ``load_supercomputer`` codes its fields, and the message once its event
    ends, so no part of a multi-line message is kept as an entry.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise NotADirectoryError(f"{root}: hadoop loader expects a directory")
    labels = app_labels if isinstance(app_labels, dict) \
        else read_app_labels(app_labels)

    apps = sorted(d.name for d in root.iterdir() if d.is_dir())
    if not apps:
        logger.warning("hadoop: no application directories under %s", root)
    level_of, comp_of, message_of = (defaultdict(count().__next__)
                                     for _ in range(3))
    seqs, epochs, levels, comps, messages = [], [], [], [], []
    dropped = merged = lines_read = 0
    days: dict = {}
    for seq, app in enumerate(apps):
        for path in sorted(filter(Path.is_file, (root / app).rglob("*"))):
            last = None  # the message of the file's open event
            with open(path, "r", encoding="utf-8", errors="replace",
                      newline="\n") as f:
                for line in f:
                    lines_read += 1
                    line = line.rstrip("\n")
                    p = line.split(" ", 4)
                    epoch = None
                    if (len(p) >= 4 and _HADOOP_DATE_RE.match(p[0])
                            and _HADOOP_TIME_RE.match(p[1])
                            and p[3].endswith(":")):
                        epoch = _hadoop_epoch_us(p[0], p[1], days)
                    if epoch is None:
                        if last is None:
                            dropped += 1
                        else:
                            last = last + "\n" + line
                            merged += 1
                        continue
                    if last is not None:
                        messages.append(message_of[last])
                    last = p[4] if len(p) == 5 else ""
                    seqs.append(seq)
                    epochs.append(epoch)
                    levels.append(level_of[p[2]])
                    comps.append(comp_of[p[3][:-1]])
            if last is not None:
                messages.append(message_of[last])

    meta = {"source": str(root), "lines_read": lines_read,
            "dropped_lines": dropped, "merged_continuations": merged,
            "sequences": len(apps)}
    seq_codes = np.fromiter(seqs, np.int32, len(seqs))
    # an application without events leaves an entry no row holds:
    # ``first_seen`` drops it
    events = EventTable({
        "seq_id": CodedColumn(apps, seq_codes).first_seen(),
        "m_message": CodedColumn(list(message_of), messages),
        "m_timestamp": _to_timestamps(epochs),
        "level": CodedColumn(list(level_of), levels),
        "component": CodedColumn(list(comp_of), comps),
    }, meta=meta)

    unlabeled = sum(1 for a in apps if a not in labels)
    seq_meta = {"source": str(root), "sequences_unlabeled": unlabeled}
    sequences = SequenceTable({
        "seq_id": CodedColumn(apps, np.arange(len(apps))),
        "label": np.asarray([labels.get(a, False) for a in apps], dtype=bool),
        "seq_len": np.bincount(seq_codes, minlength=len(apps)),
    }, meta=seq_meta)
    _warn_counts("hadoop", {**meta, **seq_meta})
    return events, sequences
