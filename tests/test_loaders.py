import hashlib
import os
import re
import tracemalloc
from datetime import date

import numpy as np
import pytest

from logbench import loaders
from logbench.loaders import (LoaderSpec, load, load_hadoop, load_hdfs,
                              load_raw, load_supercomputer, read_app_labels,
                              read_hdfs_labels)
from logbench.synth import generate_synthetic
from logbench.tables import (CodedColumn, EventTable, SequenceTable,
                             object_column, validate_event_table)


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        LoaderSpec("nosuch", tmp_path / "x.log")
    spec = LoaderSpec("HDFS", "a.log", "b.csv")
    assert spec.format == "hdfs"


def test_load_raw(tmp_path):
    p = tmp_path / "notes.log"
    p.write_text("first line\n\nthird line\n")
    t = load_raw(p)
    assert list(t["m_message"]) == ["first line", "", "third line"]
    assert t["m_timestamp"].dtype == np.dtype("datetime64[us]")
    # one shared stamp, taken from the file
    assert len(set(t["m_timestamp"].tolist())) == 1
    assert t.meta["dropped_lines"] == 0
    events, seqs = load(LoaderSpec("raw", p))
    assert seqs is None
    assert len(events) == 3


def test_load_raw_is_deterministic(tmp_path):
    p = tmp_path / "notes.log"
    p.write_text("first line\nsecond line\n")
    a, b = load_raw(p), load_raw(p)
    assert list(a["m_message"]) == list(b["m_message"])
    assert np.array_equal(a["m_timestamp"], b["m_timestamp"])
    assert a.meta == b.meta
    mtime_us = os.stat(p).st_mtime_ns // 1000
    assert a["m_timestamp"][0] == np.datetime64(mtime_us, "us")


def _digests(tmp_path, tables):
    """sha256 of each table's saved file and CSV, by name."""
    out = {}
    for name, table in tables.items():
        for ext, write in ((".table.json", table.save),
                           (".csv", table.write_csv)):
            write(tmp_path / f"{name}{ext}")
            out[name + ext] = hashlib.sha256(
                (tmp_path / f"{name}{ext}").read_bytes()).hexdigest()
    return out


def test_raw_bytes_are_pinned(tmp_path):
    # repeated and empty lines, a cell csv quotes, a tab, non-ASCII text
    # and no final newline; the stamp is the file's, so it is set
    p = tmp_path / "notes.log"
    p.write_text("alpha 1\n\nbeta, \"quoted\"\nalpha 1\n\n\ngamma\tx "
                 "\u00fcn\u00efcode\nalpha 1\nlast line, no newline",
                 encoding="utf-8")
    os.utime(p, ns=(1_445_087_491_445_000_000,) * 2)
    events = load_raw(p)
    assert isinstance(events["m_message"], CodedColumn)
    assert events.meta == {"source": str(p), "lines_read": 9,
                           "dropped_lines": 0, "merged_continuations": 0}
    assert _digests(tmp_path, {"events": events}) == {
        "events.table.json":
            "ecafd5e0fea5a753b97cdce66bbb29270374a745155b59363311d047aad7eb48",
        "events.csv":
            "ff5ad3304e7c13e7c5dcac5847b61e28a25895287f3db2dd4f7898d6ba8edf16",
    }


# ---------------------------------------------------------------------------
# HDFS


def test_hdfs_fixture(data_dir):
    events, sequences = load_hdfs(data_dir / "hdfs_sample.log",
                                  data_dir / "hdfs_sample_labels.csv")
    assert len(events) == 14
    assert events.meta["lines_read"] == 16
    assert events.meta["merged_continuations"] == 2
    assert events.meta["dropped_lines"] == 0
    assert events.meta["rows_without_seq_id"] == 1

    assert events["m_timestamp"][0] == np.datetime64("2008-11-09T20:36:15")
    assert events["pid"][0] == 148
    assert events["level"][0] == "INFO"
    assert events["component"][0] == "dfs.DataNode$PacketResponder"
    assert events["seq_id"][0] == "blk_38865049064139660"
    assert events["seq_id"][13] is None

    # both bad lines were folded into the allocateBlock event
    merged_msg = events["m_message"][6]
    assert merged_msg.count("\n") == 2
    assert "java.io.IOException" in merged_msg
    assert merged_msg.endswith("readFully(DataInputStream.java:178)")
    assert events["seq_id"][6] == "blk_-7017553867379051457"

    assert isinstance(sequences, SequenceTable)
    assert len(sequences) == 10
    assert sequences["seq_id"][0] == "blk_38865049064139660"
    counts = dict(zip(sequences["seq_id"], sequences["seq_len"]))
    assert counts["blk_38865049064139660"] == 2
    assert counts["blk_3050920587428079149"] == 3
    labels = dict(zip(sequences["seq_id"], sequences["label"]))
    assert labels["blk_-6952295868487656571"]
    assert labels["blk_8229193803249955061"]
    assert not labels["blk_38865049064139660"]
    # blocks absent from the label file default to normal
    assert not labels["blk_5792489080791696128"]
    assert sequences.meta["sequences_unlabeled"] == 5
    assert int(sequences["seq_len"].sum()) == 13

    report = validate_event_table(events)
    assert report.missing_columns == []


def test_hdfs_without_labels(data_dir):
    events, sequences = load_hdfs(data_dir / "hdfs_sample.log")
    assert len(sequences) == 10
    assert not sequences["label"].any()
    assert sequences.meta["sequences_unlabeled"] == 0


def test_hdfs_labels_strictness(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("BlockId,Label\nblk_1,Anomaly\nblk_2,Normal\n")
    labels = read_hdfs_labels(p)
    assert labels == {"blk_1": True, "blk_2": False}

    p.write_text("wrong,header\nblk_1,Normal\n")
    with pytest.raises(ValueError):
        read_hdfs_labels(p)

    p.write_text("BlockId,Label\nblk_1,maybe\n")
    with pytest.raises(ValueError):
        read_hdfs_labels(p)


def test_hdfs_labels_row_without_label_names_file_and_line(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("BlockId,Label\nblk_1,Normal\nblk_2\n")
    with pytest.raises(ValueError, match=r"labels\.csv:3: expected "
                       r"BlockId,Label, got 'blk_2'"):
        read_hdfs_labels(p)
    p.write_text("BlockId,Label\nblk_1,maybe\n")
    with pytest.raises(ValueError, match=r"labels\.csv:2: label must be"):
        read_hdfs_labels(p)


def test_hdfs_leading_garbage_dropped(tmp_path):
    p = tmp_path / "t.log"
    p.write_text("no timestamp here\n"
                 "081109 203615 148 INFO dfs.X: ok blk_5\n")
    events, _ = load_hdfs(p)
    assert len(events) == 1
    assert events.meta["dropped_lines"] == 1


def _load_hdfs_per_line(log_path, label_path=None):
    """Reference: the per-line HDFS loader that the column-wise one
    replaced, with superscript digits treated as malformed."""
    messages, epochs, seqs = [], [], []
    pids, levels, comps = [], [], []
    dropped = merged = no_seq = lines_read = 0
    block_re = re.compile(r"blk_-?\d+")
    with open(log_path, "r", encoding="utf-8", errors="replace",
              newline="\n") as f:
        for line in f:
            lines_read += 1
            line = line.rstrip("\n")
            p = line.split(" ", 5)
            sec = None
            if (len(p) == 6 and len(p[0]) == 6 and len(p[1]) == 6
                    and p[0].isdecimal() and p[1].isdecimal()
                    and p[2].isdecimal() and p[4].endswith(":")):
                h, m, s = int(p[1][0:2]), int(p[1][2:4]), int(p[1][4:6])
                try:
                    day = (date(2000 + int(p[0][0:2]), int(p[0][2:4]),
                                int(p[0][4:6])).toordinal()
                           - date(1970, 1, 1).toordinal())
                except ValueError:
                    day = None
                if day is not None and h <= 23 and m <= 59 and s <= 59:
                    sec = day * 86400 + h * 3600 + m * 60 + s
            if sec is None:
                if messages:
                    messages[-1] = messages[-1] + "\n" + line
                    merged += 1
                else:
                    dropped += 1
                continue
            found = block_re.search(p[5])
            seqs.append(found.group() if found else None)
            no_seq += found is None
            messages.append(p[5])
            epochs.append(sec * 1_000_000)
            pids.append(int(p[2]))
            levels.append(p[3])
            comps.append(p[4][:-1])
    meta = {"source": str(log_path), "lines_read": lines_read,
            "dropped_lines": dropped, "merged_continuations": merged,
            "rows_without_seq_id": no_seq}
    events = EventTable({
        "seq_id": object_column(seqs),
        "m_message": object_column(messages),
        "m_timestamp": np.asarray(epochs, dtype=np.int64)
        .view("datetime64[us]"),
        "pid": np.asarray(pids, dtype=np.int64),
        "level": object_column(levels),
        "component": object_column(comps),
    }, meta=meta)
    labels = read_hdfs_labels(label_path) if label_path is not None else {}
    seq_ids = list(dict.fromkeys(s for s in seqs if s is not None))
    unlabeled = sum(1 for s in seq_ids if s not in labels) \
        if label_path is not None else 0
    sequences = SequenceTable({
        "seq_id": object_column(seq_ids),
        "label": np.asarray([labels.get(s, False) for s in seq_ids],
                            dtype=bool),
        "seq_len": np.asarray([seqs.count(s) for s in seq_ids],
                              dtype=np.int64),
    }, meta={"source": str(log_path), "sequences_unlabeled": unlabeled})
    events.meta["sequences"] = len(seq_ids)
    return events, sequences


_HDFS_CASES = {
    "continuations and leading garbage": (
        "garbage first\n\n"
        "081109 203615 148 INFO dfs.A: one blk_1\n"
        "\tat java.lang.Thread.run\n"
        "081109 203616 149 WARN dfs.B: two blk_-2\n"),
    # a row's sequence is its first line's block id, not a continuation's
    "continuations with block ids": (
        "081109 203615 148 INFO dfs.A: no id on the first line\n"
        "continued blk_5 here\n"
        "081109 203616 149 INFO dfs.A: first blk_6 here\n"
        "more blk_7 after\n"
        "\n"
        "081109 203617 150 INFO dfs.B: last blk_6\n"
        "tail blk_8"),
    "times": (
        "081109 246060 1 INFO dfs.A: hour 24 blk_1\n"
        "081109 235960 1 INFO dfs.A: second 60 blk_1\n"
        "081109 236059 1 INFO dfs.A: minute 60 blk_1\n"
        "081109 235959 1 INFO dfs.A: last second blk_1\n"
        "081109 000000 1 INFO dfs.A: midnight blk_1\n"
        "081332 000000 1 INFO dfs.A: month 13 blk_1\n"
        "080229 000000 1 INFO dfs.A: no leap day blk_1\n"
        "000229 120000 1 INFO dfs.A: leap day blk_1\n"
        "81109 203615 1 INFO dfs.A: short date blk_1\n"
        "081109 20361 1 INFO dfs.A: short time blk_1\n"
        "081109 2036150 1 INFO dfs.A: long time blk_1\n"
        "081109 20:615 1 INFO dfs.A: colon in time blk_1\n"),
    "fields": (
        "081109 203615 148 INFO dfs.A no colon blk_1\n"
        "081109 203615 148 INFO dfs.A: no block id\n"
        "081109 203615 148 INFO dfs.A: two ids blk_7 and blk_8\n"
        "081109 203615  INFO dfs.A: empty pid blk_1\n"
        "081109 203615 -1 INFO dfs.A: signed pid blk_1\n"
        "081109 203615 148 INFO dfs.A:\n"
        "081109 203615 148 INFO dfs.A: \n"
        "081109 203615 148  : empty level and component blk_2\n"
        "081109 203615 148 INFO dfs.A: blk_x blk_ blk_-\n"
        "081109 203615 148 blk_9 dfs.A: id in the level only\n"),
    "line ends": (
        "081109 203615 148 INFO dfs.A: crlf blk_1\r\n"
        "\r\n"
        "\n"
        "081109 203616 148 INFO dfs.A: crlf continued\r\n"
        "081109 203617 148 INFO dfs.A: no trailing newline blk_3"),
    "digits of other scripts": (
        "٠٨١١٠٩ ٢٠٣٦١٥ ١٤٨ INFO dfs.A: arabic-indic blk_١٢\n"
        "081109 2036٥5 1٤8 INFO dfs.A: mixed blk_5\n"
        "081109 2036²5 148 INFO dfs.A: superscript in time blk_2\n"
        "0811²9 203615 148 INFO dfs.A: superscript in date blk_2\n"
        "081109 203615 1² INFO dfs.A: superscript in pid blk_2\n"
        "081109 203615 ① INFO dfs.A: circled pid blk_2\n"
        "081109 203615 148 ÏNFO dfs.Ä: non-ascii level blk_2\n"),
    # (date, level, component) is one key: levels, components and keys
    # that only rejected lines hold, a component that is another's with
    # its colon dropped, and keys that first appear late
    "coders": (
        "081109 246060 148 TRACE dfs.Gone: bad time, first line blk_1\n"
        "081109 203615 148 INFO dfs.A: first row blk_1\n"
        "081109 203615 x DEBUG dfs.A: bad pid, level seen nowhere else\n"
        "081109 203616 149 INFO dfs.CX looks valid, no colon blk_2\n"
        "081199 203616 149 WARN dfs.B: bad date, key seen again later\n"
        "081109 203617 150 INFO dfs.A: first key again blk_1\n"
        "081109 203618 151 WARN dfs.B: second key blk_2\n"
        "081109 246060 151 INFO dfs.C: bad time, key accepted later\n"
        "081109 203619 152 INFO dfs.A: first key once more blk_2\n"
        "081110 000001 153 INFO dfs.C: new date and component blk_3\n"
        "081199 000002 154 WARN dfs.B: bad date again blk_3\n"
        "081109 246060 148 TRACE dfs.Gone: bad time again blk_1\n"
        "081110 000003 155 ERROR dfs.A: new level last blk_3\n"
        "081109 203620 156 INFO dfs.C: late key accepted blk_4\n"),
}


@pytest.mark.parametrize("block_chars", [1 << 20, 1, 7, 64])
@pytest.mark.parametrize("case", sorted(_HDFS_CASES))
def test_hdfs_matches_per_line_reference(tmp_path, case, block_chars,
                                         monkeypatch):
    monkeypatch.setattr(loaders, "_HDFS_BLOCK_CHARS", block_chars)
    log = tmp_path / "t.log"
    log.write_bytes(_HDFS_CASES[case].encode("utf-8"))
    labels = tmp_path / "labels.csv"
    labels.write_text("BlockId,Label\nblk_1,Anomaly\nblk_8,Normal\n")
    for label_path in (None, labels):
        got = load_hdfs(log, label_path)
        want = _load_hdfs_per_line(log, label_path)
        # the message column, cut at its block ids, renders the text
        message, text = got[0]["m_message"], want[0]["m_message"].tolist()
        assert message.parts is not None
        assert message.tolist() == text
        assert message.dictionary == list(dict.fromkeys(text))
        for g, w in zip(got, want):
            assert g.equals(w)
            assert g.meta == w.meta
            assert [g[c].dtype for c in g] == [w[c].dtype for c in w]
            for name in g:
                col = g[name]
                if isinstance(col, CodedColumn):
                    # first-seen, no unused entry
                    assert col.first_seen() is col


def test_hdfs_matches_per_line_reference_on_a_corpus(tmp_path, monkeypatch):
    # a few blocks of lines, each split somewhere inside a line
    monkeypatch.setattr(loaders, "_HDFS_BLOCK_CHARS", 4099)
    paths = generate_synthetic(tmp_path, "hdfs", n_templates=5,
                               n_lines=2000, anomaly_rate=0.1, seed=3)
    got = load_hdfs(paths["log"], paths["labels"])
    want = _load_hdfs_per_line(paths["log"], paths["labels"])
    assert got[0].equals(want[0]) and got[1].equals(want[1])
    assert got[0].meta == want[0].meta and got[1].meta == want[1].meta


@pytest.mark.parametrize("line", [
    "081109 2036²5 148 INFO dfs.DataNode: x blk_2",
    "081109 203615 1² INFO dfs.DataNode: x blk_2",
])
def test_hdfs_non_decimal_digits_are_malformed(tmp_path, line):
    """``str.isdigit`` accepts ``²``, which ``int`` rejects: such a line
    continues the previous event, or is dropped when it comes first."""
    first = "081109 203614 147 INFO dfs.DataNode: first blk_1"
    log = tmp_path / "t.log"
    log.write_text(f"{first}\n{line}\n", encoding="utf-8")
    events, _ = load_hdfs(log)
    assert list(events["m_message"]) == [f"first blk_1\n{line}"]
    assert events.meta["merged_continuations"] == 1
    log.write_text(f"{line}\n{first}\n", encoding="utf-8")
    events, _ = load_hdfs(log)
    assert list(events["m_message"]) == ["first blk_1"]
    assert events.meta["dropped_lines"] == 1


def test_hdfs_decimal_digits_of_other_scripts_load(tmp_path):
    log = tmp_path / "t.log"
    log.write_text("٠٨١١٠٩ ٢٠٣٦١٥ ١٤٨ INFO dfs.A: x blk_1\n",
                   encoding="utf-8")
    events, _ = load_hdfs(log)
    assert events["m_timestamp"][0] == np.datetime64("2008-11-09T20:36:15")
    assert events["pid"][0] == 148


# ---------------------------------------------------------------------------
# BGL family


def test_bgl_fixture(data_dir):
    events = load_supercomputer(data_dir / "bgl_sample.log", "bgl")
    assert len(events) == 7
    assert events.meta["merged_continuations"] == 1
    assert events.meta["dropped_lines"] == 0
    assert list(events["label"]) == [False, False, True, False, False,
                                     True, False]
    assert events["alert_tag"][2] == "KERNDTLB"
    assert events["alert_tag"][5] == "APPREAD"
    assert events["m_timestamp"][0] == np.datetime64(1117838570, "s")
    assert events["node"][0] == "R02-M1-N0-C:J12-U11"
    assert events["component"][0] == "KERNEL"
    assert events["level"][2] == "FATAL"
    assert events["m_message"][0] == \
        "instruction cache parity error corrected"
    assert events["m_message"][5] == (
        "ciod: failed to read message prefix on control stream"
        "\n\tcontinuation of the previous message body")


def test_bgl_line_reconstruction(data_dir):
    """Columns carry everything: the physical file can be rebuilt."""
    path = data_dir / "bgl_sample.log"
    events = load_supercomputer(path, "bgl")
    rebuilt = []
    for i in range(len(events)):
        epoch = events["m_timestamp"][i].astype("datetime64[s]") \
            .astype(np.int64)
        head = " ".join([
            events["alert_tag"][i], str(epoch), events["date"][i],
            events["node"][i], events["time_full"][i],
            events["node_repeat"][i], events["type"][i],
            events["component"][i], events["level"][i],
        ])
        for j, part in enumerate(events["m_message"][i].split("\n")):
            rebuilt.append(head + " " + part if j == 0 else part)
    original = path.read_text().splitlines()
    assert rebuilt == original


def test_thunderbird_fixture(data_dir):
    events = load_supercomputer(data_dir / "tbird_sample.log", "thunderbird")
    assert len(events) == 5
    assert list(events["label"]) == [False, False, True, False, False]
    assert events["alert_tag"][2] == "ALERT"
    assert events["m_timestamp"][0] == np.datetime64(1131566461, "s")
    assert events["location"][0] == "dn228/dn228"
    assert events["admin"][0] == "dn228"
    assert events["m_message"][2] == \
        "kernel: scsi0 (0:0): rejecting I/O to offline device"


def test_supercomputer_rejects_bad_format(data_dir):
    with pytest.raises(ValueError):
        load_supercomputer(data_dir / "bgl_sample.log", "hdfs")


def test_spirit_liberty_share_layout(data_dir):
    a = load_supercomputer(data_dir / "tbird_sample.log", "spirit")
    b = load_supercomputer(data_dir / "tbird_sample.log", "liberty")
    assert a.equals(b)


_BGL_FIELDS = ["alert_tag", "epoch", "date", "node", "time_full",
               "node_repeat", "type", "component", "level", "m_message"]
_TBIRD_FIELDS = ["alert_tag", "epoch", "date", "admin", "month", "day",
                 "time", "location", "m_message"]


def _load_supercomputer_per_line(log_path, fields):
    """Reference: the per-line loop with one list of strings per field
    that the coded loader replaced."""
    cols = {name: [] for name in fields}
    dropped = merged = lines_read = 0
    with open(log_path, "r", encoding="utf-8", errors="replace",
              newline="\n") as f:
        for line in f:
            lines_read += 1
            p = line.rstrip("\n").split(" ", len(fields) - 1)
            if len(p) == len(fields):
                try:
                    p[1] = int(p[1]) * 1_000_000
                except ValueError:
                    p = None
                if p is not None:
                    for name, value in zip(fields, p):
                        cols[name].append(value)
                    continue
            if cols["m_message"]:
                cols["m_message"][-1] += "\n" + line.rstrip("\n")
                merged += 1
            else:
                dropped += 1
    epochs = cols.pop("epoch")
    return EventTable({
        "label": np.asarray([a != "-" for a in cols["alert_tag"]],
                            dtype=bool),
        "alert_tag": object_column(cols.pop("alert_tag")),
        "m_timestamp": np.asarray(epochs, dtype=np.int64)
        .view("datetime64[us]"),
        **{name: object_column(v) for name, v in cols.items()},
    }, meta={"source": str(log_path), "lines_read": lines_read,
             "dropped_lines": dropped, "merged_continuations": merged})


_BGL_LINE = ("- {e} 2005.06.03 R0{n} 2005-06-03-15.42.{e} R0{n} RAS KERNEL "
             "{l} {m}")
_SUPERCOMPUTER_CASES = {
    "bgl": [
        "leading garbage",
        _BGL_LINE.format(e=50, n=1, l="INFO", m="shared message"),
        _BGL_LINE.format(e=51, n=2, l="INFO", m="shared message"),
        "\tcontinues a message an earlier row also holds",
        _BGL_LINE.format(e=52, n=1, l="FATAL", m="only once"),
        "\tcontinues a message no other row holds",
        "\tand again",
        _BGL_LINE.format(e="x", n=1, l="INFO", m="bad epoch continues"),
        "- 53 too few fields",
        _BGL_LINE.format(e=54, n=2, l="INFO", m="crlf\r"),
        "KERNDTLB 55 2005.06.03 R03 t R03 RAS APP WARNING  two  spaces ",
        _BGL_LINE.format(e=56, n=1, l="INFO", m="only once"),
        _BGL_LINE.format(e=57, n=3, l="INFO", m="no trailing newline"),
    ],
    # two rows that continuations merge into the same text share its
    # code, and a later row holds the message they held before the merge
    "bgl merges": [
        _BGL_LINE.format(e=60, n=1, l="INFO", m="alpha"),
        "\tbeta",
        _BGL_LINE.format(e=61, n=2, l="INFO", m="alpha"),
        "\tbeta",
        _BGL_LINE.format(e=62, n=1, l="WARNING", m="gamma"),
        _BGL_LINE.format(e=63, n=3, l="INFO", m="alpha"),
        _BGL_LINE.format(e=64, n=1, l="INFO", m="alpha"),
        "\tbeta",
    ],
    "thunderbird": [
        "- 1131566461 2005.11.09 dn228 Nov 9 12:01:01 dn228/dn228 a: b",
        "\tcontinued",
        "ALERT 1131566462 2005.11.09 dn3 Nov 10 12:01:02 dn3/dn3 a: b",
        "- 1131566463 2005.11.09 dn228 Nov 9 12:01:03 dn228/dn228 a: b",
    ],
}


@pytest.mark.parametrize("lines", [None, 0, 1, 5])
@pytest.mark.parametrize("case", sorted(_SUPERCOMPUTER_CASES))
def test_supercomputer_matches_per_line_reference(tmp_path, case, lines):
    fmt = case.split()[0]
    text = "\n".join(_SUPERCOMPUTER_CASES[case][:lines])
    log = tmp_path / "t.log"
    log.write_bytes(text.encode("utf-8"))
    got = load_supercomputer(log, fmt)
    want = _load_supercomputer_per_line(
        log, _BGL_FIELDS if fmt == "bgl" else _TBIRD_FIELDS)
    assert got.column_names == want.column_names
    assert got.equals(want) and got.meta == want.meta
    for name in got:
        col = got[name]
        if isinstance(col, CodedColumn):
            assert col.first_seen() is col  # first-seen, no unused entry
    for t, stem in ((got, "got"), (want, "want")):
        t.save(tmp_path / f"{stem}.table.json")
        t.write_csv(tmp_path / f"{stem}.csv")
    for ext in (".table.json", ".csv"):
        assert (tmp_path / f"got{ext}").read_bytes() == \
            (tmp_path / f"want{ext}").read_bytes()


def test_supercomputer_keeps_no_prefix_of_a_long_event(tmp_path):
    # coding the message after each line would hold ~k**2 / 2 lines of text
    trace = [f"\tat org.example.Frame{i:05d}.call(Frame.java:{i})"
             for i in range(1000)]
    log = tmp_path / "bgl.log"
    log.write_text("\n".join(
        [_BGL_LINE.format(e=50, n=1, l="FATAL", m="failed"), *trace,
         _BGL_LINE.format(e=51, n=1, l="INFO", m="done")]) + "\n")
    tracemalloc.start()
    try:
        events = load_supercomputer(log, "bgl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events["m_message"].dictionary == ["failed\n" + "\n".join(trace),
                                              "done"]
    assert events.meta["merged_continuations"] == 1000
    assert peak < 2_000_000, peak


# ---------------------------------------------------------------------------
# Hadoop


def test_hadoop_fixture(data_dir):
    events, sequences = load_hadoop(data_dir / "hadoop_tree",
                                    data_dir / "hadoop_labels.csv")
    assert len(events) == 12
    assert events.meta["merged_continuations"] == 3
    assert events.meta["dropped_lines"] == 1
    assert list(sequences["seq_id"]) == ["application_1445087491445_0001",
                                         "application_1445087491445_0002"]
    assert list(sequences["seq_len"]) == [9, 3]
    assert list(sequences["label"]) == [False, True]
    assert sequences.meta["sequences_unlabeled"] == 0

    assert events["m_timestamp"][0] == \
        np.datetime64("2015-10-18T18:01:47.978000")
    assert events["level"][0] == "INFO"
    assert events["component"][0] == \
        "org.apache.hadoop.mapreduce.v2.app.MRAppMaster"
    assert events["seq_id"][0] == "application_1445087491445_0001"

    # the three-line java stack trace rode along with the WARN event
    warn = events["m_message"][4]
    assert warn.count("\n") == 3
    assert "ConnectException" in warn

    # ERROR event of the failed app
    assert events["level"][10] == "ERROR"
    assert events["seq_id"][10] == "application_1445087491445_0002"


def test_hadoop_deterministic(data_dir):
    a, _ = load_hadoop(data_dir / "hadoop_tree", data_dir / "hadoop_labels.csv")
    b, _ = load_hadoop(data_dir / "hadoop_tree", data_dir / "hadoop_labels.csv")
    assert a.equals(b)


def test_hadoop_keeps_no_prefix_of_a_long_trace(tmp_path):
    # coding the message after each line would hold ~k**2 / 2 lines of text
    app = tmp_path / "logs" / "application_1_0001"
    app.mkdir(parents=True)
    trace = [f"\tat org.example.Frame{i:05d}.call(Frame.java:{i})"
             for i in range(1000)]
    (app / "container.log").write_text(
        "2015-10-18 18:01:47,978 WARN org.example.Task: failed\n"
        + "\n".join(trace)
        + "\n2015-10-18 18:01:48,000 INFO org.example.Task: done\n")
    tracemalloc.start()
    try:
        events, _ = load_hadoop(tmp_path / "logs", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events["m_message"].dictionary == ["failed\n" + "\n".join(trace),
                                              "done"]
    assert events.meta["merged_continuations"] == 1000
    assert peak < 2_000_000, peak


def test_hadoop_bytes_are_pinned(data_dir, tmp_path):
    root = data_dir / "hadoop_tree"
    events, sequences = load_hadoop(root, data_dir / "hadoop_labels.csv")
    for name in ("seq_id", "m_message", "level", "component"):
        assert isinstance(events[name], CodedColumn), name
    assert events.meta == {"source": str(root), "lines_read": 16,
                           "dropped_lines": 1, "merged_continuations": 3,
                           "sequences": 2}
    assert sequences.meta == {"source": str(root), "sequences_unlabeled": 0}
    assert _digests(tmp_path, {"events": events,
                               "sequences": sequences}) == {
        "events.table.json":
            "53399f52e117119aa7085325568d8e27927c050211593f6ad6d3cac5cb9cfc2b",
        "events.csv":
            "59983540b10431b91530af59f7c0f7bfb248453b8d67efca52618a28b3aaea82",
        "sequences.table.json":
            "833cff915fa083ecfbabb0d788cff9c1687bc38167205fc187a794d1edd1fe19",
        "sequences.csv":
            "7ff6a65b71a38983ee92d4433256f48e56ca178b82f9112fbd8e9cdd8e389b97",
    }


def test_hadoop_label_dict_and_bad_root(data_dir, tmp_path):
    events, sequences = load_hadoop(
        data_dir / "hadoop_tree",
        {"application_1445087491445_0001": True})
    assert list(sequences["label"]) == [True, False]
    assert sequences.meta["sequences_unlabeled"] == 1
    with pytest.raises(NotADirectoryError):
        load_hadoop(tmp_path / "missing", {})


def test_app_labels(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("application,label\napp_1,Normal\napp_2,disk full\n")
    labels = read_app_labels(p)
    assert labels == {"app_1": False, "app_2": True}
    p.write_text("x,y\napp_1,Normal\n")
    with pytest.raises(ValueError):
        read_app_labels(p)
    # a row without a label, or with an empty one, names its file and line
    for body in ("app_1\n", "app_1,\n", "app_1,  \n"):
        p.write_text("application,label\napp_0,Normal\n" + body)
        with pytest.raises(ValueError, match=r"labels\.csv:3: "):
            read_app_labels(p)


# ---------------------------------------------------------------------------
# full datasets, when present (pass env vars pointing at the real files)


@pytest.mark.skipif("LOGBENCH_HDFS_PATH" not in os.environ,
                    reason="full HDFS dataset not available")
def test_full_hdfs_row_count():
    events, _ = load_hdfs(os.environ["LOGBENCH_HDFS_PATH"])
    assert len(events) == 11_175_629


@pytest.mark.skipif("LOGBENCH_BGL_PATH" not in os.environ,
                    reason="full BGL dataset not available")
def test_full_bgl_row_count():
    events = load_supercomputer(os.environ["LOGBENCH_BGL_PATH"], "bgl")
    assert len(events) == 4_747_963


@pytest.mark.skipif("LOGBENCH_HADOOP_PATH" not in os.environ,
                    reason="full Hadoop dataset not available")
def test_full_hadoop_row_count():
    events, _ = load_hadoop(os.environ["LOGBENCH_HADOOP_PATH"], {})
    assert len(events) == 177_592
