import os

import numpy as np
import pytest

from logbench.loaders import (LoaderSpec, load, load_hadoop, load_hdfs,
                              load_raw, load_supercomputer, read_app_labels,
                              read_hdfs_labels)
from logbench.tables import EventTable, SequenceTable, validate_event_table


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


def test_hdfs_leading_garbage_dropped(tmp_path):
    p = tmp_path / "t.log"
    p.write_text("no timestamp here\n"
                 "081109 203615 148 INFO dfs.X: ok blk_5\n")
    events, _ = load_hdfs(p)
    assert len(events) == 1
    assert events.meta["dropped_lines"] == 1


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
