import json
import logging

import pytest

from logbench.cli import main
from logbench.tables import Table


@pytest.fixture(scope="module")
def synth_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_synth")
    code = main(["synth", "--format", "hdfs", "--templates", "4",
                 "--lines", "500", "--anomaly-rate", "0.2", "--seed", "1",
                 "--out", str(root)])
    assert code == 0
    log = next(root.glob("*.log"))
    labels = next(root.glob("*labels*.csv"))
    return {"root": root, "log": log, "labels": labels}


def test_synth_prints_paths(tmp_path, capsys):
    code = main(["synth", "--format", "bgl", "--lines", "50",
                 "--out", str(tmp_path), "--name", "tiny"])
    captured = capsys.readouterr()
    assert code == 0
    assert "log:" in captured.out
    assert (tmp_path / "tiny.log").exists()


def test_load_writes_tables(tmp_path, capsys, synth_dirs):
    out = tmp_path / "loaded"
    code = main(["load", "--format", "hdfs", "--log", str(synth_dirs["log"]),
                 "--labels", str(synth_dirs["labels"]),
                 "--out", str(out), "--csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert "events:" in captured.out
    assert "sequences:" in captured.out
    assert "validation:" in captured.out
    for name in ("events.table.json", "events.csv",
                 "sequences.table.json", "sequences.csv"):
        assert (out / name).exists(), name


def test_enhance_chain(tmp_path, capsys, synth_dirs):
    loaded = tmp_path / "loaded"
    assert main(["load", "--format", "hdfs", "--log", str(synth_dirs["log"]),
                 "--labels", str(synth_dirs["labels"]),
                 "--out", str(loaded)]) == 0
    capsys.readouterr()

    out = tmp_path / "enhanced"
    code = main(["enhance", "--table", str(loaded / "events.table.json"),
                 "--chain", "normalize,tokenize,drain,aggregate",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "drain:" in captured.out
    assert "templates" in captured.out
    assert (out / "templates.json").exists()
    assert (out / "events.table.json").exists()
    assert (out / "sequences.table.json").exists()

    store = json.loads((out / "templates.json").read_text())
    assert store["templates"]


def test_enhance_rejects_bad_chain(tmp_path, capsys, synth_dirs):
    loaded = tmp_path / "loaded"
    assert main(["load", "--format", "hdfs", "--log", str(synth_dirs["log"]),
                 "--out", str(loaded)]) == 0
    capsys.readouterr()
    for chain, message in (("tokenize,wat", "unknown chain steps"),
                           ("drain,spell", "at most one parser"),
                           ("tokenize,tokenize", "may not repeat"),
                           ("tokenize,drain,ngram,aggregate",
                            "logbench detect")):
        code = main(["enhance", "--table", str(loaded / "events.table.json"),
                     "--chain", chain, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1, chain
        assert "config error:" in captured.err
        assert message in captured.err, captured.err
    assert not (tmp_path / "o").exists()


def test_enhance_aggregates_after_event_steps(tmp_path, synth_dirs):
    loaded = tmp_path / "loaded"
    assert main(["load", "--format", "hdfs", "--log", str(synth_dirs["log"]),
                 "--out", str(loaded)]) == 0
    out = tmp_path / "o"
    # aggregate is listed before tokenize but runs last, as in detect
    assert main(["enhance", "--table", str(loaded / "events.table.json"),
                 "--chain", "normalize,aggregate,tokenize",
                 "--out", str(out)]) == 0
    seqs = Table.load(out / "sequences.table.json")
    assert seqs.column_names == ["seq_id", "seq_len", "duration", "words"]
    assert all(len(w) > 0 for w in seqs["words"])


def test_enhance_chain_splits_like_the_config_file(tmp_path, synth_dirs):
    # an INI [enhance] chain takes commas, spaces or both; so does --chain
    loaded = tmp_path / "loaded"
    assert main(["load", "--format", "hdfs", "--log", str(synth_dirs["log"]),
                 "--out", str(loaded)]) == 0
    tables = []
    for i, chain in enumerate(("normalize,tokenize", "normalize tokenize",
                               " normalize, tokenize ")):
        out = tmp_path / f"o{i}"
        assert main(["enhance", "--table",
                     str(loaded / "events.table.json"), "--chain", chain,
                     "--out", str(out)]) == 0, chain
        tables.append((out / "events.table.json").read_bytes())
    assert tables[1] == tables[0] and tables[2] == tables[0]


def test_verbose_enhance_logs_each_step(tmp_path, caplog, synth_dirs):
    loaded = tmp_path / "loaded"
    assert main(["load", "--format", "hdfs", "--log", str(synth_dirs["log"]),
                 "--out", str(loaded)]) == 0
    caplog.set_level(logging.INFO, logger="logbench.pipeline")
    assert main(["-v", "enhance", "--table",
                 str(loaded / "events.table.json"),
                 "--chain", "normalize,tokenize,spell,aggregate",
                 "--out", str(tmp_path / "o")]) == 0
    steps = [r.getMessage().split(":")[0] for r in caplog.records
             if r.name == "logbench.pipeline"]
    assert steps == ["normalize", "tokenize", "spell", "aggregate"]


def test_enhance_bad_rules_file_is_config_error(tmp_path, capsys,
                                               synth_dirs):
    loaded = tmp_path / "loaded"
    assert main(["load", "--format", "hdfs", "--log", str(synth_dirs["log"]),
                 "--out", str(loaded)]) == 0
    rules = tmp_path / "rules.txt"
    rules.write_text("\\d+\t<NUM>\nno-tab-here\n")
    capsys.readouterr()
    code = main(["enhance", "--table", str(loaded / "events.table.json"),
                 "--chain", "normalize", "--rules", str(rules),
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error:" in captured.err
    assert f"{rules}:2" in captured.err


def test_enhance_failing_step_is_stage_error(tmp_path, capsys):
    root = tmp_path / "bgl"
    assert main(["synth", "--format", "bgl", "--lines", "50",
                 "--out", str(root), "--name", "tiny"]) == 0
    loaded = tmp_path / "loaded"
    assert main(["load", "--format", "bgl", "--log", str(root / "tiny.log"),
                 "--out", str(loaded)]) == 0
    capsys.readouterr()
    # BGL events carry no seq_id, so the aggregate step fails
    code = main(["enhance", "--table", str(loaded / "events.table.json"),
                 "--chain", "normalize,aggregate",
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 3
    assert "stage 'aggregate' failed" in captured.err
    assert "seq_id" in captured.err


def test_detect_runs_config(tmp_path, capsys, synth_dirs):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(f"""
[loader]
format = hdfs
log = {synth_dirs["log"]}
labels = {synth_dirs["labels"]}

[enhance]
chain = normalize, tokenize, drain, aggregate

[features]
source = event_ids

[detect]
kind = dt

[split]
fraction = 0.5

[output]
dir = {out}
""")
    code = main(["detect", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"artifacts in {out}" in captured.out
    assert (out / "report.json").exists()


def test_bench_subcommands(tmp_path, capsys, synth_dirs):
    log = str(synth_dirs["log"])
    labels = str(synth_dirs["labels"])

    code = main(["bench", "--task", "loading", "--format", "hdfs",
                 "--log", log, "--log", log, "--labels", labels,
                 "--repeats", "1"])
    assert code == 0

    out_csv = tmp_path / "parsers.csv"
    code = main(["bench", "--task", "offload", "--format", "hdfs",
                 "--log", log, "--labels", labels,
                 "--parsers", "drain,spell",
                 "--repeats", "1", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 0
    assert out_csv.exists()
    assert "csv ->" in captured.out

    code = main(["bench", "--task", "offload", "--format", "hdfs",
                 "--log", log, "--labels", labels, "--parsers", "drain",
                 "--repeats", "1"])
    assert code == 0


def test_bench_parsers_writes_pipeline_rows(tmp_path, synth_dirs):
    out_csv = tmp_path / "parsers.csv"
    code = main(["bench", "--task", "parsers", "--format", "hdfs",
                 "--log", str(synth_dirs["log"]),
                 "--labels", str(synth_dirs["labels"]),
                 "--parsers", "drain,spell", "--repeats", "1",
                 "--out", str(out_csv)])
    assert code == 0
    phases = [line.split(",")[2] for line in
              out_csv.read_text(encoding="utf-8").splitlines()[1:]]
    assert phases == ["mask", "parse_drain", "total_drain",
                      "parse_spell", "total_spell"]
    assert main(["bench", "--task", "parsers", "--mode", "pipeline"]) == 1


def test_exit_code_config_error(capsys):
    assert main([]) == 1
    assert main(["load", "--format", "raw"]) == 1  # missing --log/--out
    assert main(["bench", "--task", "parsers"]) == 1  # needs --log
    captured = capsys.readouterr()
    assert "config error:" in captured.err


def test_bench_usage_errors(capsys, synth_dirs):
    data = ["--format", "hdfs", "--log", str(synth_dirs["log"]),
            "--labels", str(synth_dirs["labels"])]
    for task in ("loading", "parsers", "offload"):
        for repeats in ("0", "-1"):
            assert main(["bench", "--task", task, *data,
                         "--repeats", repeats]) == 1
            assert "config error: --repeats" in capsys.readouterr().err
    for task in ("parsers", "offload"):
        for parsers in (",", "drain,nope"):
            assert main(["bench", "--task", task, *data, "--parsers",
                         parsers, "--repeats", "1"]) == 1
            assert "config error: --parsers" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path, capsys):
    code = main(["load", "--format", "raw", "--log",
                 str(tmp_path / "nope.log"), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "io error:" in captured.err

    assert main(["detect", "--config", str(tmp_path / "missing.ini")]) == 2


def test_exit_code_stage_error(tmp_path, capsys):
    log = tmp_path / "plain.log"
    log.write_text("alpha one\nbeta two\ngamma three\ndelta four\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"""
[loader]
format = raw
log = {log}

[enhance]
chain = tokenize, aggregate

[output]
dir = {tmp_path / "out"}
""")
    code = main(["detect", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert "aggregate" in captured.err
