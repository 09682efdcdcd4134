import logging

import pytest

from logbench.bench import (BenchReport, bench_loading, bench_masking_offload,
                            bench_parsers)
from logbench.loaders import LoaderSpec
from logbench.synth import generate_synthetic, make_template_corpus


def test_bench_row_stats():
    report = BenchReport()
    row = report.add("d", 10, "load", [3.0, 1.0, 2.0])
    assert row.median == 2.0
    assert row.min == 1.0
    assert row.repeats == 3
    even = report.add("d", 10, "x", [4.0, 1.0, 2.0, 3.0])
    assert even.median == 2.5
    assert report.row("load").median == 2.0
    with pytest.raises(KeyError):
        report.row("nope")


def test_report_csv(tmp_path):
    report = BenchReport()
    report.add("data.log", 5, "load", [0.5, 0.25])
    p = tmp_path / "bench.csv"
    report.write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "data,lines,phase,repeats,median_s,min_s"
    assert lines[1] == "data.log,5,load,2,0.375,0.25"
    assert "load" in str(report)


def test_bench_loading_skips_missing(tmp_path, caplog):
    paths = generate_synthetic(tmp_path, format="bgl", n_lines=200, seed=0)
    specs = [LoaderSpec("bgl", paths["log"]),
             LoaderSpec("bgl", tmp_path / "missing.log")]
    with caplog.at_level(logging.WARNING, logger="logbench.bench"):
        report = bench_loading(specs, repeats=2)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.lines == 200
    assert row.repeats == 2
    assert row.min > 0
    assert any("missing.log" in r.message for r in caplog.records)


def test_bench_parsers_pipeline_mode():
    corpus = make_template_corpus(n_templates=3, n_lines=120, seed=1)
    report = bench_parsers(corpus["messages"], parsers=("drain", "spell"),
                           repeats=2)
    phases = [r.phase for r in report.rows]
    assert phases == ["mask", "parse_drain", "total_drain",
                      "parse_spell", "total_spell"]
    mask = report.row("mask")
    for kind in ("drain", "spell"):
        parse = report.row(f"parse_{kind}")
        total = report.row(f"total_{kind}")
        assert total.repeats == 2
        for i in range(2):
            assert total.seconds[i] == pytest.approx(
                mask.seconds[i] + parse.seconds[i])


def test_bench_parsers_validation():
    with pytest.raises(ValueError):
        bench_parsers(["a"], parsers=("nosuch",))


def test_bench_masking_offload_rows():
    corpus = make_template_corpus(n_templates=3, n_lines=150, seed=2)
    report = bench_masking_offload(corpus["messages"], parser="drain",
                                   repeats=3)
    pipeline = report.row("pipeline_total")
    internal = report.row("parser_internal_total")
    assert pipeline.repeats == 3
    assert internal.repeats == 3
    assert pipeline.lines == 150
    assert pipeline.min > 0 and internal.min > 0
    with pytest.raises(ValueError):
        bench_masking_offload(["a"], parser="nosuch")
