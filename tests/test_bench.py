import pytest

from logbench import bench
from logbench.bench import (BenchReport, _interleaved, bench_loading,
                            bench_masking_offload, reference_load)
from logbench.loaders import LoaderSpec, load
from logbench.masking import normalize
from logbench.parsers import make_parser
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


def test_interleaved_alternates_the_two_calls():
    calls = []
    seconds, sizes = _interleaved(lambda: calls.append("a") or "aa",
                                  lambda: calls.append("b") or "b", 3)
    assert calls == ["a", "b"] * 3
    assert [len(s) for s in seconds] == [3, 3]
    assert sizes == [2, 1]
    for repeats in (0, -1):
        with pytest.raises(ValueError):
            _interleaved(lambda: "", lambda: "", repeats)
    assert calls == ["a", "b"] * 3


@pytest.mark.parametrize("fmt", ["bgl", "hdfs"])
def test_reference_rows_match_the_loader(tmp_path, fmt):
    paths = generate_synthetic(tmp_path, format=fmt, n_lines=2000,
                               anomaly_rate=0.1, seed=3)
    spec = LoaderSpec(fmt, paths["log"])
    events, _ = load(spec)
    rows = reference_load(spec)
    assert len(rows) == len(events) == 2000
    assert len({len(r) for r in rows}) == 1
    assert [r[-1] for r in rows] == \
        [m.strip() for m in events["m_message"]]


def test_bench_loading_rows(tmp_path):
    paths = generate_synthetic(tmp_path, format="bgl", n_lines=200, seed=0)
    report = bench_loading(LoaderSpec("bgl", paths["log"]), repeats=2)
    assert [r.phase for r in report.rows] == ["load", "reference"]
    for row in report.rows:
        assert row.data == str(paths["log"])
        assert row.lines == 200
        assert row.repeats == 2
        assert row.min > 0


def test_bench_loading_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        bench_loading(LoaderSpec("bgl", tmp_path / "missing.log"))
    log = tmp_path / "raw.log"
    log.write_text("a line\n")
    for fmt in ("raw", "hadoop"):
        with pytest.raises(ValueError, match="no reference layout"):
            bench_loading(LoaderSpec(fmt, log))
        with pytest.raises(ValueError, match="no reference layout"):
            reference_load(LoaderSpec(fmt, log))


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


@pytest.mark.parametrize("kind", ["drain", "spell", "lenma"])
def test_reference_parse_agrees_with_the_column_path(kind, monkeypatch):
    msgs = make_template_corpus(n_templates=6, n_lines=400,
                                seed=4)["messages"]
    assert normalize(msgs).tolist() != msgs  # the rules mask something
    made = []

    def recording(kind):
        made.append(make_parser(kind))
        return made[-1]
    monkeypatch.setattr(bench, "make_parser", recording)
    ids = bench.reference_parse(kind, msgs)
    column = make_parser(kind)
    assert ids == column.parse(normalize(msgs))
    assert [p.kind for p in made] == [kind]
    assert made[0].store.templates == column.store.templates
