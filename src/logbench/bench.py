"""Paired wall-clock benchmarks for the paper's two speed claims.

Each times one step two ways, alternately, ``repeats`` times each, so slow
drift of the machine hits both alike: loading a log (``bench_loading``,
against ``reference_load``) and masking before template mining
(``bench_masking_offload``, against ``reference_parse``). Timings collect
into a BenchReport: one row per phase holding the row count, every repeat,
and the median and minimum. The median is the headline number; single
timings on shared hardware are noise.
"""

from __future__ import annotations

import re
import statistics
import time
from dataclasses import dataclass

from . import loaders, masking
from .parsers import PARSERS, make_parser
from .tables import CodedColumn


@dataclass
class BenchRow:
    data: str
    lines: int
    phase: str
    seconds: list[float]

    @property
    def median(self) -> float:
        return statistics.median(self.seconds)

    @property
    def min(self) -> float:
        return min(self.seconds)

    @property
    def repeats(self) -> int:
        return len(self.seconds)


class BenchReport:
    def __init__(self):
        self.rows: list[BenchRow] = []

    def add(self, data: str, lines: int, phase: str,
            seconds: list[float]) -> BenchRow:
        row = BenchRow(data, lines, phase, seconds)
        self.rows.append(row)
        return row

    def row(self, phase: str) -> BenchRow:
        for r in self.rows:
            if r.phase == phase:
                return r
        raise KeyError(f"no bench row for phase {phase!r}")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("data,lines,phase,repeats,median_s,min_s\n")
            for r in self.rows:
                f.write(f"{r.data},{r.lines},{r.phase},{r.repeats},"
                        f"{r.median!r},{r.min!r}\n")

    def __str__(self) -> str:
        out = ["data lines phase repeats median_s min_s"]
        for r in self.rows:
            out.append(f"{r.data} {r.lines} {r.phase} {r.repeats} "
                       f"{r.median:.6f} {r.min:.6f}")
        return "\n".join(out)


def _interleaved(a, b, repeats: int):
    """Call ``a`` and ``b`` alternately (a, b, a, b, ...), ``repeats``
    times each; return each one's seconds per call and the ``len`` of its
    last result. A result is dropped once its clock stops, so no call runs
    beside the other's output and no timing includes freeing it."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    seconds, sizes = ([], []), [0, 0]
    for _ in range(repeats):
        for i, fn in enumerate((a, b)):
            start = time.perf_counter()
            result = fn()
            seconds[i].append(time.perf_counter() - start)
            sizes[i] = len(result)
            del result
    return seconds, sizes


# the loaders' field layouts in logparser's log format notation; Content
# is the message, last in each
_LAYOUTS = {
    "hdfs": "<Date> <Time> <Pid> <Level> <Component>: <Content>",
    "bgl": "<Label> <Timestamp> <Date> <Node> <Time> <NodeRepeat> <Type> "
           "<Component> <Level> <Content>",
    **dict.fromkeys(("thunderbird", "spirit", "liberty"),
                    "<Label> <Timestamp> <Date> <Admin> <Month> <Day> "
                    "<Time> <Location> <Content>"),
}


def reference_load(spec) -> list[list[str]]:
    """The loading baseline: logparser's ``log_to_dataframe``, without pandas.

    As logparser's ``generate_logformat_regex`` does, the format's layout
    becomes one lazy named group per ``<Header>``, each run of spaces
    between them ``\\s+``, anchored at both ends. Each stripped line is
    searched; a match keeps one list of its group strings, the message
    (Content) last, and a line that does not match is skipped. No timestamp
    is parsed and no label file is read. Raw and hadoop logs, which have no
    layout here, raise ValueError.
    """
    if spec.format not in _LAYOUTS:
        raise ValueError(f"no reference layout for format {spec.format!r}, "
                         f"expected one of {sorted(_LAYOUTS)}")
    parts = re.split(r"(<[^<>]+>)", _LAYOUTS[spec.format])
    pattern = "".join(f"(?P<{part[1:-1]}>.*?)" if k % 2
                      else re.sub(" +", r"\\s+", part)
                      for k, part in enumerate(parts))
    search = re.compile(f"^{pattern}$").search
    rows = []
    with open(spec.log_path, "r", encoding="utf-8", errors="replace",
              newline="\n") as f:
        for line in f:
            match = search(line.strip())
            if match:
                rows.append(list(match.groups()))
    return rows


def bench_loading(spec, repeats: int = 5) -> BenchReport:
    """``reference_load(spec)`` against ``loaders.load(spec)``, interleaved.

    The medians land in rows "load" and "reference", each with the number
    of event rows it returned. Give the spec no label file: the reference
    reads none. The reference runs first, so a format it cannot read
    raises ValueError before anything is timed; a missing log raises
    OSError.
    """
    (reference_s, load_s), (reference_rows, rows) = _interleaved(
        lambda: reference_load(spec), lambda: loaders.load(spec)[0], repeats)
    report = BenchReport()
    report.add(str(spec.log_path), rows, "load", load_s)
    report.add(str(spec.log_path), reference_rows, "reference", reference_s)
    return report


def reference_parse(kind: str, messages) -> list[int]:
    """The in-parser masking baseline: Drain's per-message preprocessing
    (He et al., "Drain: An Online Log Parsing Approach with Fixed Depth
    Tree", ICWS 2017), with the default rules.

    The messages are coded, each distinct one is masked by ``mask_one`` on
    its own and split once, and a fresh parser of ``kind`` parses the
    masked column. The ids and templates equal those of
    ``make_parser(kind).parse(masking.normalize(messages))``.
    """
    text = CodedColumn.of(messages)
    rules = masking.default_rules()
    masked = [masking.mask_one(m, rules) for m in text.dictionary]
    return make_parser(kind).parse(CodedColumn(masked, text.codes))


def bench_masking_offload(messages, parser: str = "drain",
                          repeats: int = 5) -> BenchReport:
    """Column-level versus in-parser masking of the same messages, with the
    default rules: ``make_parser(parser).parse(masking.normalize(...))``
    against ``reference_parse(parser, ...)``.

    The two variants run interleaved (pipeline, internal, pipeline, ...)
    and the medians land in rows "pipeline_total" and
    "parser_internal_total".
    """
    if parser not in PARSERS:
        raise ValueError(f"unknown parser {parser!r}")
    rules = masking.default_rules()
    messages = list(messages)

    def run_pipeline_variant():
        return make_parser(parser).parse(masking.normalize(messages, rules))

    (pipeline_s, internal_s), (n, _) = _interleaved(
        run_pipeline_variant, lambda: reference_parse(parser, messages),
        repeats)
    report = BenchReport()
    report.add("messages", n, "pipeline_total", pipeline_s)
    report.add("messages", n, "parser_internal_total", internal_s)
    return report
