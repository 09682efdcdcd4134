"""Wall-clock benchmarks for loading and template mining.

Timings collect into a BenchReport: one row per (dataset, phase) holding the
line count, every repeat, and the median and minimum. The median is the
headline number; single timings on shared hardware are noise.
"""

from __future__ import annotations

import logging
import statistics
import time
from pathlib import Path

from . import loaders, masking
from .parsers import PARSERS, make_parser

logger = logging.getLogger("logbench.bench")


class BenchRow:
    __slots__ = ("data", "lines", "phase", "seconds")

    def __init__(self, data: str, lines: int, phase: str,
                 seconds: list[float]):
        self.data = data
        self.lines = lines
        self.phase = phase
        self.seconds = list(seconds)

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

    def row(self, phase: str, data: str | None = None) -> BenchRow:
        for r in self.rows:
            if r.phase == phase and (data is None or r.data == data):
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


def _timed(fn) -> tuple:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_loading(specs, repeats: int = 3) -> BenchReport:
    """Time each loader spec end to end, repeats times.

    Specs whose log path does not exist are skipped with a notice instead of
    failing the whole run, so one report can cover whichever datasets are
    actually present on the machine.
    """
    report = BenchReport()
    for spec in specs:
        if not Path(spec.log_path).exists():
            logger.warning("skipping %s: %s does not exist",
                           spec.format, spec.log_path)
            continue
        seconds = []
        lines = 0
        for _ in range(repeats):
            elapsed, (events, _) = _timed(lambda: loaders.load(spec))
            seconds.append(elapsed)
            lines = len(events)
            del events
        report.add(str(spec.log_path), lines, "load", seconds)
    return report


def bench_parsers(messages, parsers=("drain",), rules=None, repeats: int = 3,
                  parser_params: dict | None = None) -> BenchReport:
    """Time template mining over a message column.

    Each repeat masks the whole column once (phase "mask"), then parses the
    masked text with a fresh parser of each kind (phase "parse_<kind>");
    the "total_<kind>" rows hold the per-repeat sums. In-parser masking is
    timed by ``bench_masking_offload``.
    """
    for kind in parsers:
        if kind not in PARSERS:
            raise ValueError(f"unknown parser {kind!r}")
    if rules is None:
        rules = masking.default_rules()
    params = parser_params or {}
    messages = list(messages)
    report = BenchReport()
    n = len(messages)

    mask_seconds = []
    for _ in range(repeats):
        elapsed, masked = _timed(lambda: masking.normalize(messages, rules))
        mask_seconds.append(elapsed)
    report.add("messages", n, "mask", mask_seconds)
    for kind in parsers:
        parse_seconds = []
        for _ in range(repeats):
            parser = make_parser(kind, **params.get(kind, {}))
            elapsed, _ = _timed(lambda: parser.parse(masked))
            parse_seconds.append(elapsed)
        report.add("messages", n, f"parse_{kind}", parse_seconds)
        report.add("messages", n, f"total_{kind}",
                   [a + b for a, b in zip(mask_seconds, parse_seconds)])
    return report


def bench_masking_offload(messages, parser: str = "drain", rules=None,
                          repeats: int = 5,
                          parser_params: dict | None = None) -> BenchReport:
    """Column-level versus in-parser masking on the same messages.

    The two variants run interleaved (pipeline, internal, pipeline, ...) so
    slow machine drift hits both equally, and the medians land in rows
    "pipeline_total" and "parser_internal_total".
    """
    if parser not in PARSERS:
        raise ValueError(f"unknown parser {parser!r}")
    if rules is None:
        rules = masking.default_rules()
    params = (parser_params or {}).get(parser, {})
    messages = list(messages)
    pipeline_seconds = []
    internal_seconds = []
    for _ in range(repeats):
        def run_pipeline_variant():
            masked = masking.normalize(messages, rules)
            return make_parser(parser, **params).parse(masked)

        elapsed, _ = _timed(run_pipeline_variant)
        pipeline_seconds.append(elapsed)

        def run_internal_variant():
            return make_parser(parser, masking_rules=rules,
                               **params).parse(messages)

        elapsed, _ = _timed(run_internal_variant)
        internal_seconds.append(elapsed)
    report = BenchReport()
    n = len(messages)
    report.add("messages", n, "pipeline_total", pipeline_seconds)
    report.add("messages", n, "parser_internal_total", internal_seconds)
    return report
