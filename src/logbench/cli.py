"""Command line interface.

Subcommands mirror the library layers: ``load`` raw datasets into table
files, ``enhance`` an event table with masking and template mining,
``detect`` to run a full configured pipeline, ``bench`` loading or
masking against a reference, ``synth`` to generate seeded synthetic logs.

Exit codes: 0 success, 1 configuration problem, 2 I/O problem, 3 a pipeline
stage failed while running.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import bench, loaders, synth
from .parsers import PARSERS
from .pipeline import (ConfigError, PipelineConfig, StageError, load_rules,
                       parse_chain, run_chain, run_pipeline, validate_chain,
                       write_tables)
from .tables import Table, validate_event_table


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports bad usage as a ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="logbench",
                             description=__doc__.split("\n")[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="load a dataset and save table files")
    p.add_argument("--format", required=True, choices=loaders.FORMATS)
    p.add_argument("--log", required=True, help="log file (or directory "
                   "for hadoop)")
    p.add_argument("--labels", help="label csv where the format has one")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--csv", action="store_true",
                   help="also write csv copies")

    p = sub.add_parser("enhance", help="derive columns on a saved table")
    p.add_argument("--table", required=True, help="events table file")
    p.add_argument("--chain", required=True,
                   help="comma or space separated: normalize,tokenize,"
                        "drain|spell|lenma,aggregate (aggregate runs last; "
                        "ngram is detect-only)")
    p.add_argument("--rules", help="masking rules file (PATTERN<TAB><TOKEN>)")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("detect", help="run a configured pipeline")
    p.add_argument("--config", required=True, help="pipeline INI file")

    p = sub.add_parser("bench", help="time loading or masking against a "
                       "reference")
    p.add_argument("--task", required=True, choices=("loading", "offload"))
    p.add_argument("--format", required=True, choices=loaders.FORMATS)
    p.add_argument("--log", required=True)
    p.add_argument("--parser", default="drain", choices=sorted(PARSERS),
                   help="parser kind for offload")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", help="write the report csv here")

    p = sub.add_parser("synth", help="generate a synthetic log")
    p.add_argument("--format", default="bgl", choices=synth.FORMATS)
    p.add_argument("--templates", type=int, default=8)
    p.add_argument("--lines", type=int, default=10000)
    p.add_argument("--anomaly-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--name", help="output file stem")
    return parser


def _cmd_load(args) -> int:
    spec = loaders.LoaderSpec(args.format, Path(args.log),
                              Path(args.labels) if args.labels else None)
    events, sequences = loaders.load(spec)
    report = validate_event_table(events)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tables(out, events, sequences, args.csv)
    line = f"events: {len(events)} rows -> {out / 'events.table.json'}"
    if sequences is not None:
        line += f"; sequences: {len(sequences)} rows"
    print(line)
    print(f"validation: {report.summary()}")
    return 0


def _cmd_enhance(args) -> int:
    steps = parse_chain(args.chain)
    validate_chain(steps, allow_ngram=False)
    rules = load_rules(args.rules)
    events = Table.load(args.table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events, seq_table, store = run_chain(events, steps, rules)
    if store is not None:
        store.save(out / "templates.json")
        print(f"{store.parser_kind}: {len(store)} templates "
              f"-> {out / 'templates.json'}")
    write_tables(out, events, seq_table, args.csv)
    if seq_table is not None:
        print(f"sequences: {len(seq_table)} rows")
    print(f"events: {len(events)} rows, columns {events.column_names}")
    return 0


def _cmd_detect(args) -> int:
    config = PipelineConfig.from_file(args.config)
    report = run_pipeline(config)
    print(report)
    print(f"artifacts in {config.out_dir}")
    return 0


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError("--repeats must be at least 1")
    spec = loaders.LoaderSpec(args.format, Path(args.log))
    try:
        if args.task == "loading":
            report = bench.bench_loading(spec, repeats=args.repeats)
        else:
            events, _ = loaders.load(spec)
            report = bench.bench_masking_offload(
                list(events["m_message"]), parser=args.parser,
                repeats=args.repeats)
    except ValueError as exc:  # a format the task cannot read unlabelled
        raise ConfigError(str(exc)) from None
    print(report)
    a, b = report.rows
    print(f"{b.phase} / {a.phase} median: {b.median / a.median:.2f}")
    if args.out:
        report.write_csv(args.out)
        print(f"csv -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    paths = synth.generate_synthetic(
        args.out, format=args.format, n_templates=args.templates,
        n_lines=args.lines, anomaly_rate=args.anomaly_rate, seed=args.seed,
        name=args.name)
    for key, value in paths.items():
        if value is not None:
            print(f"{key}: {value}")
    return 0


_COMMANDS = {
    "load": _cmd_load,
    "enhance": _cmd_enhance,
    "detect": _cmd_detect,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if args.verbose:
            logging.basicConfig(level=logging.INFO,
                                format="%(name)s: %(message)s")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
