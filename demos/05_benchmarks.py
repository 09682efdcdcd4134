"""Time the paper's two speed claims on synthetic data.

Two paired harnesses, each running its two variants alternately and
reporting medians over the repeats:

  loading  - loaders.load against a logparser-style reference (one header
             regex per line, no pandas), on BGL and HDFS logs
  offload  - masking done once on the message column versus inside the
             parser loop, message by message; batching the column wins

Sizes here are kept small enough for a quick run; raise --lines to stress.
"""

import argparse
import tempfile
from pathlib import Path

from logbench import bench, loaders, synth
from logbench.synth import make_template_corpus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lines", type=int, default=100_000)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("bgl", "hdfs"):
            paths = synth.generate_synthetic(Path(tmp), format=fmt,
                                             n_lines=args.lines,
                                             seed=args.seed)
            report = bench.bench_loading(loaders.LoaderSpec(fmt, paths["log"]),
                                         repeats=args.repeats)
            print(f"loading ({fmt}):")
            print(report)
            load = report.row("load")
            reference = report.row("reference").median
            print(f"-> {load.lines / load.median:,.0f} lines/s, "
                  f"{reference / load.median:.2f}x the speed of the "
                  f"reference\n")

    messages = make_template_corpus(8, min(args.lines, 30_000),
                                    args.seed)["messages"]
    print(f"masking offload ({len(messages)} messages):")
    report = bench.bench_masking_offload(messages, parser="drain",
                                         repeats=args.repeats)
    print(report)
    pipeline = report.row("pipeline_total").median
    internal = report.row("parser_internal_total").median
    print(f"-> column masking is {internal / pipeline:.2f}x the speed of "
          f"in-parser masking on this corpus")


if __name__ == "__main__":
    main()
