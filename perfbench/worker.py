"""One workload in one fresh process: set up, warm up, measure, check.

Started by ``run.py`` with the workload name, seed, measuring window, trace
flag and a scratch directory; prints human-readable lines and then one JSON
line with the raw figures, which ``run.py`` turns into the result.

Every pass goes through the public entry point ``pipeline.run_pipeline``
on a corpus written by ``synth.generate_synthetic``. After each pass, and
outside its timing, the outputs are checked; a pass that raises or fails
a check counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_t_import = time.perf_counter()
import numpy  # noqa: E402
import scipy  # noqa: E402
from logbench import synth  # noqa: E402
from logbench.loaders import LoaderSpec  # noqa: E402
from logbench.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from logbench.tables import Table  # noqa: E402
IMPORT_S = time.perf_counter() - _t_import

import tracing  # noqa: E402

# generated templates plus the fault template anomalies use; with all ten
# templates every seed gets the same token counts (5..14, see synth)
N_TEMPLATES = 10
EXPECTED_TEMPLATES = N_TEMPLATES + 1
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    fmt: str
    n_lines: int
    chain: list[str]
    features: str
    detector: str
    # save the tables and time a reload of the events table
    reload: bool


# Why each workload exists, and which layers it loads, is in README.md.
WORKLOADS = {
    "bgl-ingest": Workload("bgl", 100_000, ["normalize", "tokenize", "drain"],
                           "event_ids", "rarity", reload=True),
    "hdfs-detect": Workload("hdfs", 100_000,
                            ["normalize", "tokenize", "drain", "ngram",
                             "aggregate"],
                            "words", "dt", reload=False),
    "bgl-spell": Workload("bgl", 50_000, ["normalize", "tokenize", "spell"],
                          "event_ids", "lr", reload=False),
}
ANOMALY_RATE = 0.05


def grouping_accuracy(pred, truth) -> float:
    """Share of lines whose predicted group has exactly the members of
    their true template's group (the definition acceptance gate C1 uses)."""
    pred_groups: dict = {}
    truth_groups: dict = {}
    for i, (p, t) in enumerate(zip(pred, truth)):
        pred_groups.setdefault(p, []).append(i)
        truth_groups.setdefault(t, []).append(i)
    correct = 0
    for members in pred_groups.values():
        if truth_groups[truth[members[0]]] == members:
            correct += len(members)
    return correct / len(truth)


def read_truth_template_ids(path: Path) -> list[int]:
    with open(path, encoding="utf-8") as f:
        next(f)
        return [int(line.split(",")[1]) for line in f]


class Runner:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.paths = None
        self.truth_ids = None
        self.f1 = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def generate(self) -> float:
        """Write the corpus; returns the seconds it took."""
        t0 = time.perf_counter()
        self.paths = synth.generate_synthetic(
            self.work / "corpus", self.w.fmt, n_templates=N_TEMPLATES,
            n_lines=self.w.n_lines, anomaly_rate=ANOMALY_RATE,
            seed=self.seed, name=self.name)
        return time.perf_counter() - t0

    def config(self) -> PipelineConfig:
        spec = LoaderSpec(self.w.fmt, self.paths["log"], self.paths["labels"])
        return PipelineConfig(spec, self.w.chain, self.out,
                              feature_source=self.w.features,
                              detector=self.w.detector,
                              detector_seed=self.seed,
                              split_seed=self.seed,
                              save_tables=self.w.reload)

    def one_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """Run, time and check one pass; returns its wall seconds.

        With a tracer, its pass span covers exactly the timed region.
        """
        self.attempted += 1
        config = self.config()
        reloaded = None
        if tracer is not None:
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            report = run_pipeline(config)
            if self.w.reload:
                reloaded = Table.load(self.out / "events.table.json")
        except Exception as exc:  # a failed pass is counted, not fatal
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_pass()
            self._fail(f"pass raised {type(exc).__name__}: {exc}")
            return wall
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_pass()
        problems = self.check(report, reloaded)
        if problems:
            self._fail("; ".join(problems))
        del report, reloaded
        gc.collect()
        return wall

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)
        print(f"pass {self.attempted} FAILED: {why}", flush=True)

    def check(self, report, reloaded) -> list[str]:
        problems = []
        with open(self.out / "templates.json", encoding="utf-8") as f:
            n_templates = len(json.load(f)["templates"])
        if n_templates != EXPECTED_TEMPLATES:
            problems.append(f"templates.json holds {n_templates} templates, "
                            f"expected {EXPECTED_TEMPLATES}")
        with open(self.out / "report.json", encoding="utf-8") as f:
            f1 = json.load(f)["f1_binary"]
        if f1 != report.f1_binary:
            problems.append("report.json f1 differs from the returned one")
        if self.f1 is None:
            self.f1 = f1
        elif f1 != self.f1:
            problems.append(f"f1 {f1!r} differs from first pass {self.f1!r}")
        if reloaded is not None:
            if len(reloaded) != self.w.n_lines:
                problems.append(f"reloaded table has {len(reloaded)} rows, "
                                f"expected {self.w.n_lines}")
            else:
                if self.truth_ids is None:
                    self.truth_ids = read_truth_template_ids(
                        self.paths["truth"])
                ga = grouping_accuracy(reloaded["e_event_id"].tolist(),
                                       self.truth_ids)
                if ga != 1.0:
                    problems.append(f"grouping accuracy {ga!r}, expected 1.0")
        return problems


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Warm up once, then pass until ``seconds`` of passes have elapsed.

    With ``trace``, untraced and traced passes alternate, so the tracing
    overhead is measured on the same process state.
    """
    runner.one_pass()
    walls: list[float] = []
    tracer = tracing.Tracer() if trace else None
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    spent = 0.0
    while spent < seconds or not walls or (trace and not traced_walls):
        if trace and len(traced_walls) < len(walls):
            spent += traced_pass(runner, tracer, traced_walls, layer_runs)
        else:
            wall = runner.one_pass()
            walls.append(wall)
            spent += wall
    out = {"walls": walls}
    if trace:
        out["traced_walls"] = traced_walls
        out["layer_runs"] = layer_runs
        out["spans"] = tracer.span_records()
    return out


def traced_pass(runner: Runner, tracer: tracing.Tracer,
                traced_walls: list, layer_runs: list) -> float:
    tracing.install(tracer)
    try:
        wall = runner.one_pass(tracer)
    finally:
        tracer.uninstall()
    selfs = tracer.self_times(len(traced_walls))
    traced_walls.append(wall)
    layer = {f"{name}_s": t for name, t in selfs.items()}
    # the pass span's own time is everything no layer span covers
    layer["pipeline.other_s"] = (layer.pop("pipeline.pass_s")
                                 - tracer.bookkeeping_s)
    counts = dict(tracer.counts)
    distinct = counts.pop("masking.distinct", 0)
    if counts.get("masking.rows"):
        counts["masking.distinct_ratio"] = distinct / counts["masking.rows"]
    layer.update(counts)
    layer["detectors.maxrss_delta_mb"] = tracer.rss_delta_bytes() / 2**20
    layer_runs.append(layer)
    return wall


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()

    runner = Runner(args.workload, args.seed, args.work)
    gen_s = [runner.generate() for _ in range(SETUP_REPEATS)]
    print(f"setup: imports {IMPORT_S:.3f} s, corpus generation "
          f"{', '.join(f'{g:.3f}' for g in gen_s)} s", flush=True)

    figures = measure(runner, args.seconds, bool(args.trace))
    figures.update({
        "setup_s": IMPORT_S + statistics.median(gen_s),
        "n_lines": runner.w.n_lines,
        "f1": runner.f1 if runner.f1 is not None else 0.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:5],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
