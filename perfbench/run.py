"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bgl-ingest --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The workload runs in a fresh child process
(``worker.py``) so its peak RSS is its own, with BLAS threads capped at the
usable core count. The corpus goes to a scratch directory under
``.perfbench_work/`` that is removed at exit; with ``--trace 1`` the spans
go to ``.perfbench_out/``.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics; both read their names and units from
``BENCHMARK.json``. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170
# a percentile is reported only with this many passes beyond it
TAIL_SAMPLES = 10


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "logbench").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least TAIL_SAMPLES samples above."""
    if n < 2 * TAIL_SAMPLES:
        return None
    return int(100 * (1 - TAIL_SAMPLES / n))


def run_child(args, work: Path, cores: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(cores)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            die(f"workload did not finish within {CHILD_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        die(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(fig: dict) -> dict:
    wall = statistics.median(fig["walls"])
    return {
        "wall_s": wall,
        "lines_per_s": fig["n_lines"] / wall,
        "peak_rss_mb": fig["peak_rss_mb"],
        "setup_s": fig["setup_s"],
        "f1": fig["f1"],
    }


def per_layer(fig: dict) -> dict:
    runs = fig["layer_runs"]
    # counts repeat exactly from pass to pass; times take the median
    out = {name: (value if isinstance(value, int)
                  else statistics.median(run[name] for run in runs))
           for name, value in runs[-1].items()}
    out["trace.overhead_s"] = (statistics.median(fig["traced_walls"])
                               - statistics.median(fig["walls"]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "logbench" / "pipeline.py").is_file():
        die(f"no logbench sources under {SRC}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        die("--seconds must be positive")

    cores = len(os.sched_getaffinity(0))
    identity = source_identity()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        fig = run_child(args, work, cores)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {"nproc": cores, "python": fig["python"], "numpy": fig["numpy"],
           "scipy": fig["scipy"], **identity}
    print("env: " + json.dumps(env))
    n = len(fig["walls"])
    p = tail_percentile(n)
    tail = (f"p{p} {sorted(fig['walls'])[int(n * p / 100)]:.4f} s"
            if p else f"no percentile has {TAIL_SAMPLES} passes above it; "
            f"max {max(fig['walls']):.4f} s")
    print(f"wall_s over {n} timed passes: median "
          f"{statistics.median(fig['walls']):.4f} s, {tail}; passes: "
          + " ".join(f"{w:.3f}" for w in fig["walls"]))
    print(f"error_rate: {fig['failed']}/{fig['attempted']} passes failed")
    for why in fig["failures"]:
        print(f"failure: {why}")

    if args.trace:
        values = per_layer(fig)
        metrics = spec["per_layer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "env": env,
             "spans": fig["spans"]}) + "\n", encoding="utf-8")
        print(f"spans: {trace_path}")
    else:
        values = end_to_end(fig)
        metrics = spec["end_to_end"]
    result = {}
    for m in metrics:
        # a layer the workload never calls has no spans and no counts
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value} {m['unit']}")
    print(json.dumps({"correct": fig["failed"] == 0,
                      "attempted": fig["attempted"],
                      "failed": fig["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
