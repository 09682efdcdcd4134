"""Golden bytes: the artifacts of two small seeded pipelines, pinned by
sha256 across versions of the code.

C7 compares two reruns of one tree; these digests compare every tree with
the one they were taken from. A change that moves any of them changes the
file format or the results, and has to say so and update the digest.
"""

import hashlib
import json

import pytest

from logbench.loaders import LoaderSpec
from logbench.pipeline import PipelineConfig, run_pipeline
from logbench.synth import generate_synthetic

# one small run per loader family: bgl-ingest's chain and features, and
# hdfs-detect's with the aggregate step
_RUNS = {
    "bgl": dict(chain=["normalize", "tokenize", "drain"],
                feature_source="event_ids", detector="rarity"),
    "hdfs": dict(chain=["normalize", "tokenize", "drain", "aggregate"],
                 feature_source="words", detector="dt"),
}

_GOLDEN = {
    "bgl": {
        "events.table.json":
            "e2d75b0b150dfd5099e40caab8fdf3809178802de1abecc0e9eb7eec691f923a",
        "events.csv":
            "a92da689022899956ce620b3244c2748254d13bbd7f7274736f1fbc6972013ea",
        "templates.json":
            "9c701377d0c688bdf73ff530e287bdc844512945ae0dde8ea129aaf9351bf441",
        "report.json":
            "6ac2fd7fa6336485963e28346b2747c45967e27855572b46812ff4ecf3d7788d",
    },
    "hdfs": {
        "events.table.json":
            "5e404795959f71a44b33e621d51dfafd7ea1300f388e28e0f3cce976509d9172",
        "events.csv":
            "bbbfb6d7f30958041df71c78260d45a995b235058442a95add17832382dcf7d3",
        "sequences.table.json":
            "2bdbf2da5900bc1203ef068333e7f3690fe7863b834b60fd65ae7efcba3400be",
        "sequences.csv":
            "93108546ca692054d12c8fd42ac57bd7f6e873d3a514783e8283da54870a1e57",
        "templates.json":
            "9058b09edae88facd8c1f3fb87771dc03736c27e35901e43c78b28c917c273ed",
        "report.json":
            "eaf4772c31f68fff7deacb76c80fefd5e2996ce24428f9dde1b163266eef3bef",
    },
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        # wall times differ from run to run; everything else is pinned
        report = json.loads(data)
        del report["wall_clock_ms"]
        data = (json.dumps(report, ensure_ascii=False, indent=2)
                + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", sorted(_RUNS))
def test_artifacts_match_golden_digests(tmp_path, fmt):
    data = generate_synthetic(tmp_path / "data", format=fmt, n_templates=6,
                              n_lines=3000, anomaly_rate=0.05, seed=17)
    spec = LoaderSpec(fmt, data["log"], data["labels"])
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(spec, out_dir=out, save_tables=True,
                                detector_seed=3, split_seed=5,
                                **_RUNS[fmt]))
    got = {name: _digest(out / name) for name in _GOLDEN[fmt]}
    assert got == _GOLDEN[fmt]
