"""Golden bytes: the artifacts of small seeded pipelines, pinned by sha256
across versions of the code.

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

_HDFS_CHAIN = ["normalize", "tokenize", "drain", "aggregate"]
# one small run per loader family: bgl-ingest's chain and features, and
# hdfs-detect's with the aggregate step; hdfs-detect's full chain, which
# also trains the n-gram model; then one HDFS run on event-id features per
# other detector kind. oov flags nothing there: every test id is known, its
# scores are all 0, and its threshold of 0 is strict.
_RUNS = {
    "bgl": ("bgl", dict(chain=["normalize", "tokenize", "drain"],
                        feature_source="event_ids", detector="rarity")),
    "hdfs": ("hdfs", dict(chain=_HDFS_CHAIN, feature_source="words",
                          detector="dt")),
    "hdfs-ngram": ("hdfs", dict(chain=["normalize", "tokenize", "drain",
                                       "ngram", "aggregate"],
                                feature_source="words", detector="dt")),
    **{f"hdfs-{kind}": ("hdfs", dict(chain=_HDFS_CHAIN,
                                     feature_source="event_ids",
                                     detector=kind))
       for kind in ("lr", "kmeans", "iforest", "oov", "rarity")},
}

_GOLDEN = {
    "bgl": {
        "events.table.json":
            "e2d75b0b150dfd5099e40caab8fdf3809178802de1abecc0e9eb7eec691f923a",
        "events.csv":
            "a92da689022899956ce620b3244c2748254d13bbd7f7274736f1fbc6972013ea",
        "templates.json":
            "9c701377d0c688bdf73ff530e287bdc844512945ae0dde8ea129aaf9351bf441",
        "model.json":
            "6092c92fdc59514b93771e006618857484d6fbad531386b7c617d56b3d87349d",
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
        "model.json":
            "de0674a1d82c11b0c87f4a105717e837f301917b8eb7c9598542767a7e68485e",
        "report.json":
            "eaf4772c31f68fff7deacb76c80fefd5e2996ce24428f9dde1b163266eef3bef",
    },
    "hdfs-ngram": {
        "ngram_model.json":
            "00a89201b1d1da57ac58450bd6a52d1a07967470d7fddfe18213ccf3b8c7ca7e",
        "report.json":
            "eaf4772c31f68fff7deacb76c80fefd5e2996ce24428f9dde1b163266eef3bef",
    },
    "hdfs-lr": {
        "model.json":
            "1c3d27064291efde62d5eece13a952856925ac87f8faa18aed4931a13b848796",
        "report.json":
            "eaf4772c31f68fff7deacb76c80fefd5e2996ce24428f9dde1b163266eef3bef",
    },
    "hdfs-kmeans": {
        "model.json":
            "a94227b12604a56af22cd034cbc0e98ad77cb6e50aa1874890dd7886ec240f08",
        "report.json":
            "936aa6c76c008e12633591c1c482ce7b746fdd4c74204b319079d687d5fc6045",
    },
    "hdfs-iforest": {
        "model.json":
            "befb0ba5a5a0577e81dc1e0fe3a77ede0e5f6f4d74c66d7cd652196018a928fc",
        "report.json":
            "bea3ce2c359ca6d525c21644cccba4c6ef9f3d84705a2541acc7760f034f68cc",
    },
    "hdfs-oov": {
        "model.json":
            "f2f79e830af2a2541b2945585859e92dc7ca8c07edb5ee61c9e43e68e80b7e7d",
        "report.json":
            "46a6be602b6b3d6d5ad4c50aab94d60d6fa12b25506cb682249b0cb35dee0708",
    },
    "hdfs-rarity": {
        "model.json":
            "287c4ec27ee1917435ec6acbe4039dd412755153b45b96a3e6c8400086ca5081",
        "report.json":
            "e71fe99f80b923879ac9a2d26f9e0676330d6c6c92df45f97682f26008afcd1a",
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


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return {fmt: generate_synthetic(root / fmt, format=fmt, n_templates=6,
                                    n_lines=3000, anomaly_rate=0.05, seed=17)
            for fmt in ("bgl", "hdfs")}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_artifacts_match_golden_digests(tmp_path, corpora, run):
    fmt, settings = _RUNS[run]
    data = corpora[fmt]
    spec = LoaderSpec(fmt, data["log"], data["labels"])
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(spec, out_dir=out, save_tables=True,
                                detector_seed=3, split_seed=5, **settings))
    got = {name: _digest(out / name) for name in _GOLDEN[run]}
    assert got == _GOLDEN[run]
