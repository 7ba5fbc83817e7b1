"""Golden v1 format pins: a stored snapshot and the JSON stdout of the CLI
reports must stay byte-identical as the code that writes them changes."""

import json
from pathlib import Path

from engram.cli import main
from engram.consolidation import MODE_AGGRESSIVE, MODE_DEDUP, MODE_NONE
from engram.harness import StreamSpec, generate_stream, stream_run
from engram.model import StoreConfig
from engram.store import MemoryStore

DATA = Path(__file__).parent / "data"
SNAPSHOT_V1 = DATA / "snapshot_v1.json"
CLI_GOLDEN = DATA / "cli_golden.json"

# Both data files were written by the hand-written serializers that the codec
# replaced, and are never regenerated: they are the v1 format. The snapshot is
# a `StoreConfig(cluster_distance=0.8, embed_dimension=32)` store: session 0 of
# `generate_stream(StreamSpec(sessions=2, events_per_session=10), seed=3)`
# consolidated in aggressive mode and forgotten to budget 3000; session 1 plus
# one out-of-order and one causally inverted event consolidated in dedup mode;
# then the first three retained records by id degraded by one, two and three
# levels, and the last retained record by id opened for lability.


def test_snapshot_v1_fixture_reserializes_byte_identical():
    text = SNAPSHOT_V1.read_text(encoding="utf-8")
    assert MemoryStore.load_snapshot(str(SNAPSHOT_V1)).snapshot_json() == text


def test_snapshot_v1_fixture_covers_every_persisted_type():
    d = json.loads(SNAPSHOT_V1.read_text(encoding="utf-8"))
    records = d["records"]
    assert {r["fidelity"] for r in records} >= {0, 1, 2, 3, 5}
    assert any(r["state"] == "tombstone" for r in records)
    assert any(r["event"]["metadata"] for r in records)
    assert any(r["event"]["causes"] for r in records)
    assert any(len(m["source_ids"]) > 1 for m in d["graph"]["memories"])
    assert d["graph"]["co_occurs"]
    assert {q["reason"] for q in d["quarantine"]} == {"out_of_order",
                                                      "causal_inversion"}
    assert d["labile_until"]
    assert d["watermark"] is not None
    assert d["centroid_sum"] is not None


SPEC = {"sessions": 3, "events_per_session": 8, "planted_violations": 2,
        "core_pool_size": 5, "start_time": "2026-02-01T00:00:00Z"}

# (name, argv); every command's stdout is pinned, and so is the stream file
# that `generate` writes
CLI_FLOW = [
    ("generate", ["generate", "--spec", "spec.json", "--seed", "2",
                  "--out", "stream.jsonl", "--manifest", "truth.json"]),
    ("run", ["run", "--stream", "stream.jsonl", "--manifest", "truth.json",
             "--mode", "aggressive", "--budget", "400", "--format", "json"]),
    ("ingest", ["--store", "st.json", "ingest", "stream.jsonl"]),
    ("consolidate", ["--store", "st.json", "consolidate", "--mode", "aggressive",
                     "--now", "2026-02-02T01:00:00Z"]),
    ("forget", ["--store", "st.json", "forget", "--budget", "300",
                "--now", "2026-02-03T00:00:00Z"]),
    ("retrieve", ["--store", "st.json", "retrieve", "Kestrel regression rollout",
                  "--k", "5"]),
    ("calibrate", ["calibrate"]),
]


def cli_outputs(capsys) -> dict[str, str]:
    """Run the pinned CLI flow in the current directory and collect every
    stdout."""
    Path("spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    out = {}
    for name, argv in CLI_FLOW:
        assert main(argv) == 0, name
        out[name] = capsys.readouterr().out
    out["generate_stream"] = Path("stream.jsonl").read_text(encoding="utf-8")
    return out


def test_cli_outputs_match_golden(tmp_path, monkeypatch, capsys):
    golden = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    got = cli_outputs(capsys)
    assert set(got) == set(golden)
    for name in golden:
        assert got[name] == golden[name], name



# `stream_run` checkpoint fingerprints, recorded before records became frozen
# values: the transaction copy must not change what any checkpoint holds.
STREAM_FINGERPRINTS = DATA / "stream_fingerprints.json"
STREAM_PIN_SPEC = StreamSpec(sessions=8, events_per_session=40,
                             planted_violations=6)
STREAM_PIN_RUNS = {
    "dedup": (MODE_DEDUP, StoreConfig()),
    "aggressive": (MODE_AGGRESSIVE, StoreConfig(cluster_distance=0.8)),
    "none": (MODE_NONE, StoreConfig()),
}


def stream_fingerprints() -> dict[str, list[str]]:
    """Checkpoint fingerprints for seeds 0 and 1 in every pinned mode.
    `python tests/test_golden.py` rewrites the data file from them."""
    out = {}
    for seed in (0, 1):
        manifest = generate_stream(STREAM_PIN_SPEC, seed=seed)
        for name, (mode, config) in STREAM_PIN_RUNS.items():
            metrics = stream_run(manifest, config, mode=mode, budget=3000)
            out[f"{name}-{seed}"] = [c.state_fingerprint
                                     for c in metrics.checkpoints]
    return out


def test_stream_run_fingerprints_match_pins():
    pinned = json.loads(STREAM_FINGERPRINTS.read_text(encoding="utf-8"))
    assert stream_fingerprints() == pinned


if __name__ == "__main__":
    STREAM_FINGERPRINTS.write_text(
        json.dumps(stream_fingerprints(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
