"""Golden format pins: stored snapshots, their v1 rendering and the JSON
stdout of the CLI reports must stay byte-identical as the code that writes
them changes."""

import hashlib
import json
import shutil
from pathlib import Path

from engram.cli import main
from engram.consolidation import MODE_AGGRESSIVE, MODE_DEDUP, MODE_NONE
from engram.harness import StreamSpec, generate_stream, stream_run
from engram.model import StoreConfig
from engram.store import MemoryStore

from oracles import as_v1, thin_tombstones

DATA = Path(__file__).parent / "data"
SNAPSHOT_V1 = DATA / "snapshot_v1.json"
SNAPSHOT_V2 = DATA / "snapshot_v2.json"
CLI_GOLDEN = DATA / "cli_golden.json"

# `snapshot_v1.json` and `cli_golden.json` were written by the hand-written
# serializers that the codec replaced. The snapshot is never regenerated: it
# is the v1 format, with dense float lists for arrays. `snapshot_v2.json` is
# that store loaded and written once by the v2 writer, whose arrays are
# sparse; the three `run` checkpoint fingerprints in `cli_golden.json` were
# rewritten once for v2, and no other byte of it. The v1 snapshot is
# a `StoreConfig(cluster_distance=0.8, embed_dimension=32)` store: session 0 of
# `generate_stream(StreamSpec(sessions=2, events_per_session=10), seed=3)`
# consolidated in aggressive mode and forgotten to budget 3000; session 1 plus
# one out-of-order and one causally inverted event consolidated in dedup mode;
# then the first three retained records by id degraded by one, two and three
# levels, and the last retained record by id opened for lability.


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_snapshot_v1_fixture_reserializes_byte_identical():
    text = SNAPSHOT_V1.read_text(encoding="utf-8")
    assert as_v1(MemoryStore.load_snapshot(str(SNAPSHOT_V1)).snapshot_json()) == text


def test_snapshot_v1_fixture_loads_as_the_v2_fixture():
    v2 = SNAPSHOT_V2.read_text(encoding="utf-8")
    assert json.loads(v2)["version"] == 2
    assert MemoryStore.load_snapshot(str(SNAPSHOT_V1)).snapshot_json() == v2
    assert MemoryStore.load_snapshot(str(SNAPSHOT_V2)).snapshot_json() == v2


def test_cli_snapshot_upgrades_a_v1_store(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(SNAPSHOT_V1, "store.json")
    assert main(["--store", "store.json", "snapshot", "out.json"]) == 0
    capsys.readouterr()
    assert Path("out.json").read_bytes() == SNAPSHOT_V2.read_bytes()


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



# `stream_run` checkpoint fingerprints of the v1 rendering of each
# checkpoint's snapshot with its tombstones thinned to existence metadata:
# the transaction copy, the v2 writer and the tombstone constructor must not
# change what any checkpoint holds. The fields thinning drops are the ones
# no engine path reads once a record is a tombstone.
STREAM_FINGERPRINTS = DATA / "stream_fingerprints.json"
STREAM_PIN_SPEC = StreamSpec(sessions=8, events_per_session=40,
                             planted_violations=6)
STREAM_PIN_RUNS = {
    "dedup": (MODE_DEDUP, StoreConfig()),
    "aggressive": (MODE_AGGRESSIVE, StoreConfig(cluster_distance=0.8)),
    "none": (MODE_NONE, StoreConfig()),
}


def stream_fingerprints() -> dict[str, list[str]]:
    """For seeds 0 and 1 in every pinned mode, the sha256 of the v1
    rendering of each checkpoint's snapshot with thinned tombstones, read by
    a spy on `MemoryStore.snapshot_json`; each checkpoint's
    `state_fingerprint` must be the sha256 of the v2 text itself, and the
    engine's tombstones must already be thin. `python tests/test_golden.py`
    rewrites the data file from them."""
    out = {}
    seen: list[tuple[str, str]] = []  # (v2 hash, v1 hash) per snapshot
    real = MemoryStore.snapshot_json

    def spy(store):
        text = real(store)
        assert thin_tombstones(text) == text
        seen.append((sha256(text), sha256(as_v1(thin_tombstones(text)))))
        return text

    MemoryStore.snapshot_json = spy
    try:
        for seed in (0, 1):
            manifest = generate_stream(STREAM_PIN_SPEC, seed=seed)
            for name, (mode, config) in STREAM_PIN_RUNS.items():
                seen.clear()
                metrics = stream_run(manifest, config, mode=mode, budget=3000)
                assert [c.state_fingerprint for c in metrics.checkpoints] \
                    == [v2 for v2, _v1 in seen]
                out[f"{name}-{seed}"] = [v1 for _v2, v1 in seen]
    finally:
        MemoryStore.snapshot_json = real
    return out


def test_stream_run_fingerprints_match_pins():
    pinned = json.loads(STREAM_FINGERPRINTS.read_text(encoding="utf-8"))
    assert stream_fingerprints() == pinned


if __name__ == "__main__":
    STREAM_FINGERPRINTS.write_text(
        json.dumps(stream_fingerprints(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
