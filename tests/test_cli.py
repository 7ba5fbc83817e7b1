import json

import pytest

from engram.calibration import generate_corpus
from engram.cli import main
from engram.codec import utc

pytestmark = pytest.mark.usefixtures("tmp_cwd")


@pytest.fixture
def tmp_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_generate_ingest_stats_flow(tmp_path, capsys):
    code, out = _run(capsys, "generate", "--out", "stream.jsonl",
                     "--manifest", "truth.json", "--seed", "0")
    assert code == 0
    assert json.loads(out.strip())["events"] == 1000

    code, out = _run(capsys, "--store", "st.json", "ingest", "stream.jsonl")
    assert code == 0
    assert json.loads(out.strip()) == {"ingested": 1000}

    code, out = _run(capsys, "--store", "st.json", "stats")
    stats = json.loads(out.strip())
    assert stats["records"] == 1000
    assert stats["active"] == 1000


def test_consolidate_retrieve_and_graph(tmp_path, capsys):
    events = [
        {"id": "a", "ts": "2026-01-05T00:00:00Z", "session_id": "s",
         "actor": "user", "kind": "comment",
         "content": "Alice approved the Meridian budget",
         "metadata": {"outcome": "success"}},
        {"id": "b", "ts": "2026-01-05T00:01:00Z", "session_id": "s",
         "actor": "user", "kind": "comment",
         "content": "lunch order placed for the team"},
    ]
    (tmp_path / "in.jsonl").write_text(
        "\n".join(json.dumps(e) for e in events), encoding="utf-8")
    _run(capsys, "--store", "st.json", "ingest", "in.jsonl")
    code, out = _run(capsys, "--store", "st.json", "consolidate",
                     "--now", "2026-01-05T01:00:00Z")
    assert code == 0
    report = json.loads(out.strip())
    assert report["input_count"] == 2

    code, out = _run(capsys, "--store", "st.json", "retrieve",
                     "Meridian budget", "--k", "1")
    assert code == 0
    hit = json.loads(out.strip().splitlines()[0])
    assert hit["memory_id"] == "a"

    code, out = _run(capsys, "--store", "st.json", "graph", "stats")
    assert code == 0
    assert json.loads(out.strip())["entities"] >= 2

    code, out = _run(capsys, "--store", "st.json", "graph", "neighbors",
                     "alice")
    assert code == 0
    names = [row["entity"] for row in json.loads(out.strip())]
    assert "meridian" in names


def test_run_over_generated_stream(tmp_path, capsys):
    _run(capsys, "generate", "--out", "stream.jsonl",
         "--manifest", "truth.json", "--seed", "0")
    code, out = _run(capsys, "run", "--stream", "stream.jsonl",
                     "--manifest", "truth.json", "--every-n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["retention_precision"] >= 0.9
    assert doc["store_reduction"] >= 0.4


def test_snapshot_and_load(tmp_path, capsys):
    (tmp_path / "one.jsonl").write_text(json.dumps(
        {"id": "a", "ts": "2026-01-05T00:00:00Z", "session_id": "s",
         "actor": "user", "kind": "comment", "content": "hi"}) + "\n",
        encoding="utf-8")
    _run(capsys, "--store", "st.json", "ingest", "one.jsonl")
    code, _ = _run(capsys, "--store", "st.json", "snapshot", "backup.json")
    assert code == 0
    code, out = _run(capsys, "--store", "st2.json", "load", "backup.json")
    assert code == 0
    assert json.loads(out.strip()) == {"loaded_records": 1}


def test_calibrate_writes_profile(tmp_path, capsys):
    code, out = _run(capsys, "calibrate", "--out", "profile.json")
    assert code == 0
    profile = json.loads((tmp_path / "profile.json").read_text())
    assert set(profile) == {"near_dedup_threshold", "cluster_distance",
                            "interference_threshold", "corpus_fingerprint"}
    assert json.loads(out) == profile


def test_calibrate_corpus_file_prints_what_plain_calibrate_prints(tmp_path, capsys):
    (tmp_path / "corpus.jsonl").write_text(generate_corpus(seed=0).to_jsonl(),
                                           encoding="utf-8")
    code, plain = _run(capsys, "calibrate")
    assert code == 0
    code, from_file = _run(capsys, "calibrate", "--corpus", "corpus.jsonl")
    assert code == 0
    assert from_file == plain


def test_out_of_range_counts_exit_nonzero(tmp_path, capsys):
    (tmp_path / "in.jsonl").write_text("\n".join(json.dumps(
        {"id": f"e{i}", "ts": f"2026-01-05T00:0{i}:00Z", "session_id": f"s{i}",
         "actor": "user", "kind": "comment", "content": f"alpha topic {i}"})
        for i in range(5)), encoding="utf-8")
    _run(capsys, "--store", "st.json", "ingest", "in.jsonl")
    for k in ("0", "-1", "-2"):
        code, out = _run(capsys, "--store", "st.json", "retrieve", "alpha",
                         "--k", k)
        assert (code, out) == (1, "")
    for every_n in ("0", "-5"):
        code, out = _run(capsys, "run", "--stream", "in.jsonl",
                         "--every-n", every_n)
        assert (code, out) == (1, "")


def test_missing_file_fails_nonzero(capsys):
    code, _ = _run(capsys, "ingest", "no-such-file.jsonl")
    assert code == 1


def test_forget_with_budget(tmp_path, capsys):
    lines = []
    for i in range(20):
        lines.append(json.dumps(
            {"id": f"e{i}", "ts": f"2026-01-05T00:{i:02d}:00Z",
             "session_id": "s", "actor": "user", "kind": "comment",
             "content": f"event {i} " + " ".join(f"w{i}{j}" for j in range(8))}))
    (tmp_path / "in.jsonl").write_text("\n".join(lines), encoding="utf-8")
    _run(capsys, "--store", "st.json", "ingest", "in.jsonl")
    _run(capsys, "--store", "st.json", "consolidate",
         "--now", "2026-01-05T02:00:00Z")
    code, out = _run(capsys, "--store", "st.json", "forget", "--budget", "100",
                     "--now", "2026-01-05T03:00:00Z")
    assert code == 0
    report = json.loads(out.strip())
    assert report["tokens_after"] <= 100 or report["budget_steps"] > 0


def test_consolidate_at_a_past_now_takes_the_records_encoded_by_then(tmp_path, capsys):
    _run(capsys, "generate", "--out", "stream.jsonl", "--seed", "0")
    _run(capsys, "--store", "st.json", "ingest", "stream.jsonl")
    stamps = [utc(json.loads(line)["ts"]) for line in
              (tmp_path / "stream.jsonl").read_text(encoding="utf-8").splitlines()]
    code, out = _run(capsys, "--store", "st.json", "consolidate",
                     "--now", "2026-01-10T00:00:00Z")
    assert code == 0
    first = json.loads(out)
    assert 0 < first["input_count"] == sum(t <= utc("2026-01-10T00:00:00Z") for t in stamps)
    code, out = _run(capsys, "--store", "st.json", "consolidate",
                     "--now", "2026-01-15T00:00:00Z")
    assert code == 0
    rest = json.loads(out)
    # the first batch's quarantine has expired: each entry is re-admitted,
    # and counted again, or dropped
    readmitted = first["quarantined"] - len(rest["quarantine_dropped"])
    assert rest["input_count"] == len(stamps) - first["input_count"] + readmitted


def test_retrieve_as_of_before_every_record(tmp_path, capsys):
    (tmp_path / "one.jsonl").write_text(json.dumps(
        {"id": "a", "ts": "2026-01-05T00:00:00Z", "content": "Kestrel rollout"}),
        encoding="utf-8")
    _run(capsys, "--store", "st.json", "ingest", "one.jsonl")
    code, out = _run(capsys, "--store", "st.json", "retrieve", "Kestrel",
                     "--as-of", "2026-01-04T00:00:00Z")
    assert (code, out) == (0, "")
    code, out = _run(capsys, "--store", "st.json", "retrieve", "Kestrel",
                     "--as-of", "2026-01-06T00:00:00Z")
    assert code == 0
    assert json.loads(out)["memory_id"] == "a"
