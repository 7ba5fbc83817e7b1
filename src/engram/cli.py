"""Command-line front end.

Reports go to stdout as JSON; logs go to stderr. The store lives in a
single snapshot file passed with --store and is rewritten after every
mutating command. Exit code is nonzero on errors or invariant violations.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import calibration, harness
from .codec import decode, encode, utc
from .consolidation import MODE_DEDUP, MODE_NONE, MODES, run_consolidation
from .embedding import HashEmbedder
from .forgetting import run_forgetting
from .model import StoreConfig
from .retrieval import hybrid_retrieve
from .store import MemoryStore, read_events

log = logging.getLogger("engram")


def _load_store(path: str) -> MemoryStore:
    p = Path(path)
    if p.exists():
        return MemoryStore.load_snapshot(path)
    return MemoryStore(StoreConfig())


def _now(args, store: MemoryStore) -> datetime:
    if getattr(args, "now", None):
        return utc(args.now)
    logical = store.logical_now()
    if logical is not None:
        return logical
    return datetime.now(timezone.utc)


def cmd_ingest(args) -> int:
    store = _load_store(args.store)
    with open(args.file, encoding="utf-8") as fh:
        records = store.ingest_jsonl(fh)
    store.save_snapshot(args.store)
    print(json.dumps({"ingested": len(records)}))
    return 0


def cmd_generate(args) -> int:
    spec = harness.StreamSpec()
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            spec = decode(harness.StreamSpec, json.load(fh))
    manifest = harness.generate_stream(spec, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        for ev in manifest.events:
            fh.write(json.dumps(encode(ev), sort_keys=True) + "\n")
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump(encode(manifest.ground_truth), fh, sort_keys=True)
    print(json.dumps({"events": len(manifest.events),
                      "future_referenced_rate": manifest.base_rate()}))
    return 0


def cmd_run(args) -> int:
    with open(args.stream, encoding="utf-8") as fh:
        events = list(read_events(fh))
    manifest = harness.StreamManifest(events=events, ground_truth={})
    if args.manifest:
        with open(args.manifest, encoding="utf-8") as fh:
            raw = json.load(fh)
        manifest.ground_truth = decode(dict[str, harness.GroundTruth], raw)
    config = StoreConfig()
    metrics = harness.stream_run(manifest, config, every_n=args.every_n,
                                 mode=args.mode, budget=args.budget)
    print(harness.report(metrics, fmt=args.format))
    return 0


def cmd_consolidate(args) -> int:
    store = _load_store(args.store)
    report = run_consolidation(store, _now(args, store), mode=args.mode)
    if args.budget is not None:
        run_forgetting(store, _now(args, store), budget=args.budget)
    store.save_snapshot(args.store)
    print(json.dumps(report.to_dict(), sort_keys=True))
    _append_ledger(args.ledger, report.to_dict())
    return 0 if report.accounting_holds() else 1


def cmd_forget(args) -> int:
    store = _load_store(args.store)
    report = run_forgetting(store, _now(args, store), budget=args.budget)
    store.save_snapshot(args.store)
    print(json.dumps(encode(report), sort_keys=True))
    _append_ledger(args.ledger, encode(report))
    return 0


def cmd_retrieve(args) -> int:
    store = _load_store(args.store)
    now = utc(args.as_of) if args.as_of else _now(args, store)
    result = hybrid_retrieve(store, args.query, k=args.k, now=now)
    for hit in result.hits:
        print(json.dumps(encode(hit), sort_keys=True))
    return 0


def cmd_stats(args) -> int:
    store = _load_store(args.store)
    print(json.dumps({
        "records": len(store.records),
        "active": store.active_count(),
        "active_tokens": store.active_tokens(),
        "quarantined": len(store.quarantine),
        "semantic_memories": len(store.graph.memories),
        "entities": len(store.graph.entities),
        "watermark": encode(store.watermark),
    }, sort_keys=True))
    return 0


def cmd_snapshot(args) -> int:
    store = _load_store(args.store)
    store.save_snapshot(args.file)
    print(json.dumps({"snapshot": args.file}))
    return 0


def cmd_load(args) -> int:
    store = MemoryStore.load_snapshot(args.file)
    store.save_snapshot(args.store)
    print(json.dumps({"loaded_records": len(store.records)}))
    return 0


def cmd_calibrate(args) -> int:
    if args.corpus:
        with open(args.corpus, encoding="utf-8") as fh:
            corpus = calibration.CalibrationCorpus.from_jsonl(fh.read())
    else:
        corpus = calibration.generate_corpus(seed=args.seed)
    embedder = HashEmbedder(args.dimension, args.seed)
    profile = calibration.derive_profile(corpus, embedder)
    text = profile.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_graph(args) -> int:
    store = _load_store(args.store)
    if args.graph_cmd == "stats":
        print(json.dumps({
            "entities": len(store.graph.entities),
            "memories": len(store.graph.memories),
            "co_occur_edges": len(store.graph.co_occurs),
        }, sort_keys=True))
    else:
        key = args.entity.casefold()
        out = [{"entity": k, "weight": w}
               for k, w in store.graph.neighbors(key)]
        print(json.dumps(out, sort_keys=True))
    return 0


def _append_ledger(path: Optional[str], doc: dict) -> None:
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="engram",
                                     description="agent memory lifecycle engine")
    parser.add_argument("--store", default="engram_store.json",
                        help="store snapshot file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ingest", help="ingest a JSONL event file")
    p.add_argument("file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("generate", help="generate a synthetic stream")
    p.add_argument("--spec", help="stream spec JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--manifest", help="ground-truth manifest output path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="streaming evaluation over a stream file")
    p.add_argument("--stream", required=True)
    p.add_argument("--manifest")
    p.add_argument("--every-n", type=int, default=1, dest="every_n")
    p.add_argument("--budget", type=int)
    p.add_argument("--mode", default=MODE_DEDUP, choices=MODES)
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("consolidate", help="run one consolidation batch")
    p.add_argument("--mode", default=MODE_DEDUP,
                   choices=[m for m in MODES if m != MODE_NONE])
    p.add_argument("--budget", type=int)
    p.add_argument("--now", help="logical now (RFC3339)")
    p.add_argument("--ledger", help="append report JSON to this file")
    p.set_defaults(func=cmd_consolidate)

    p = sub.add_parser("forget", help="run one forgetting pass")
    p.add_argument("--budget", type=int)
    p.add_argument("--now", help="logical now (RFC3339)")
    p.add_argument("--ledger", help="append report JSON to this file")
    p.set_defaults(func=cmd_forget)

    p = sub.add_parser("retrieve", help="hybrid retrieval")
    p.add_argument("query")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--as-of", dest="as_of")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("stats", help="store statistics")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("snapshot", help="write a snapshot copy")
    p.add_argument("file")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("load", help="replace the store from a snapshot")
    p.add_argument("file")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("calibrate", help="derive a calibration profile")
    p.add_argument("--corpus", help="labeled corpus JSONL")
    p.add_argument("--out", help="profile output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dimension", type=int, default=256)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("graph", help="knowledge graph inspection")
    gsub = p.add_subparsers(dest="graph_cmd", required=True)
    gsub.add_parser("stats")
    gn = gsub.add_parser("neighbors")
    gn.add_argument("entity")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
