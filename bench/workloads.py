"""The three workloads: inputs made from a seed, a start store saved as a
snapshot, and rounds that replay identical work from that snapshot.

Every round of a run repeats the same operations on the same inputs, so a
run measures whole rounds and a slow phase of the host changes how many
rounds fit, not what one round does. A workload is made of independent
parts, each generated from its own sub-seed, and a round runs every part
once; each part starts by loading its start store (the `setup` operation).

Engram's layers are reached through their modules (`retrieval.hybrid_retrieve`
and so on) so that the tracer can patch the names where they are looked up.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from engram import consolidation, forgetting, retrieval
from engram.harness import StreamSpec, generate_stream
from engram.model import StoreConfig
from engram.store import MemoryStore

import oracle

K_HITS = 10
TEMPLATE_WORDS = {"reported", "regression", "blocking", "rollout"}
NEAR_SUFFIX = " follow up confirmation"


def fingerprint(store) -> str:
    """The checkpoint fingerprint `harness.stream_run` takes."""
    return hashlib.sha256(store.snapshot_json().encode("utf-8")).hexdigest()


def ingest_all(store, events) -> None:
    for ev in events:
        store.ingest(ev)


def latest(now, events):
    """The newest timestamp seen: every query and sleep runs at it."""
    stamps = [ev.timestamp for ev in events]
    return max(stamps if now is None else stamps + [now])


def split_sessions(events) -> list[list]:
    sessions: dict[str, list] = {}
    for ev in events:
        sessions.setdefault(ev.session_id, []).append(ev)
    return list(sessions.values())


def probe_text(content: str, rng: random.Random) -> str:
    """A query made of four of the target's own content words."""
    pool = [w for w in content.split()
            if w.islower() and w.isalpha() and w not in TEMPLATE_WORDS]
    return " ".join(rng.sample(pool, min(4, len(pool))))


class Direct:
    """Runs operations untimed, for building start stores."""

    def run(self, kind, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class RoundOut:
    store: MemoryStore
    now: object
    fingerprints: list[str] = field(default_factory=list)
    found: list[bool] = field(default_factory=list)
    events: int = 0
    batches: int = 0
    removed: int = 0
    batch_input: int = 0
    ops: int = 0


class Checks:
    """Collects violations; a run with any exits nonzero."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(msg)

    def batch(self, report, out: RoundOut) -> None:
        if not report.accounting_holds():
            self.fail(f"{report.batch_id}: batch accounting does not hold")
        out.batches += 1
        out.removed += report.removed
        out.batch_input += report.input_count

    def budget(self, store, now, budget: int, label: str) -> None:
        tokens = oracle.active_tokens(store)
        if tokens != store.active_tokens():
            self.fail(f"{label}: active_tokens() {store.active_tokens()} != {tokens}")
        if oracle.untouchable_tokens(store, now) <= budget < tokens:
            self.fail(f"{label}: {tokens} tokens over a feasible budget of {budget}")

    def hits(self, store, result, query, now) -> None:
        for msg in oracle.check_hits(store, result, query, now, K_HITS):
            self.fail(msg)


class Workload:
    """Shared run mechanics. Subclasses make inputs and define a round."""

    name = ""
    queries_per_round = 0
    # Parts per round. One stream's random make-up moves stream and agent
    # figures by about 9% from seed to seed (same-seed runs agree within
    # 2-3%); averaging independent parts narrows that by sqrt(parts).
    PARTS = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.start_path = os.path.join(workdir, f"start-{self.name}-{seed}.json")

    def load(self, clock) -> MemoryStore:
        return clock.run("setup", MemoryStore.load_snapshot, self.start_path)

    def query(self, clock, checks, out, store, text, now, target=None):
        result = clock.run("query", retrieval.hybrid_retrieve, store, text,
                           k=K_HITS, now=now)
        out.ops += 1
        checks.hits(store, result, text, now)
        if target is not None:
            out.found.append(oracle.target_found(result, target))
        return result


class Stream(Workload):
    """The paper's streaming evaluation: an issue-tracker stream with planted
    duplicates, future references and temporal violations, replayed session
    by session with dedup consolidation, budget forgetting and a
    fingerprint after each, and a few probe queries."""

    name = "stream"
    SPEC = dict(sessions=24, events_per_session=50, planted_violations=12)
    WARM_SESSIONS = 4
    BUDGET = 10_000
    PROBES_PER_SESSION = 6
    MODE = consolidation.MODE_DEDUP
    PARTS = 3

    def __init__(self, seed: int, workdir: str, spec: Optional[dict] = None):
        super().__init__(seed, workdir)
        self.manifest = generate_stream(StreamSpec(**(spec or self.SPEC)), seed=seed)
        self.sessions = split_sessions(self.manifest.events)
        self.config = StoreConfig()
        rng = random.Random(seed * 7919 + 1)
        self.probes: list[list[tuple[str, str]]] = []
        targets: list = []
        for events in self.sessions:
            picks = rng.sample(targets, min(self.PROBES_PER_SESSION, len(targets)))
            self.probes.append([(probe_text(t.content, rng), t.id) for t in picks])
            targets.extend(ev for ev in events
                           if self.manifest.ground_truth[ev.id].substantive)
        self.queries_per_round = sum(len(p) for p in self.probes[self.WARM_SESSIONS:])

    def sleep(self, store, now):
        crep = consolidation.run_consolidation(store, now, mode=self.MODE)
        frep = forgetting.run_forgetting(store, now, budget=self.BUDGET)
        return crep, frep

    def session(self, clock, checks, out, store, idx):
        events = self.sessions[idx]
        clock.run("ingest", ingest_all, store, events)
        out.events += len(events)
        out.ops += len(events)
        out.now = latest(out.now, events)
        crep, _frep = clock.run("sleep", self.sleep, store, out.now)
        out.ops += 2
        checks.batch(crep, out)
        checks.budget(store, out.now, self.BUDGET, crep.batch_id)
        out.fingerprints.append(clock.run("fingerprint", fingerprint, store))
        out.ops += 1
        for text, target in self.probes[idx]:
            self.query(clock, checks, out, store, text, out.now, target)

    def prepare(self, checks) -> list[str]:
        """Replay the warm-up sessions untimed and save the start store.
        Returns their checkpoint fingerprints."""
        out = RoundOut(store=MemoryStore(self.config), now=None)
        for idx in range(self.WARM_SESSIONS):
            self.session(Direct(), checks, out, out.store, idx)
        out.store.save_snapshot(self.start_path)
        self.warm_now = out.now
        return out.fingerprints

    def round(self, clock, checks) -> RoundOut:
        store = self.load(clock)
        out = RoundOut(store=store, now=self.warm_now, ops=1)
        for idx in range(self.WARM_SESSIONS, len(self.sessions)):
            self.session(clock, checks, out, store, idx)
        return out


class Recall(Workload):
    """The paper's keep-everything raw-retrieval baseline at scale: a large
    store consolidated in `none` mode serves a query loop while a trickle of
    new sessions is ingested and consolidated, also in `none` mode."""

    name = "recall"
    BASE_SESSIONS = 120
    EVENTS_PER_SESSION = 50
    TRICKLE_SESSIONS = 4
    QUERIES_PER_TRICKLE = 20
    ORACLE_EVERY = 3

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.manifest = generate_stream(StreamSpec(
            sessions=self.BASE_SESSIONS + self.TRICKLE_SESSIONS,
            events_per_session=self.EVENTS_PER_SESSION), seed=seed)
        sessions = split_sessions(self.manifest.events)
        self.base = sessions[:self.BASE_SESSIONS]
        self.trickle = sessions[self.BASE_SESSIONS:]
        self.config = StoreConfig()
        rng = random.Random(seed * 7919 + 2)
        targets = [ev for events in self.base for ev in events
                   if self.manifest.ground_truth[ev.id].substantive]
        self.probes = [[(probe_text(t.content, rng), t.id)
                        for t in rng.sample(targets, self.QUERIES_PER_TRICKLE)]
                       for _ in self.trickle]
        self.queries_per_round = sum(len(p) for p in self.probes)
        self.oracle_checked = False

    def sleep(self, store, now):
        return consolidation.run_consolidation(store, now,
                                               mode=consolidation.MODE_NONE)

    def prepare(self, checks) -> list[str]:
        store = MemoryStore(self.config)
        events = [ev for s in self.base for ev in s]
        ingest_all(store, events)
        self.base_now = max(ev.timestamp for ev in events)
        out = RoundOut(store=store, now=self.base_now)
        checks.batch(self.sleep(store, self.base_now), out)
        store.save_snapshot(self.start_path)
        return []

    def round(self, clock, checks) -> RoundOut:
        store = self.load(clock)
        out = RoundOut(store=store, now=self.base_now, ops=1)
        # The oracle runs on every few queries of the first round only: all
        # rounds repeat the same operations.
        check_oracle = not self.oracle_checked
        self.oracle_checked = True
        for events, probes in zip(self.trickle, self.probes):
            clock.run("ingest", ingest_all, store, events)
            out.events += len(events)
            out.ops += len(events)
            out.now = latest(out.now, events)
            index = oracle.EpisodicIndex(store, out.now) if check_oracle else None
            for i, (text, target) in enumerate(probes):
                result = self.query(clock, checks, out, store, text, out.now, target)
                if index is not None and i % self.ORACLE_EVERY == 0:
                    want = oracle.oracle_top_k(store, index, text, out.now, K_HITS)
                    got = [(h.memory_id, h.final_score) for h in result.hits]
                    if not oracle.same_ranking(got, want):
                        checks.fail(f"recall oracle mismatch for {text!r}: "
                                    f"{[g[0] for g in got]} != {[w[0] for w in want]}")
            crep = clock.run("sleep", self.sleep, store, out.now)
            out.ops += 1
            checks.batch(crep, out)
        return out


class Agent(Workload):
    """An agent's mixed loop resumed from a snapshot of its own earlier
    sessions: queries interleave with ingest, retrieved hits are made labile
    and reconsolidated or reinforced, and every few sessions an aggressive
    consolidation and budget forgetting run.

    Core contents share per-topic vocabulary, so batches hold records that
    are similar but not near-duplicates. The cluster cutoff is raised to
    0.5 (merge at mean similarity >= 0.5): at the shipped 0.404 (merge at
    >= 0.596) the near-dedup pass (similarity >= 0.559) has already removed
    every pair that could merge, and aggressive mode never clusters.
    """

    name = "agent"
    SPEC = dict(sessions=21, events_per_session=72, duplicate_rate=0.2,
                future_reference_rate=0.5)
    WARM_SESSIONS = 6
    PARTS = 4
    SLEEP_EVERY = 3
    CHUNKS = 4
    BUDGET = 12_000
    TOPICS = 16
    TOPIC_VOCAB = 10
    TOPIC_WORDS = 3
    OWN_WORDS = 6
    CLUSTER_DISTANCE = 0.5

    def __init__(self, seed: int, workdir: str, spec: Optional[dict] = None):
        super().__init__(seed, workdir)
        self.manifest = generate_stream(StreamSpec(**(spec or self.SPEC)), seed=seed)
        events = self._topic_contents(random.Random(seed * 7919 + 3))
        self.sessions = split_sessions(events)
        self.config = StoreConfig(cluster_distance=self.CLUSTER_DISTANCE)
        rng = random.Random(seed * 7919 + 4)
        self.probes: list[list[tuple[str, str]]] = []
        targets: list = []
        for events in self.sessions:
            # the first session's queries look for its own first events
            pool = targets or events[:len(events) // self.CHUNKS]
            picks = [rng.choice(pool) for _ in range(self.CHUNKS)]
            self.probes.append([(probe_text(t.content, rng), t.id) for t in picks])
            targets.extend(ev for ev in events
                           if self.manifest.ground_truth[ev.id].substantive)
        self.queries_per_round = self.CHUNKS * (len(self.sessions) - self.WARM_SESSIONS)

    def _topic_contents(self, rng):
        """Rewrite core contents to draw three words from one of a few topic
        vocabularies, beside six words of their own; planted duplicates copy
        the rewritten source."""
        word = lambda: "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
        vocab = [[word() for _ in range(self.TOPIC_VOCAB)] for _ in range(self.TOPICS)]
        truth = self.manifest.ground_truth
        new: dict[str, str] = {}
        events = []
        for ev in self.manifest.events:
            gt = truth[ev.id]
            content = ev.content
            if gt.substantive:
                parts = content.split()
                words = rng.sample(vocab[rng.randrange(self.TOPICS)], self.TOPIC_WORDS)
                words += [word() for _ in range(self.OWN_WORDS)]
                content = (f"{parts[0]} reported {' '.join(words)} regression "
                           f"blocking {parts[-2]} rollout")
                new[ev.id] = content
            elif gt.is_duplicate_of is not None:
                near = content.endswith(NEAR_SUFFIX)
                content = new[gt.is_duplicate_of] + (NEAR_SUFFIX if near else "")
            events.append(replace(ev, content=content))
        self.manifest.events = events
        return events

    def sleep(self, store, now):
        crep = consolidation.run_consolidation(store, now,
                                               mode=consolidation.MODE_AGGRESSIVE)
        frep = forgetting.run_forgetting(store, now, budget=self.BUDGET)
        return crep, frep

    def session(self, clock, checks, out, store, idx):
        events = self.sessions[idx]
        size = math.ceil(len(events) / self.CHUNKS)
        for c, (text, target) in enumerate(self.probes[idx]):
            chunk = events[c * size:(c + 1) * size]
            clock.run("ingest", ingest_all, store, chunk)
            out.events += len(chunk)
            out.ops += len(chunk)
            out.now = latest(out.now, chunk)
            result = self.query(clock, checks, out, store, text, out.now, target)
            if not result.hits:
                continue
            top = result.hits[0]
            if c % 2 == 0:
                handle = clock.run("lability", retrieval.open_lability, store,
                                   top.memory_id, out.now)
                clock.run("lability", retrieval.reconsolidate, store, handle,
                          f"agent note on {text}", 0.3, out.now)
                out.ops += 2
            episodic = [h for h in result.hits if h.tier != "graph"]
            if episodic:
                clock.run("lability", retrieval.reinforce, store,
                          episodic[0].memory_id, "success")
                out.ops += 1
        if (idx + 1) % self.SLEEP_EVERY == 0 or idx == len(self.sessions) - 1:
            crep, _frep = clock.run("sleep", self.sleep, store, out.now)
            out.ops += 2
            checks.batch(crep, out)
            checks.budget(store, out.now, self.BUDGET, crep.batch_id)

    def prepare(self, checks) -> list[str]:
        out = RoundOut(store=MemoryStore(self.config), now=None)
        for idx in range(self.WARM_SESSIONS):
            self.session(Direct(), checks, out, out.store, idx)
        out.store.save_snapshot(self.start_path)
        self.warm_now = out.now
        return []

    def round(self, clock, checks) -> RoundOut:
        store = self.load(clock)
        out = RoundOut(store=store, now=self.warm_now, ops=1)
        for idx in range(self.WARM_SESSIONS, len(self.sessions)):
            self.session(clock, checks, out, store, idx)
        return out


class Parts:
    """A workload's independent parts: part i of seed s is built from
    sub-seed s * PARTS + i. A round runs each part once, in order."""

    def __init__(self, cls, seed: int, workdir: str):
        self.name = cls.name
        self.parts = [cls(seed * cls.PARTS + i, workdir) for i in range(cls.PARTS)]
        self.queries_per_round = sum(p.queries_per_round for p in self.parts)

    def prepare(self, checks) -> None:
        for part in self.parts:
            part.prepare(checks)

    def round(self, clock, checks) -> list[RoundOut]:
        return [part.round(clock, checks) for part in self.parts]


WORKLOADS = {w.name: w for w in (Stream, Recall, Agent)}
