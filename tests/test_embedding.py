import io
import json
import subprocess
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from engram import embedding
from engram.embedding import (
    EmbeddingMatrix,
    HashEmbedder,
    RemoteEmbedder,
    normalize,
    row_dots,
    shares_support,
    to_float32,
    tokenize,
)
from engram.errors import DimensionMismatch, ProviderUnavailable, ZeroVector

from oracles import ReferenceHashEmbedder, embedding_matrix_view


def test_normalize_unit_norm():
    v = normalize([3.0, 4.0])
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert v == pytest.approx([0.6, 0.8])


def test_normalize_rejects_zero_and_nonfinite():
    for values in ([0.0, 0.0], [], [float("nan"), 1.0], [1.0, float("inf")],
                   [float("-inf"), 0.0]):
        with pytest.raises(ZeroVector):
            normalize(values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_normalize_rejects_nonfinite_after_an_overflow_warning(bad):
    # the squared norm overflows before the entries are scanned
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ZeroVector):
        normalize([1e300, bad])


@given(v=hnp.arrays(np.float64, st.integers(1, 300),
                    elements=st.one_of(st.just(0.0), st.floats(-1e3, 1e3))),
       scale=st.sampled_from([1.0, 1e-8, 1e-150, 1e-170, 1e150, 1e160, 1e300]))
def test_normalize_is_division_by_the_norm(v, scale):
    """Dense, sparse, tiny and huge vectors, those whose squared norm
    underflows or overflows included: the result is `v / np.linalg.norm(v)`
    bit for bit, or `ZeroVector` when that norm is below 1e-12. An
    overflow warns in both; only the values are compared here."""
    v = v * scale
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            with pytest.raises(ZeroVector):
                normalize(v)
        else:
            assert normalize(v).tobytes() == (v / norm).tobytes()
            assert normalize(list(v)).tobytes() == (v / norm).tobytes()


# entries for the stacked-product tests: zeros of both signs, subnormals,
# and ordinary values
_entries = st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from([5e-324, -1e-310, 1e-300]),
                     st.floats(-1e3, 1e3))


@given(d=st.integers(1, 300), data=st.data())
def test_row_dots_equal_per_row_dot(d, data):
    """Sparse, dense, subnormal and -0.0 entries: each stacked product is
    `np.dot` of its row with the vector, taken either way round, to the
    bit."""
    rows = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6)), d),
                                elements=_entries))
    vec = data.draw(hnp.arrays(np.float64, d, elements=_entries))
    got = row_dots(rows, vec)
    for row, value in zip(rows, got):
        assert value.hex() == float(np.dot(row, vec)).hex() == float(np.dot(vec, row)).hex()


@given(d=st.integers(2, 300), data=st.data())
def test_dot_of_disjoint_supports_is_positive_zero(d, data):
    """Two vectors that share no non-zero dimension, with zeros of either
    sign and entries of either sign elsewhere: `np.dot` is +0.0, which is
    what the ranking settles such a candidate to without a product. At
    d = 1 `np.dot` multiplies as scalars and keeps a -0.0."""
    values = data.draw(hnp.arrays(np.float64, d, elements=_entries))
    mine = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    zeros = data.draw(hnp.arrays(np.float64, d, elements=st.sampled_from([0.0, -0.0])))
    x, y = np.where(mine, values, zeros), np.where(mine, zeros, values[::-1])
    assert float(np.dot(x, y)).hex() == "0x0.0p+0"
    assert row_dots(x[None, :], y)[0].hex() == "0x0.0p+0"
    assert float(np.dot(np.array([-0.0]), np.array([1.0]))).hex() == "-0x0.0p+0"


def test_a_column_whose_shared_entry_underflows_shares_support():
    """A float64 entry of 1e-300 rounds to zero in float32: the column is
    marked lossy and always taken to share the query's support, though its
    float32 values share nothing with it. A column that holds a float32
    non-zero in the query's support shares it too; the others do not."""
    rows = np.zeros((4, 8))
    rows[0, 3], rows[0, 5] = 1e-300, 1.0    # meets the query only at 1e-300
    rows[1, 3], rows[1, 6] = 0.5, 0.5       # meets it at a float32 non-zero
    rows[2, 6] = 1.0                        # meets it nowhere
    rows[3, 1], rows[3, 3] = -0.0, -2.0     # meets it at -2.0
    rows32, lossy = to_float32(rows)
    assert lossy.tolist() == [True, False, False, False]
    assert rows32.tobytes() == rows.astype(np.float32).tobytes()
    qvec = np.zeros(8)
    qvec[3] = 0.5
    got = shares_support(np.ascontiguousarray(rows32.T), qvec, np.arange(4))
    assert got.tolist() == [False, True, False, True]
    assert (got | lossy).tolist() == [True, True, False, True]
    assert float(np.dot(qvec, rows[0])) != 0.0


def _embeddings(rng: np.random.Generator, count: int, d: int) -> list[np.ndarray]:
    """`count` sparse vectors of `d` entries, some of them 1e-300, which is
    zero in float32; each its own array, as a record's embedding is."""
    rows = rng.standard_normal((count, d))
    rows[rng.random((count, d)) < 0.6] = 0.0
    rows[rng.random((count, d)) < 0.05] = 1e-300
    return [row.copy() for row in rows]


@given(d=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(st.tuples(st.sampled_from(["append", "set", "move"]),
                              st.integers(0, 300)), min_size=1, max_size=6))
def test_an_embedding_matrix_equals_one_built_from_its_vectors(d, seed, ops):
    """After any sequence of appends, sets and moves that drop columns, the
    matrix, the norms and the lossy mask equal those of a matrix built by
    appending its vectors, byte for byte: a 1e-300 entry marks its column
    lossy, and a rewrite without one clears the mark. Batches cross the
    128-column chunks. `exact_scores` of every column is `np.dot`, to the
    bit, for a query with 1e-300 entries too."""
    rng = np.random.default_rng(seed)
    embeddings = EmbeddingMatrix()
    model: list[np.ndarray] = []  # the vectors, by column
    for op, size in ops:
        n = len(model)
        if op == "append" or not n:
            vectors = _embeddings(rng, size, d)
            embeddings.append(vectors)
            model.extend(vectors)
        elif op == "set":
            cols = rng.permutation(n)[:size].tolist()
            vectors = _embeddings(rng, len(cols), d)
            embeddings.set(cols, vectors)
            for col, vector in zip(cols, vectors):
                model[col] = vector
        else:
            keep = size % (n + 1)
            dst = rng.permutation(keep)[:rng.integers(0, keep + 1)]
            src = rng.integers(0, n, len(dst))
            embeddings.move(dst.astype(np.intp), src.astype(np.intp), keep)
            moved = [model[col] for col in src]
            for col, vector in zip(dst, moved):
                model[col] = vector
            del model[keep:]
        assert len(embeddings) == len(model)
        assert all(v is m for v, m in zip(embeddings.vectors, model, strict=True))
        fresh = EmbeddingMatrix()
        fresh.append(list(model))
        assert embedding_matrix_view(embeddings) == embedding_matrix_view(fresh)
    qvec = _embeddings(rng, 1, d)[0]
    got = embeddings.exact_scores(qvec, np.arange(len(model)))
    assert [x.hex() for x in got] == [float(np.dot(qvec, v)).hex() for v in model]


def test_tokenize_handles_refs():
    assert tokenize("ping @alice about #482, it's due") == \
        ["ping", "@alice", "about", "#482", "it's", "due"]


# texts over a small vocabulary, so that tokens repeat within and across
# texts: mentions, refs, apostrophes, hyphens, non-ASCII letters and bare
# marks among the separators
_VOCAB = ["alice", "Alice", "@alice", "#482", "it's", "follow-up", "café",
          "ÉCOLE", "naïve", "Ωmega", "w12", "w23", "the", "x", "'", "-",
          "@", "#", "42"]
_texts = st.lists(st.tuples(st.sampled_from(_VOCAB),
                            st.sampled_from([" ", "  ", ", ", ". ", "\n", "", "#", "@"])),
                  max_size=24).map(lambda parts: "".join(w + sep for w, sep in parts))


class TestHashEmbedder:
    def test_deterministic_across_instances(self):
        a = HashEmbedder(256, seed=0).embed("the quick brown fox")
        b = HashEmbedder(256, seed=0).embed("the quick brown fox")
        assert np.array_equal(a, b)

    def test_seed_changes_embedding(self):
        a = HashEmbedder(256, seed=0).embed("the quick brown fox")
        b = HashEmbedder(256, seed=1).embed("the quick brown fox")
        assert not np.array_equal(a, b)

    def test_empty_text_is_well_defined(self):
        v = HashEmbedder(256).embed("")
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v[0] == 1.0

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            HashEmbedder(4)

    @pytest.mark.parametrize("dimension, seed", [
        (256.0, 0), (True, 0), ("256", 0),
        (256, 2 ** 63), (256, -2 ** 63 - 1), (256, 2 ** 64), (256, 1.0),
    ])
    def test_rejects_a_non_int_dimension_or_a_seed_past_64_bits(self, dimension, seed):
        with pytest.raises(ValueError):
            HashEmbedder(dimension, seed)

    @pytest.mark.parametrize("seed", [2 ** 63 - 1, -2 ** 63])
    def test_accepts_the_64_bit_seed_range(self, seed):
        v = HashEmbedder(8, seed).embed("alice")
        assert v.tobytes() == ReferenceHashEmbedder(8, seed).embed("alice").tobytes()

    def test_cancelling_counts_map_to_e0(self):
        """Both tokens of "w12 w23" hash to bucket 0 at seed 0, with
        opposite signs: the histogram is zero, as for an empty text."""
        e0 = np.zeros(256)
        e0[0] = 1.0
        assert HashEmbedder(256, 0).embed("w12 w23").tobytes() == e0.tobytes()
        assert ReferenceHashEmbedder(256, 0).embed("w12 w23").tobytes() == e0.tobytes()

    @given(texts=st.lists(_texts, max_size=16),
           cap=st.sampled_from([embedding._MEMO_TOKENS, 1, 3, 8]))
    def test_memoized_embed_equals_the_reference(self, texts, cap):
        """Four embedders, seeds 0 and 1 at dimensions 8 and 256, take the
        texts in turn, each memo also under a cap that the stream drives
        it past: every embedding is the per-token loop's, to the byte."""
        pairs = [(HashEmbedder(d, seed), ReferenceHashEmbedder(d, seed))
                 for seed in (0, 1) for d in (8, 256)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedding, "_MEMO_TOKENS", cap)
            for i, text in enumerate(texts):
                fast, ref = pairs[i % len(pairs)]
                assert fast.embed(text).tobytes() == ref.embed(text).tobytes()
                assert len(fast._memo) <= cap

    @given(st.text(max_size=80))
    def test_always_unit_norm(self, text):
        v = HashEmbedder(64).embed(text)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_separates_paraphrase_from_disjoint(self):
        """Near-paraphrase pairs must score above token-disjoint pairs, over
        a 100-pair corpus of each kind."""
        emb = HashEmbedder(256)
        rng = np.random.default_rng(7)
        vocab = [f"word{i}" for i in range(400)]
        para_sims, disjoint_sims = [], []
        for k in range(100):
            base = list(rng.choice(vocab, size=10, replace=False))
            variant = base[:-1] + [f"extra{k}"]
            other = [f"other{k}_{j}" for j in range(10)]
            a = emb.embed(" ".join(base))
            para_sims.append(float(a @ emb.embed(" ".join(variant))))
            disjoint_sims.append(float(a @ emb.embed(" ".join(other))))
        assert min(para_sims) > max(disjoint_sims)
        assert np.mean(para_sims) > 0.8
        assert abs(np.mean(disjoint_sims)) < 0.2


class TestRemoteEmbedder:
    def _provider(self, responses, **kwargs):
        calls = []

        def post(endpoint, payload, headers):
            calls.append((endpoint, payload, headers))
            item = responses[min(len(calls) - 1, len(responses) - 1)]
            if isinstance(item, Exception):
                raise item
            return item

        slept = []
        emb = RemoteEmbedder(endpoint="https://embed.test/v1", token="tok",
                             post=post, sleep=slept.append, **kwargs)
        return emb, calls, slept

    def test_happy_path_normalizes(self):
        emb, calls, slept = self._provider([{"embedding": [3.0, 4.0]}])
        v = emb.embed("hi")
        assert v == pytest.approx([0.6, 0.8])
        assert calls[0][1] == {"input": "hi"}
        assert calls[0][2]["Authorization"] == "Bearer tok"
        assert slept == []

    def test_retries_with_backoff_then_succeeds(self):
        emb, calls, slept = self._provider(
            [RuntimeError("503"), RuntimeError("503"), {"embedding": [1.0, 0.0]}])
        v = emb.embed("hi")
        assert v == pytest.approx([1.0, 0.0])
        assert len(calls) == 3
        assert slept == [0.1, 0.2]  # capped exponential backoff

    def test_exhausted_retries_raise(self):
        emb, calls, _ = self._provider([RuntimeError("down")], max_retries=2)
        with pytest.raises(ProviderUnavailable):
            emb.embed("hi")
        assert len(calls) == 3

    def test_client_error_not_retried(self):
        refused = urllib.error.HTTPError("https://embed.test/v1", 401,
                                         "Unauthorized", {}, None)
        emb, calls, slept = self._provider([refused])
        with pytest.raises(ProviderUnavailable):
            emb.embed("hi")
        assert len(calls) == 1
        assert slept == []

    def test_server_error_retried(self):
        busy = urllib.error.HTTPError("https://embed.test/v1", 503,
                                      "Unavailable", {}, None)
        emb, calls, slept = self._provider([busy, {"embedding": [1.0, 0.0]}])
        assert emb.embed("hi") == pytest.approx([1.0, 0.0])
        assert len(calls) == 2
        assert slept == [0.1]

    def test_dimension_mismatch_not_retried(self):
        emb, calls, _ = self._provider(
            [{"embedding": [1.0, 0.0, 0.0]}], expected_dimension=2)
        with pytest.raises(DimensionMismatch):
            emb.embed("hi")
        assert len(calls) == 1

    def test_default_post_uses_urllib(self, monkeypatch):
        sent = []

        def urlopen(request, timeout):
            sent.append((request, timeout))
            return io.BytesIO(json.dumps({"embedding": [3.0, 4.0]}).encode())

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        emb = RemoteEmbedder(endpoint="https://embed.test/v1", token="tok")
        assert emb.embed("hi") == pytest.approx([0.6, 0.8])
        [(request, timeout)] = sent
        assert request.full_url == "https://embed.test/v1"
        assert request.get_method() == "POST"
        assert json.loads(request.data) == {"input": "hi"}
        assert request.get_header("Authorization") == "Bearer tok"
        assert request.get_header("Content-type") == "application/json"
        assert timeout == 30

    def test_needs_no_requests_package(self):
        code = (
            "import io, sys, urllib.request\n"
            "sys.modules['requests'] = None\n"
            "import engram\n"
            "from engram.embedding import RemoteEmbedder\n"
            "urllib.request.urlopen = lambda request, timeout: "
            "io.BytesIO(b'{\"embedding\": [1.0, 0.0]}')\n"
            "emb = RemoteEmbedder(endpoint='https://embed.test/v1', "
            "sleep=lambda s: None)\n"
            "assert list(emb.embed('hi')) == [1.0, 0.0]\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("ENGRAM_EMBED_ENDPOINT", raising=False)
        with pytest.raises(ProviderUnavailable):
            RemoteEmbedder()
