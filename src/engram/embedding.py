"""Embedding backends: unit-norm vectors, deterministic hash embedder, and a
remote HTTP provider with retry.

The hash embedder is the default: token-level feature hashing with signed
buckets, so texts sharing most tokens land close in cosine space without any
external model. Each instance memoizes the bucket and sign of the tokens it
has hashed, at most `_MEMO_TOKENS` of them, so ingest, gists and queries
hash each distinct token once; the embeddings are those of one hash per
token occurrence. The remote embedder never memoizes: a provider's answer
is its own to keep or change.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
import urllib.error
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ProviderUnavailable, ZeroVector

_TOKEN_RE = re.compile(r"[#@]?[\w'-]+")
# distinct tokens a `HashEmbedder` memoizes the code of before it clears
# its memo: a few MB at most
_MEMO_TOKENS = 1 << 15


def normalize(values) -> np.ndarray:
    """Scale a vector to unit L2 norm, preserving direction.

    The norm is `math.sqrt(v.dot(v))`, which is what `np.linalg.norm`
    computes for a 1-D float64 array, so the result is
    `v / np.linalg.norm(v)` bit for bit. A NaN or infinite entry makes the
    squared norm non-finite, so the entries are scanned only then. A
    squared norm that overflows warns, as `np.linalg.norm` does; a finite
    vector is then divided by an infinite norm."""
    v = np.asarray(values, dtype=np.float64)
    sq = float(v.dot(v))
    if not math.isfinite(sq) and not np.all(np.isfinite(v)):
        raise ZeroVector("vector has non-finite entries")
    n = math.sqrt(sq)
    if n < 1e-12:
        raise ZeroVector("cannot normalize a (near-)zero vector")
    return v / n


def column_scores(matrix: np.ndarray, qvec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The float32 products of `qvec` with the columns `rows` of `matrix`, a
    dimension-major float32 matrix of embeddings, one column each.

    When the query has non-zero entries in under a quarter of the
    dimensions (a `HashEmbedder` query has one per distinct token), the
    product reads only the matrix rows of those dimensions. A denser query
    takes the whole mat-vec, or gathers the columns of `rows` when they are
    under 1/16 of the columns: a gathered column reads each dimension from
    its own cache line. Both cut-offs lie below where the two ways cost the
    same, measured with one BLAS thread at 6,200 columns of 256
    dimensions."""
    dim, n = matrix.shape
    q32 = qvec.astype(np.float32)
    nz = q32.nonzero()[0]
    if 4 * len(nz) < dim:
        return (q32[nz] @ matrix[nz])[rows]
    if 16 * len(rows) < n:
        return q32 @ matrix[:, rows]
    return (q32 @ matrix)[rows]


def row_dots(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """`np.dot(row, vec)` of each row of the 2-D float64 array `rows`, bit
    for bit, in one stacked product.

    Each (1, d) @ (d,) product of the stack goes to the same ddot that
    `np.dot` of two 1-D arrays calls; `rows @ vec`, a mat-vec, sums in
    another order. `np.dot` multiplies two 1-element arrays as scalars,
    so at d = 1 so does this."""
    if rows.shape[1] == 1:
        return rows[:, 0] * vec[0]
    return (rows[:, None, :] @ vec)[:, 0]


def to_float32(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float32 rounding of the 2-D float64 array `rows`, and a mask
    over its rows: True where a non-zero entry rounds to zero. Such an
    entry is a dimension that the float32 row hides from
    `shares_support`."""
    rows32 = rows.astype(np.float32)
    return rows32, ((rows32 == 0) & (rows != 0)).any(axis=1)


def shares_support(matrix: np.ndarray, qvec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A mask over `rows`, columns of the dimension-major float32 `matrix`:
    False where the column holds a zero in every non-zero dimension of the
    float64 `qvec`. If the embedding's float64 entries there are zero too,
    its `np.dot` with `qvec` is exactly +0.0, without a product: from
    d = 2 on, the ddot adds only signed zeros to numpy's +0.0 start.

    A float64 entry that rounds to zero in `matrix` hides a shared
    dimension, so the caller marks True the columns `to_float32` found
    one in. At d = 1 `np.dot` multiplies as scalars, and a -0.0 product
    keeps its sign, so every column is True."""
    if matrix.shape[0] < 2:
        return np.ones(len(rows), dtype=bool)
    return matrix[qvec.nonzero()[0][:, None], rows].any(axis=0)


_U64 = 2.0 ** -53      # unit roundoff of float64
_U32 = 2.0 ** -24      # unit roundoff of float32
_TINY32 = 2.0 ** -149  # spacing of the float32 subnormals


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: the relative error bound of an n-term dot product
    accumulated in any order with unit roundoff u."""
    return n * u / (1.0 - n * u)


def dot_error_bound(d: int, qnorm, rownorm):
    """A bound on |s32 - s64| for two float64 vectors q and e of length d,
    where s64 is `np.dot(q, e)` and s32 is the dot product of their float32
    roundings accumulated in float32 in any order, as a float32 BLAS call
    computes it. Broadcasts over arrays of norms.

    |s64 - q.e| <= gamma_d(u64) sum|q_j e_j|. Rounding both entries to
    float32 moves each product by at most (2 u32 + u32^2) |q_j e_j|, and the
    float32 sum adds gamma_d(u32) (1 + u32)^2 sum|q_j e_j|. Cauchy-Schwarz
    bounds sum|q_j e_j| by ||q|| ||e||. An entry or product below the
    float32 normal range rounds by an absolute amount instead, at most half
    a subnormal spacing: 2^-149 (sqrt(d) (||q|| + ||e||) + d) covers those,
    twice over. The last factor covers the rounding of the float64 norms and
    of this formula itself."""
    rel = (_gamma(d, _U64) + (1.0 + _U32) ** 2 * _gamma(d, _U32)
           + 2.0 * _U32 + _U32 ** 2)
    tiny = _TINY32 * (math.sqrt(d) * (qnorm + rownorm) + d)
    return (rel * qnorm * rownorm + tiny) * (1.0 + _gamma(2 * d + 4, _U64))


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.setflags(write=False)
# float32 cells of one batch x store product in `rows_reaching`
_PRODUCT_CELLS = 1 << 18
# embeddings rounded to float32 at a time
_CHUNK = 128


class EmbeddingMatrix:
    """Embeddings as the float32 products that rank them read them, one
    column each: the column store behind the embedding index, the graph's
    query state and near-dedup.

    `vectors` holds, by column, the float64 embedding array the column was
    written from. `matrix` is dimension-major, shape (dimension,
    capacity), so that each embedding dimension is one contiguous row
    across the columns, and a query's product reads only the rows of its
    non-zero dimensions (`column_scores`). `norms` holds each embedding's
    float64 norm, `math.sqrt(np.dot(e, e))` bit for bit, and `lossy`
    whether a non-zero entry of it rounds to zero in the matrix, kept from
    the first such column on. Columns grow with headroom, so that a
    trickle of new ones does not reallocate.

    The float32 products only choose candidates: `bound` is the
    `dot_error_bound` that keeps every column whose float64 score could
    be chosen, and `exact_scores` rescores the candidates in float64, bit
    for bit as `np.dot`, from the arrays the columns hold. A zero term adds
    nothing to a sum, so the bound for `dimension` terms also covers a
    product taken over fewer of them."""

    def __init__(self) -> None:
        self.vectors: list[np.ndarray] = []
        self.matrix = np.zeros((0, 0), dtype=np.float32)
        self.norms = np.zeros(0)
        self.lossy = np.zeros(0, dtype=bool)
        self._any_lossy = False  # whether a lossy column was ever written

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def capacity(self) -> int:
        """The columns the arrays hold room for, the unused ones included."""
        return self.matrix.shape[1]

    def append(self, embeddings: Sequence[np.ndarray]) -> None:
        """Write `embeddings` into the next columns, in order."""
        if not embeddings:
            return
        n = len(self.vectors)
        size = n + len(embeddings)
        dim = self.matrix.shape[0] if n else len(embeddings[0])
        if size > self.capacity or dim != self.matrix.shape[0]:
            capacity = size + size // 8 + 16
            matrix = np.zeros((dim, capacity), dtype=np.float32)
            if n:
                matrix[:, :n] = self.matrix[:, :n]
            self.matrix = matrix
            for name in ("norms", "lossy"):
                column = np.zeros(capacity, dtype=getattr(self, name).dtype)
                column[:n] = getattr(self, name)[:n]
                setattr(self, name, column)
        for lo in range(0, len(embeddings), _CHUNK):
            part = embeddings[lo:lo + _CHUNK]
            self._write(slice(n + lo, n + lo + len(part)), part)
        self.vectors.extend(embeddings)

    def set(self, cols: Sequence[int], embeddings: Sequence[np.ndarray]) -> None:
        """Write `embeddings[i]` into column `cols[i]`, for each i."""
        for lo in range(0, len(cols), _CHUNK):
            self._write(np.asarray(cols[lo:lo + _CHUNK], dtype=np.intp),
                        embeddings[lo:lo + _CHUNK])
        for col, embedding in zip(cols, embeddings):
            self.vectors[col] = embedding

    def _write(self, cols, embeddings: Sequence[np.ndarray]) -> None:
        # np.array copies a list of vectors in one pass; np.stack takes
        # three times as long
        part = np.array(embeddings, dtype=np.float64)
        part32, lossy = to_float32(part)
        self.matrix[:, cols] = part32.T
        if self._any_lossy or lossy.any():
            self.lossy[cols] = lossy
            self._any_lossy = True
        # one ddot per row, as `np.dot(e, e)` takes it
        self.norms[cols] = np.sqrt((part[:, None, :] @ part[:, :, None])[:, 0, 0])

    def move(self, dst: np.ndarray, src: np.ndarray, size: int) -> None:
        """Give each column `dst[i]` the values of column `src[i]`, all read
        before any is written, then keep the first `size` columns."""
        self.matrix[:, dst] = self.matrix[:, src]
        self.norms[dst] = self.norms[src]
        self.lossy[dst] = self.lossy[src]
        moved = [self.vectors[col] for col in src.tolist()]
        for col, vector in zip(dst.tolist(), moved):
            self.vectors[col] = vector
        del self.vectors[size:]

    def scores(self, qvec: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The float32 products of `qvec` with the columns `cols`, by
        `column_scores`."""
        return column_scores(self.matrix[:, :len(self.vectors)], qvec, cols)

    def bound(self, qvec: np.ndarray, cols: Optional[np.ndarray] = None) -> float:
        """The `dot_error_bound` of `qvec` with the widest of `cols`, or of
        every column when `cols` is None."""
        norms = self.norms[:len(self.vectors)] if cols is None else self.norms[cols]
        return dot_error_bound(self.matrix.shape[0], math.sqrt(float(np.dot(qvec, qvec))),
                               float(norms.max()))

    def exact_scores(self, qvec: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """`np.dot(qvec, vectors[col])` for each of `cols`, bit for bit: +0.0
        for a column that shares no non-zero dimension with `qvec`
        (`shares_support`), without reading its vector, and one `row_dots`
        product over the others."""
        shared = shares_support(self.matrix, qvec, cols)
        if self._any_lossy:
            shared |= self.lossy[cols]
        dots = np.zeros(len(cols))
        rest = shared.nonzero()[0]
        if len(rest):
            dots[rest] = row_dots(np.array([self.vectors[col] for col in cols[rest].tolist()],
                                           dtype=np.float64), qvec)
        return dots

    def rows_reaching(self, rows: Sequence[int], among: np.ndarray,
                      threshold: float) -> Iterator[tuple[int, int]]:
        """Pairs (i, j): column `rows[i]` and a column j where `among` is
        True, whose float64 score may reach `threshold`. One float32
        product per chunk of `rows`; each row of it is held to the bound
        for the largest norm among the columns it is paired with."""
        n, dim = len(self.vectors), self.matrix.shape[0]
        if not n:
            return
        rows = np.asarray(rows, dtype=np.intp)
        widest = float(self.norms[:n].max())
        step = max(1, _PRODUCT_CELLS // n)
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            s = self.matrix[:, part].T @ self.matrix[:, :n]
            floor = threshold - dot_error_bound(dim, self.norms[part], widest)
            reach = ~(s < floor[:, None]) & among
            for i, j in zip(*np.nonzero(reach)):
                yield lo + int(i), int(j)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class HashEmbedder:
    """Deterministic signed feature-hashing embedder.

    Each token is hashed (keyed blake2b, so results are stable across
    processes) to a bucket and a sign; the bucket histogram is L2-normalized.
    Text whose histogram is all zeros maps to a fixed basis vector so every
    input has a well-defined unit embedding.

    Each instance memoizes the (bucket, sign) code of the tokens it has
    hashed, so a token costs one blake2b per embedder, not one per
    occurrence. The memo holds at most `_MEMO_TOKENS` tokens and is cleared
    when full; a code is a pure function of the token, the dimension and
    the seed, so the memo never changes a result. It is not shared between
    instances.
    """

    def __init__(self, dimension: int = 256, seed: int = 0):
        if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 8:
            raise ValueError(f"dimension must be an int >= 8, not {dimension!r}")
        if isinstance(seed, bool) or not isinstance(seed, int) or not -2**63 <= seed < 2**63:
            raise ValueError(f"seed must be an int in [-2**63, 2**63), not {seed!r}")
        self.dimension = dimension
        self.seed = seed
        # the keyed state, copied per token: cheaper than a keyed constructor
        self._hasher = hashlib.blake2b(digest_size=8,
                                       key=seed.to_bytes(8, "little", signed=True))
        # every (bucket, sign), so that a memo entry adds no object of its own
        self._codes = [(bucket, sign) for sign in (-1, 1) for bucket in range(dimension)]
        self._memo: dict[str, tuple[int, int]] = {}

    def _code(self, tok: str) -> tuple[int, int]:
        """The (bucket, sign) of `tok`, hashed and memoized."""
        h = self._hasher.copy()
        h.update(tok.encode("utf-8"))
        n = int.from_bytes(h.digest(), "little")
        code = self._codes[n % self.dimension + self.dimension * ((n >> 32) & 1)]
        if len(self._memo) >= _MEMO_TOKENS:
            self._memo.clear()
        self._memo[tok] = code
        return code

    def embed(self, text: str) -> np.ndarray:
        """The unit embedding of `text`. Text with no token, or whose signed
        counts all cancel ("w12 w23" at seed 0 and dimension 256), maps to
        the basis vector e0."""
        memo = self._memo
        counts: dict[int, int] = {}
        for tok in tokenize(text):
            bucket, sign = memo.get(tok) or self._code(tok)
            counts[bucket] = counts.get(bucket, 0) + sign
        vec = np.zeros(self.dimension, dtype=np.float64)
        if any(counts.values()):
            # one write per bucket: below about 50 buckets, cheaper than
            # building index and value arrays for one fancy-index write
            for bucket, count in counts.items():
                vec[bucket] = count
        else:
            vec[0] = 1.0
        return normalize(vec)


def _urllib_post(endpoint: str, payload: dict, headers: dict) -> dict:
    """POST `payload` as JSON and decode the JSON reply; an HTTP error status
    raises `urllib.error.HTTPError`."""
    # imported here: urllib.request pulls in http.client, email and ssl,
    # which the offline default embedder never needs
    import urllib.request

    request = urllib.request.Request(
        endpoint, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={**headers, "Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as resp:
        return json.load(resp)


class RemoteEmbedder:
    """Opaque HTTP embedding provider with capped exponential backoff.

    POSTs {"input": text} and expects {"embedding": [...]}. A 4xx answer is
    final and raises at once; a 5xx answer, a transport error or any other
    failure of the post is retried. Endpoint and
    bearer token come from arguments or the ENGRAM_EMBED_ENDPOINT /
    ENGRAM_EMBED_TOKEN environment variables. `post` and `sleep` are
    injectable for testing.
    """

    def __init__(self, endpoint: Optional[str] = None,
                 token: Optional[str] = None,
                 expected_dimension: Optional[int] = None,
                 max_retries: int = 4,
                 backoff_base_s: float = 0.1,
                 post: Optional[Callable] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 logger: Optional[Callable[[str], None]] = None):
        self.endpoint = endpoint or os.environ.get("ENGRAM_EMBED_ENDPOINT")
        if not self.endpoint:
            raise ProviderUnavailable("no embedding endpoint configured")
        self.token = token or os.environ.get("ENGRAM_EMBED_TOKEN")
        self.expected_dimension = expected_dimension
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self._post = post or _urllib_post
        self._sleep = sleep
        self._log = logger or (lambda msg: None)
        self.dimension = expected_dimension

    def embed(self, text: str) -> np.ndarray:
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_err: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = min(self.backoff_base_s * (2 ** (attempt - 1)), 5.0)
                self._log(f"embed retry {attempt} after {delay:.2f}s: {last_err}")
                self._sleep(delay)
            try:
                body = self._post(self.endpoint, {"input": text}, headers)
                vec = normalize(body["embedding"])
                if self.expected_dimension is None:
                    self.expected_dimension = vec.shape[0]
                    self.dimension = vec.shape[0]
                elif vec.shape[0] != self.expected_dimension:
                    raise DimensionMismatch(
                        f"provider returned {vec.shape[0]}, "
                        f"store expects {self.expected_dimension}")
                return vec
            except DimensionMismatch:
                raise
            except Exception as exc:
                if isinstance(exc, urllib.error.HTTPError) and exc.code < 500:
                    raise ProviderUnavailable(f"not retried: {exc}") from exc
                last_err = exc
        raise ProviderUnavailable(f"retry budget exhausted: {last_err}")
