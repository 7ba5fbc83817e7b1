"""Embedding backends: unit-norm vectors, deterministic hash embedder, and a
remote HTTP provider with retry.

The hash embedder is the default: token-level feature hashing with signed
buckets, so texts sharing most tokens land close in cosine space without any
external model.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
import urllib.error
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, ProviderUnavailable, ZeroVector

_TOKEN_RE = re.compile(r"[#@]?[\w'-]+")


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


def exact_dots(vectors: list[np.ndarray], rows: np.ndarray, shared: np.ndarray,
               qvec: np.ndarray) -> np.ndarray:
    """`np.dot(qvec, vectors[row])` for each of `rows`, bit for bit: +0.0
    where `shared` is False (`shares_support`), without reading the
    vector, and one `row_dots` product over the others."""
    dots = np.zeros(len(rows))
    rest = shared.nonzero()[0]
    if len(rest):
        dots[rest] = row_dots(np.array([vectors[row] for row in rows[rest].tolist()],
                                       dtype=np.float64), qvec)
    return dots


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class HashEmbedder:
    """Deterministic signed feature-hashing embedder.

    Each token is hashed (keyed blake2b, so results are stable across
    processes) to a bucket and a sign; the bucket histogram is L2-normalized.
    Empty or token-free text maps to a fixed basis vector so every input has
    a well-defined unit embedding.
    """

    def __init__(self, dimension: int = 256, seed: int = 0):
        if dimension < 8:
            raise ValueError("dimension must be >= 8")
        self.dimension = dimension
        self.seed = seed
        self._key = seed.to_bytes(8, "little", signed=True)

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for tok in tokenize(text):
            h = int.from_bytes(
                hashlib.blake2b(tok.encode("utf-8"), digest_size=8,
                                key=self._key).digest(),
                "little",
            )
            bucket = h % self.dimension
            sign = 1.0 if (h >> 32) & 1 else -1.0
            vec[bucket] += sign
        if float(np.linalg.norm(vec)) < 1e-12:
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
