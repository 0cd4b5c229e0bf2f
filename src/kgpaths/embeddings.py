"""Embedding providers and similarity primitives.

A provider is any object with ``embed(label) -> vector``, which raises
``UnknownItemError`` for a label it has no vector for. Three ship:

* hash-deterministic — seeded pseudorandom unit vectors derived from the
  label text; zero-dependency default, stable across runs and platforms.
* file — vectors loaded from a TSV (``label<TAB>v1,v2,...``).
* external service — HTTP POST JSON ``{"items": [...]}`` returning
  ``{"vectors": [[...]]}``.

The module also holds every numeric kernel: dot products, cosines, pooled
means and float sums, so one module knows numpy's summation order.
"""

from __future__ import annotations

import hashlib
import math
import os
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from functools import partial

import numpy as np

from .errors import ParseError, ServiceError, UnknownItemError, ZeroVectorError
from .graph import read_keyed

EMBED_URL_ENV = "KGPATHS_EMBED_URL"
EMBED_TOKEN_ENV = "KGPATHS_EMBED_TOKEN"


try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum


# ``row_dots(a, b)``: the dot product of each row of ``a`` with the same
# row of ``b``, ``np.einsum("ij,ij->i", a, b)``: the package's one dot
# kernel. ``einsum`` sums each row's products in its own loop and never
# calls BLAS, so a row's dot has the same bits alone (``row_dot``) as
# inside any batch, whichever BLAS kernel the CPU gets; ``ndarray.dot``
# calls BLAS ``ddot``, whose kernel OpenBLAS picks per CPU at run time.
# ``np.einsum`` with ``optimize=False`` calls the C function bound here;
# binding it directly skips the wrapper, which costs more than the dot at
# these sizes.
row_dots = partial(_einsum, "ij,ij->i")
# ``row_dot(a, b)``: ``row_dots`` of one row, the dot product of 1-D
# ``a`` and ``b`` as a numpy float.
row_dot = partial(_einsum, "i,i->")


def add_reduce(values) -> float:
    """``np.add.reduce`` of the float64 array of ``values``, in plain
    Python: the sum of a handful of values, without numpy's per-call cost.

    It repeats numpy's summation order, so the bits are numpy's: below 8
    values, ``running_sum``; from 8 to 128, eight running sums
    of every eighth value, added as a tree, then the values left over
    after the last full eight, in order; above 128, the two halves (the
    first a multiple of 8) summed so, and added.
    """
    n = len(values)
    if n < 8:
        return running_sum(values)
    return 0.0 + _pairwise_sum(values, 0, n)


def running_sum(values) -> float:
    """Sum left to right from +0.0: builtin ``sum``'s bits before 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def _pairwise_sum(values, lo: int, n: int) -> float:
    """numpy's pairwise sum of ``values[lo:lo + n]``, ``n >= 8``."""
    if n > 128:
        half = n // 2
        half -= half % 8
        return (_pairwise_sum(values, lo, half)
                + _pairwise_sum(values, lo + half, n - half))
    r0, r1, r2, r3, r4, r5, r6, r7 = values[lo:lo + 8]
    end = lo + n - n % 8
    for i in range(lo + 8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(end, lo + n):
        total += values[i]
    return total


def _mismatch(a: tuple, b: tuple) -> ValueError:
    return ValueError(f"dimension mismatch: {a} vs {b}")


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]. Zero vectors are an error, not
    a silent 0.

    It equals ``np.clip(dot(a, b) / (norm(a) * norm(b)), -1, 1)`` with every
    dot product, the norms' included, taken by ``row_dot``. Vectors of
    different shapes raise ``ValueError`` before any dot is taken.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise _mismatch(a.shape, b.shape)
    return normed_cosine(a, b, math.sqrt(row_dot(a, a)),
                         math.sqrt(row_dot(b, b)))


def normed_cosine(a: np.ndarray, b: np.ndarray, na: float, nb: float) -> float:
    """``cosine`` of float arrays ``a`` and ``b`` whose norms ``na`` and
    ``nb`` (``sqrt(row_dot(v, v))``) the caller already holds: the shape
    check, the zero-vector error and the clamp of ``cosine``, in its
    order."""
    if a.shape != b.shape:
        raise _mismatch(a.shape, b.shape)
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero vector is undefined")
    c = float(row_dot(a, b) / (na * nb))
    return -1.0 if c < -1.0 else 1.0 if c > 1.0 else c


def normed_cosines(rows: np.ndarray, b: np.ndarray, row_norms: np.ndarray,
                   nb: float) -> np.ndarray:
    """``normed_cosine(rows[i], b, row_norms[i], nb)`` for each row of the
    2-D float array ``rows``, through one ``row_dots`` call: the same
    bits, and the same errors, raised before any dot is taken."""
    if rows.shape[1:] != b.shape:
        raise _mismatch(rows.shape[1:], b.shape)
    if nb == 0.0 or not row_norms.all():
        raise ZeroVectorError("cosine of a zero vector is undefined")
    c = row_dots(rows, b[None]) / (row_norms * nb)  # b broadcast to each row
    return np.clip(c, -1.0, 1.0)


def pool_vectors(vectors: list[np.ndarray], owner) -> np.ndarray:
    """The normalized mean of ``vectors``, which belong to ``owner`` (named
    in the error when the mean is zero).

    Order-insensitive by construction. The mean is ``np.mean(vectors,
    axis=0)``: ``np.add.reduce(axis=0)`` divided by the count, without
    numpy's per-call Python wrappers. The norm is ``sqrt(row_dot(mean,
    mean))``.
    """
    mean = np.add.reduce(vectors, axis=0) / len(vectors)
    norm = math.sqrt(row_dot(mean, mean))
    if norm == 0.0:
        raise ZeroVectorError(f"pooled vector is zero for {owner!r}")
    return mean / norm


def pool_vector_stack(stack: np.ndarray, owners) -> np.ndarray:
    """``pool_vectors(stack[i], owners[i])`` for each i, as rows of one
    array: ``stack`` is an (n, m, d) array of n owners' m >= 2 vectors
    each, with d > 1.

    It sums each owner's vectors in their order, as ``np.add.reduce(axis=0)``
    does for d > 1, so the bits are those of ``pool_vectors``. (For d = 1,
    numpy sums 8 or more values pairwise, so a d = 1 batch would not
    match.) The norms are one ``row_dots`` call. A zero mean raises
    ``ZeroVectorError`` naming the first owner that has one.
    """
    total = stack[:, 0] + stack[:, 1]
    for i in range(2, stack.shape[1]):
        total += stack[:, i]
    mean = total / stack.shape[1]
    norms = np.sqrt(row_dots(mean, mean))
    if not norms.all():
        raise ZeroVectorError(
            f"pooled vector is zero for {owners[int(np.argmin(norms))]!r}")
    return mean / norms[:, None]


class HashEmbeddings:
    """Deterministic unit vectors seeded from the item label.

    The label digest (not Python's salted hash) seeds the generator, so the
    same (seed, label) pair maps to the same vector everywhere.
    """

    def __init__(self, dimension: int = 64, seed: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, label: str) -> np.ndarray:
        vec = self._cache.get(label)
        if vec is None:
            digest = hashlib.blake2b(
                label.encode("utf-8"), digest_size=8, key=str(self.seed).encode()
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            raw = rng.standard_normal(self.dimension)
            norm = math.sqrt(row_dot(raw, raw))
            if norm == 0.0:  # standard normal draw; effectively unreachable
                raw[0] = 1.0
                norm = 1.0
            vec = raw / norm
            vec.setflags(write=False)
            self._cache[label] = vec
        return vec


class FileEmbeddings:
    """Vectors loaded from TSV ``label<TAB>v1,v2,...`` or a mapping.

    Each vector is kept as a read-only view, so the caller's own arrays
    stay writeable and are not copied. Every value must be finite; the
    check stacks ``CHECK_ROWS`` vectors at a time and names the first
    label that fails it.
    """

    CHECK_ROWS = 4096

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise ValueError("empty embedding table")
        dims = {len(v) for v in vectors.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
        self.dimension = dims.pop()
        self._vectors = {}
        for label, vec in vectors.items():
            arr = np.asarray(vec, dtype=float).view()
            arr.setflags(write=False)
            self._vectors[label] = arr
        rows = list(self._vectors.values())
        for start in range(0, len(rows), self.CHECK_ROWS):
            finite = np.isfinite(
                np.stack(rows[start:start + self.CHECK_ROWS])).all(axis=1)
            if not finite.all():
                label = list(self._vectors)[start + int(finite.argmin())]
                raise ValueError(f"non-finite embedding for {label!r}")

    @classmethod
    def load(cls, source) -> "FileEmbeddings":
        """Read ``label<TAB>v1,v2,...`` lines; a repeated label, a value
        that is no finite number or a length other than the first line's
        raises ``ParseError`` naming the line."""
        vectors: dict[str, np.ndarray] = {}
        dimension = 0
        for lineno, (label, values) in read_keyed(source, "label",
                                                  "v1,v2,..."):
            try:
                vec = np.array([float(x) for x in values.split(",")])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if not np.isfinite(vec).all():
                raise ParseError(f"non-finite embedding for {label!r}", lineno)
            dimension = dimension or len(vec)
            if len(vec) != dimension:
                raise ParseError(f"embedding for {label!r} has {len(vec)} "
                                 f"values, expected {dimension}", lineno)
            vectors[label] = vec
        return cls(vectors)

    def embed(self, label: str) -> np.ndarray:
        try:
            return self._vectors[label]
        except KeyError:
            raise UnknownItemError(f"no embedding for {label!r}") from None


class ServiceEmbeddings:
    """HTTP embedding service client with a per-instance result cache.

    Failures raise :class:`ServiceError` with ``retryable`` / ``retry_after``
    metadata (see :class:`JsonService`); retry policy is the caller's
    decision.
    """

    def __init__(self, dimension: int, url: str | None = None,
                 token: str | None = None, timeout: float = 30.0, session=None):
        self.dimension = dimension
        self._service = JsonService("embedding service", url, EMBED_URL_ENV,
                                    token, EMBED_TOKEN_ENV, timeout, session)
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, label: str) -> np.ndarray:
        if label not in self._cache:
            self.embed_many([label])
        return self._cache[label]

    def embed_many(self, labels: list[str]) -> list[np.ndarray]:
        missing = [l for l in labels if l not in self._cache]
        if missing:
            vectors = self._service.post({"items": missing},
                                         lambda body: body["vectors"])
            if not isinstance(vectors, list) or len(vectors) != len(missing):
                raise ServiceError("vector count mismatch in service reply")
            for label, vec in zip(missing, vectors):
                try:
                    arr = np.asarray(vec, dtype=float)
                except (ValueError, TypeError) as exc:
                    raise ServiceError(
                        f"malformed service vector for {label!r}: {exc}"
                    ) from exc
                if arr.shape != (self.dimension,):
                    raise ServiceError(
                        f"service vector for {label!r} has dimension "
                        f"{arr.shape}, expected ({self.dimension},)"
                    )
                if not np.all(np.isfinite(arr)):
                    raise ServiceError(
                        f"non-finite service vector for {label!r}")
                arr.setflags(write=False)
                self._cache[label] = arr
        return [self._cache[l] for l in labels]


def _retry_after_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` header in seconds: delay-seconds or an HTTP date.
    ``None`` when the header is absent, unreadable or negative."""
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # "-0000": UTC with no stated zone
            when = when.replace(tzinfo=timezone.utc)
        seconds = max((when - datetime.now(timezone.utc)).total_seconds(), 0.0)
    return seconds if 0.0 <= seconds < math.inf else None


class JsonService:
    """One JSON-over-HTTP POST endpoint, shared by the embedding service and
    the external reasoner.

    The URL and bearer token come from the arguments or else from the named
    environment variables; a missing URL is a ``ValueError``. Every failure
    of :meth:`post` is a :class:`ServiceError`:

    * an unreachable service is retryable;
    * a status other than 200 carries ``status``, is retryable for 429,
      502, 503 and 504, and carries ``retry_after`` from ``Retry-After``;
    * a body that is not JSON, or that ``parse`` rejects with an
      ``AttributeError``, ``KeyError``, ``TypeError`` or ``ValueError``, is
      a malformed reply.
    """

    def __init__(self, name: str, url: str | None, url_env: str,
                 token: str | None, token_env: str, timeout: float,
                 session=None):
        self.name = name
        self.url = url or os.environ.get(url_env)
        if not self.url:
            raise ValueError(f"no {name} URL given and {url_env} unset")
        self.token = token if token is not None else os.environ.get(token_env)
        self.timeout = timeout
        if session is None:
            import requests  # deferred: a slow import that only services need

            session = requests.Session()
        self.session = session

    def post(self, payload: dict, parse):
        """POST ``payload`` as JSON and return ``parse`` of the JSON reply."""
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            resp = self.session.post(self.url, json=payload, headers=headers,
                                     timeout=self.timeout)
        except Exception as exc:  # connection-level failure: retryable
            raise ServiceError(f"{self.name} unreachable: {exc}",
                               retryable=True) from exc
        if resp.status_code != 200:
            raise ServiceError(
                f"{self.name} returned {resp.status_code}",
                retryable=resp.status_code in (429, 502, 503, 504),
                retry_after=_retry_after_seconds(resp.headers.get("Retry-After")),
                status=resp.status_code,
            )
        try:
            return parse(resp.json())
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed {self.name} reply: {type(exc).__name__}: {exc}"
            ) from exc


def query_embedding(provider, question: str, graph) -> np.ndarray:
    """Embed a question: the provider's vector for the whole question text.

    When the provider raises ``UnknownItemError`` for it (a file table
    without the question), average the embeddings of the entity and
    relation labels that the question's whitespace tokens match
    (``pool_vectors``); when no token matches, that error is raised again.
    """
    try:
        return provider.embed(question)
    except UnknownItemError:
        lookup: dict[str, str] = {}
        for label in list(graph.entity_labels) + list(graph.relation_labels):
            lookup.setdefault(label.lower(), label)
            for part in label.replace("_", " ").split():
                lookup.setdefault(part.lower(), label)
        matched: list[str] = []
        for token in question.split():
            token = token.strip(".,;:?!\"'()").lower()
            if token in lookup:
                matched.append(lookup[token])
        if not matched:
            raise
    return pool_vectors([provider.embed(label) for label in matched],
                        question)
