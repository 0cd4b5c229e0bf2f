import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgpaths
from kgpaths.embeddings import (
    FileEmbeddings,
    HashEmbeddings,
    ServiceEmbeddings,
    _retry_after_seconds,
    cosine,
    query_embedding,
    row_dot,
    row_dots,
)
from kgpaths.errors import ParseError, ServiceError, UnknownItemError, ZeroVectorError

from conftest import build_graph, cosine_oracle, einsum_norm


def test_cosine_basic_and_clamped():
    assert cosine([1, 0], [1, 0]) == 1.0
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1e-8, 0], [1e-8, 1e-20]) <= 1.0
    # int lists are converted
    assert cosine([1, 2, 3], [4, 5, -6]) == cosine([1.0, 2.0, 3.0],
                                                 [4.0, 5.0, -6.0])


def test_cosine_errors():
    with pytest.raises(ZeroVectorError):
        cosine([0, 0], [1, 0])
    # the shape check comes before any dot product is taken
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine([1, 0], [1, 0, 0])
    with pytest.raises(ValueError, match=r"dimension mismatch: \(2,\) vs \(\)"):
        cosine([1, 0], None)


# per-vector magnitudes 10**-150 .. 10**150 keep every dot product finite
# and nonzero at d <= 128
_DIM = st.integers(min_value=1, max_value=128)
_SEED = st.integers(min_value=0, max_value=2**32 - 1)
_EXPONENT = st.integers(min_value=-150, max_value=150)


@settings(max_examples=300, deadline=None)
@given(_DIM, _SEED, _EXPONENT, _EXPONENT,
       st.sampled_from(["independent", "parallel", "opposite"]))
@example(1, 0, 0, 0, "parallel")
@example(128, 0, -150, 150, "opposite")
def test_cosine_equals_numpy_formula_bit_for_bit(d, seed, ea, eb, relation):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(d) * 10.0 ** ea
    b = rng.standard_normal(d) * 10.0 ** eb
    if relation != "independent":  # |cosine| at or just past 1: the clamp
        sign = 1.0 if relation == "parallel" else -1.0
        b = a * (sign * 10.0 ** (eb - ea))
    assert cosine(a, b) == cosine_oracle(a, b)


@settings(max_examples=300, deadline=None)
@given(_DIM, _SEED, st.integers(min_value=1, max_value=40),
       st.lists(_EXPONENT, min_size=2, max_size=2), st.data())
@example(1, 0, 9, [0, 0], None)
def test_row_kernel_gives_a_row_the_same_bits_in_any_batch(d, seed, n,
                                                           exponents, data):
    """A row's dot product has the same bits alone (``row_dot``), in the
    whole batch, in any slice of it, and against one vector broadcast to
    every row, as ``normed_cosines`` calls it. Row magnitudes range over
    ``10**-75 .. 10**75`` each, so every product stays finite."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** (rng.integers(*sorted(exponents), endpoint=True,
                                  size=(2, n, 1)) / 2)
    a = rng.standard_normal((n, d)) * scale[0]
    b = rng.standard_normal((n, d)) * scale[1]
    rows = row_dots(a, b)
    alone = [row_dot(a[i], b[i]) for i in range(n)]
    assert rows.tobytes() == np.array(alone).tobytes()
    lo = data.draw(st.integers(0, n - 1)) if data is not None else 0
    hi = data.draw(st.integers(lo + 1, n)) if data is not None else n
    assert row_dots(a[lo:hi], b[lo:hi]).tobytes() == rows[lo:hi].tobytes()
    assert np.isfinite(rows).all()
    broadcast = row_dots(a, b[lo][None])
    assert broadcast.tobytes() == np.array(
        [row_dot(a[i], b[lo]) for i in range(n)]).tobytes()


@pytest.mark.parametrize("dimension", [1, 2, 16, 128])
def test_hash_embeddings_normalize_like_numpy_norm(dimension):
    emb = HashEmbeddings(dimension=dimension, seed=3)
    for label in ("Boston", "Argo", "q"):
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8,
                                 key=b"3").digest()
        raw = np.random.default_rng(
            int.from_bytes(digest, "big")).standard_normal(dimension)
        assert np.array_equal(emb.embed(label), raw / einsum_norm(raw))


def test_hash_embeddings_deterministic_unit_norm():
    a = HashEmbeddings(dimension=32, seed=1)
    b = HashEmbeddings(dimension=32, seed=1)
    v1, v2 = a.embed("Boston"), b.embed("Boston")
    assert np.allclose(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    # different seeds decorrelate
    c = HashEmbeddings(dimension=32, seed=2)
    assert not np.allclose(v1, c.embed("Boston"))
    # cached vectors are write-protected
    with pytest.raises((ValueError, RuntimeError)):
        v1[0] = 9.0


def test_file_embeddings_load_and_errors(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\t1.0,0.0\nb\t0.0,2.0\n")
    emb = FileEmbeddings.load(p)
    assert emb.dimension == 2
    assert np.allclose(emb.embed("b"), [0.0, 2.0])
    assert np.allclose(emb.embed("a"), [1.0, 0.0])
    with pytest.raises(UnknownItemError):
        emb.embed("zzz")
    with pytest.raises(ParseError, match="line 1"):
        FileEmbeddings.load(io.StringIO("a\t1.0,oops\n"))
    with pytest.raises(ValueError):
        FileEmbeddings({"a": [1.0], "b": [1.0, 2.0]})
    # one check covers the table; its error names the first bad label
    with pytest.raises(ValueError, match="non-finite embedding for 'b'"):
        FileEmbeddings({"a": [1.0, 0.0], "b": [1.0, np.inf],
                        "c": [np.nan, 0.0]})


@pytest.mark.parametrize("text, message", [
    ("a\t1,0\nb\tnan,1\n", "line 2: non-finite embedding for 'b'"),
    ("a\t1,0\nb\t1,0,0\n", "line 2: embedding for 'b' has 3 values, "
                              "expected 2"),
])
def test_file_embeddings_load_names_the_bad_line(text, message):
    with pytest.raises(ParseError, match=message) as exc:
        FileEmbeddings.load(io.StringIO(text))
    assert exc.value.line_number == 2


def test_file_embeddings_keep_the_callers_arrays():
    rows = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}
    emb = FileEmbeddings(rows)
    assert rows["a"].flags.writeable and rows["b"].flags.writeable
    # a read-only view of the caller's array, not a copy
    vec = emb.embed("a")
    assert np.shares_memory(vec, rows["a"]) and not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 9.0


def test_file_embeddings_name_a_non_finite_row_past_the_first_chunk():
    matrix = np.ones((2 * FileEmbeddings.CHECK_ROWS + 5, 3))
    matrix[FileEmbeddings.CHECK_ROWS + 7, 2] = np.nan
    matrix[-1, 0] = np.inf
    labels = [f"e{i}" for i in range(len(matrix))]
    with pytest.raises(ValueError, match=(
            f"non-finite embedding for 'e{FileEmbeddings.CHECK_ROWS + 7}'")):
        FileEmbeddings(dict(zip(labels, matrix)))


def test_file_embeddings_check_holds_no_copy_of_the_table():
    matrix = np.random.default_rng(0).standard_normal((40_000, 64))
    vectors = dict(zip((f"e{i}" for i in range(len(matrix))), matrix))
    tracemalloc.start()
    try:
        FileEmbeddings(vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes / 2


class _EmbedHandler(BaseHTTPRequestHandler):
    calls = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _EmbedHandler.calls.append((self.path, self.headers.get("Authorization"),
                                    body["items"]))
        if self.path == "/fail":
            self.send_response(503)
            self.send_header("Retry-After", "7")
            self.end_headers()
            return
        vectors = [[float(len(item)), 1.0] for item in body["items"]]
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbedHandler.calls = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_service_embeddings_roundtrip_and_cache(embed_server):
    emb = ServiceEmbeddings(2, url=embed_server, token="sekrit")
    assert np.allclose(emb.embed("abc"), [3.0, 1.0])
    assert np.allclose(emb.embed("abc"), [3.0, 1.0])  # served from cache
    assert len(_EmbedHandler.calls) == 1
    assert _EmbedHandler.calls[0][1] == "Bearer sekrit"
    many = emb.embed_many(["abc", "wxyz"])
    assert np.allclose(many[1], [4.0, 1.0])
    assert len(_EmbedHandler.calls) == 2  # only the miss went out


def test_service_embeddings_failure_metadata(embed_server):
    emb = ServiceEmbeddings(2, url=embed_server + "/fail")
    with pytest.raises(ServiceError) as exc:
        emb.embed("x")
    assert exc.value.retryable
    assert exc.value.retry_after == 7.0
    assert exc.value.status == 503


def test_service_embeddings_unreachable_is_retryable():
    emb = ServiceEmbeddings(2, url="http://127.0.0.1:1", timeout=0.2)
    with pytest.raises(ServiceError) as exc:
        emb.embed("x")
    assert exc.value.retryable


def test_service_embeddings_requires_url(monkeypatch):
    monkeypatch.delenv("KGPATHS_EMBED_URL", raising=False)
    with pytest.raises(ValueError):
        ServiceEmbeddings(2)


def test_importing_kgpaths_leaves_requests_unimported():
    """``requests`` is imported only when a service client is built without
    a session: it is a slow import, and most runs use no service."""
    src = os.path.dirname(os.path.dirname(kgpaths.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, kgpaths; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_query_embedding_direct_hit():
    emb = FileEmbeddings({"who wrote argo?": np.array([0.0, 1.0])})
    g = build_graph([("a", "r", "b")])
    assert np.allclose(query_embedding(emb, "who wrote argo?", g), [0.0, 1.0])


def test_query_embedding_token_overlap():
    g = build_graph([("Boston", "hosted", "Olympics")])
    emb = FileEmbeddings({
        "Boston": np.array([1.0, 0.0]),
        "Olympics": np.array([0.0, 1.0]),
        "hosted": np.array([1.0, 0.0]),
    })
    vec = query_embedding(emb, "Did Boston host the Olympics?", g)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    assert vec[0] > 0 and vec[1] > 0


@settings(max_examples=200, deadline=None)
@given(_DIM, _SEED, st.lists(_EXPONENT, min_size=1, max_size=9))
@example(1, 0, [0] * 9)
def test_query_embedding_mean_equals_numpy_formula_bit_for_bit(
        d, seed, exponents):
    rng = np.random.default_rng(seed)
    labels = [f"t{i}" for i in range(len(exponents))]
    vectors = {label: rng.standard_normal(d) * 10.0 ** e
               for label, e in zip(labels, exponents)}
    g = build_graph([(label, "r", "sink") for label in labels])
    # "?" keeps the question itself out of the provider: the tokens match
    vec = query_embedding(FileEmbeddings(vectors), " ".join(labels) + "?", g)
    mean = np.mean([vectors[label] for label in labels], axis=0)
    assert np.array_equal(vec, mean / einsum_norm(mean))


def test_query_embedding_without_a_match_raises_the_question_miss():
    g = build_graph([("a", "r", "b")])
    table = FileEmbeddings({"a": np.array([1.0, 0.0])})
    looked_up = []

    def embed(label):
        looked_up.append(label)
        return table.embed(label)

    # a provider is ``embed`` alone; the question is looked up once
    with pytest.raises(UnknownItemError, match="'nothing here'"):
        query_embedding(SimpleNamespace(embed=embed), "nothing here", g)
    assert looked_up == ["nothing here"]


def test_query_embedding_hash_fallback(hash_embeddings):
    g = build_graph([("a", "r", "b")])
    vec = query_embedding(hash_embeddings, "completely unrelated text", g)
    assert np.allclose(vec, hash_embeddings.embed("completely unrelated text"))


class _FakeResponse:
    def __init__(self, status_code=200, body="", headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._body = body

    def json(self):
        return json.loads(self._body)


class _FakeSession:
    """Stands in for ``requests.Session``; replies with one canned response."""

    def __init__(self, response):
        self.response = response

    def post(self, url, json=None, headers=None, timeout=None):
        return self.response


def _service(response):
    return ServiceEmbeddings(2, url="http://embed.invalid",
                             session=_FakeSession(response))


@pytest.mark.parametrize("body", ["<html>oops</html>", '{"vecs": [[1, 2]]}',
                                  '[[1.0, 2.0]]'])
def test_service_embeddings_malformed_reply_is_service_error(body):
    with pytest.raises(ServiceError, match="malformed"):
        _service(_FakeResponse(body=body)).embed("x")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_service_embeddings_rejects_non_finite_vectors(value):
    emb = _service(_FakeResponse(body=f'{{"vectors": [[1.0, {value}]]}}'))
    with pytest.raises(ServiceError, match="non-finite"):
        emb.embed("x")


@pytest.mark.parametrize("header, expected", [
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # a date in the past
    ("not a date", None),
])
def test_service_embeddings_retry_after_http_date(header, expected):
    emb = _service(_FakeResponse(status_code=429,
                                 headers={"Retry-After": header}))
    with pytest.raises(ServiceError) as exc:
        emb.embed("x")
    assert exc.value.retryable and exc.value.status == 429
    assert exc.value.retry_after == expected


@pytest.mark.parametrize("header", ["-5", "-0.5"])
def test_retry_after_refuses_negative_seconds(header):
    """A delay-seconds is a non-negative count (RFC 9110 section 10.2.3)."""
    assert _retry_after_seconds(header) is None
