import random
from itertools import chain

import numpy as np
import pytest

from kgpaths.embeddings import HashEmbeddings
from kgpaths.errors import ZeroVectorError
from kgpaths.graph import KnowledgeGraph, Subgraph, Triple


def build_graph(triples):
    graph = KnowledgeGraph()
    for h, r, t in triples:
        graph.add_triple(h, r, t)
    graph.finalize()
    return graph


def full_subgraph(graph):
    """Working view containing every node and edge of the parent graph."""
    sub = Subgraph(graph=graph)
    sub.add_nodes(range(graph.num_entities), 0)
    return sub


def edge_count_oracle(sub):
    """``Subgraph.num_edges`` counted in plain Python: the nodes' out-tail
    ids that are nodes, less the pruned triples between two nodes."""
    nodes, out_tails = sub.nodes, sub.graph.out_tails
    ids = chain.from_iterable(map(out_tails.__getitem__, nodes))
    return sum(map(nodes.__contains__, ids)) - sum(
        1 for h, _, t in sub.pruned if h in nodes and t in nodes)


def random_graph(rng: random.Random, max_nodes=12, max_edges=30):
    n = rng.randint(2, max_nodes)
    graph = KnowledgeGraph()
    for i in range(n):
        graph._intern_entity(f"n{i}")
    for _ in range(rng.randint(1, max_edges)):
        h = rng.randrange(n)
        t = rng.randrange(n)
        if h == t:
            continue
        graph.add_triple(f"n{h}", f"r{rng.randrange(4)}", f"n{t}")
    graph.finalize()
    return graph


def simple_edge_paths(sub, max_length):
    """Every simple path of at most ``max_length`` edges, as edge tuples."""
    adj = {}
    for e in sorted(sub.edges):
        adj.setdefault(e.head, []).append(e)
    out = []

    def grow(edges, nodes):
        out.append(edges)
        if len(edges) < max_length:
            for e in adj.get(edges[-1].tail, []):
                if e.tail not in nodes:
                    grow(edges + (e,), nodes | {e.tail})

    for e in sorted(sub.edges):
        grow((e,), {e.head, e.tail})
    return out


def random_multigraph(rng: random.Random, max_nodes=10, max_pairs=20):
    """A graph like ``random_graph``'s that also has self-loops and
    parallel edges: about a fifth of the drawn pairs are loops, and each
    pair is joined by one to three relations."""
    n = rng.randint(1, max_nodes)
    graph = KnowledgeGraph()
    for i in range(n):
        graph._intern_entity(f"n{i}")
    for _ in range(rng.randint(1, max_pairs)):
        h = rng.randrange(n)
        t = h if rng.random() < 0.2 else rng.randrange(n)
        for r in rng.sample(range(4), rng.randint(1, 3)):
            graph.add_triple(f"n{h}", f"r{r}", f"n{t}")
    graph.finalize()
    return graph


def einsum_norm(v):
    """``v``'s norm with the dot product taken by ``np.einsum``, the kernel
    the package takes every dot product with."""
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def cosine_oracle(a, b):
    """``cosine`` in numpy's formulas, every dot product taken by
    ``np.einsum``: the bit-for-bit reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = einsum_norm(a)
    nb = einsum_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero vector is undefined")
    return float(np.clip(np.einsum("i,i->", a, b) / (na * nb), -1.0, 1.0))


def pool_oracle(path, embeddings, graph):
    """``pool_path_vector`` in numpy's formulas: the bit-for-bit
    reference."""
    labels = [graph.entity_labels[n] for n in path.nodes]
    labels += [graph.relation_labels[r] for r in path.relations]
    return pool_vectors_oracle([embeddings.embed(label) for label in labels],
                               path)


def pool_vectors_oracle(vectors, path):
    """``pool_vectors`` in numpy's formulas: ``np.mean`` over the vectors,
    divided by ``einsum_norm``."""
    mean = np.mean(vectors, axis=0)
    norm = einsum_norm(mean)
    if norm == 0.0:
        raise ZeroVectorError(f"pooled vector is zero for {path!r}")
    return mean / norm


@pytest.fixture
def chain_graph():
    return build_graph([
        ("a", "r1", "b"),
        ("b", "r2", "c"),
        ("c", "r1", "d"),
        ("a", "r3", "c"),
    ])


@pytest.fixture
def hash_embeddings():
    return HashEmbeddings(dimension=16, seed=0)


def triple(h, r, t):
    return Triple(h, r, t)
