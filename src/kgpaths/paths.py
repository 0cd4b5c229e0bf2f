"""Candidate path representation and latent pooling."""

from __future__ import annotations

import numpy as np

from .embeddings import pool_vectors
from .errors import EmptyPathError
from .graph import KnowledgeGraph, Triple


class Path:
    """A contiguous, simple chain of edges.

    ``nodes`` and ``relations`` are derived from the edge list once;
    identity for deduplication is the (node sequence, relation sequence)
    pair so parallel edges with different relations stay distinct.
    """

    __slots__ = ("edges", "nodes", "relations")

    def __init__(self, edges):
        edges = tuple(edges)
        if not edges:
            raise EmptyPathError("a path must contain at least one edge")
        nodes = [edges[0].head]
        for e in edges:
            if e.head != nodes[-1]:
                raise ValueError(f"non-contiguous path at edge {e}")
            nodes.append(e.tail)
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"path repeats a node: {nodes}")
        self.edges: tuple[Triple, ...] = edges
        self.nodes: tuple[int, ...] = tuple(nodes)
        self.relations: tuple[int, ...] = tuple(e.relation for e in edges)

    @classmethod
    def unchecked(cls, edges: tuple[Triple, ...], nodes: tuple[int, ...],
                  relations: tuple[int, ...]) -> "Path":
        """A path from tuples its caller built as a nonempty, contiguous,
        simple chain, kept as given: nothing is checked or derived again."""
        path = cls.__new__(cls)
        path.edges = edges
        path.nodes = nodes
        path.relations = relations
        return path

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def terminal(self) -> int:
        return self.nodes[-1]

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.nodes, self.relations)

    def __eq__(self, other) -> bool:
        return isinstance(other, Path) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Path(nodes={self.nodes}, relations={self.relations})"

    def verbalize(self, graph: KnowledgeGraph) -> str:
        parts = [graph.entity_labels[self.nodes[0]]]
        for e in self.edges:
            parts.append(graph.relation_labels[e.relation])
            parts.append(graph.entity_labels[e.tail])
        return " -> ".join(parts)


def pool_path_vector(path: Path, embeddings, graph: KnowledgeGraph) -> np.ndarray:
    """Mean of all node and relation embeddings along the path, normalized:
    ``pool_vectors`` of the nodes' vectors, then the relations'."""
    labels = [graph.entity_labels[n] for n in path.nodes]
    labels += [graph.relation_labels[r] for r in path.relations]
    return pool_vectors([embeddings.embed(label) for label in labels], path)

