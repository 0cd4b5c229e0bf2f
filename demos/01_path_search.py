"""Walk through the retrieval half of the pipeline on a tiny graph:
load triples, expand a seed neighborhood, and enumerate weighted paths
with the exact / beam / random-walk hybrid.
"""

from kgpaths import (
    EnumerationBudget,
    HashEmbeddings,
    KnowledgeGraph,
    ScoreTable,
    SeedCandidate,
    WeightCoefficients,
    enumerate_paths,
    expand_neighborhood,
)

graph = KnowledgeGraph()
for h, r, t in [
    ("Argo", "directed_by", "Ben_Affleck"),
    ("Argo", "written_by", "Chris_Terrio"),
    ("Chris_Terrio", "born_in", "New_York_City"),
    ("Chris_Terrio", "based_in", "Boston"),
    ("Ben_Affleck", "born_in", "Berkeley"),
    ("Berkeley", "located_in", "California"),
    ("New_York_City", "located_in", "New_York_State"),
]:
    graph.add_triple(h, r, t)
graph.finalize()
print(f"graph: {graph.num_entities} entities, {len(graph.triples)} triples")

embeddings = HashEmbeddings(dimension=32, seed=0)
seeds = [SeedCandidate(graph.entity_id("Argo"), confidence=1.0)]
subgraph = expand_neighborhood(graph, seeds, radius=2, knn=0,
                               embeddings=embeddings)
print(f"2-hop neighborhood of Argo: {len(subgraph.nodes)} nodes, "
      f"{len(subgraph.edges)} edges")

query = "Where was the screenwriter of Argo born?"
qvec = embeddings.embed(query)
coeffs = WeightCoefficients()  # alpha=0.4 beta=0.4 gamma=0.2
budget = EnumerationBudget(max_length=4, max_candidates=20)
# one table per round: edge costs and path scores, each computed once
table = ScoreTable(subgraph, coeffs, embeddings, qvec)
paths = enumerate_paths(table, [s.entity for s in seeds], budget, rng_seed=0)

print(f"\ntop candidate paths (of {len(paths)}):")
for p in paths[:8]:
    print(f"  score={table.score(p):+.3f}  " + p.verbalize(graph))
