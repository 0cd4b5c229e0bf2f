"""Continue from the path-search demo: score candidates, draw Gumbel soft
selection weights, gate with the verifier, build the soft path-context
mixture, and inspect cross-attention mass per path.
"""

import numpy as np

from kgpaths import (
    EnumerationBudget,
    GumbelConfig,
    HashEmbeddings,
    KnowledgeGraph,
    ScoreTable,
    SeedCandidate,
    WeightCoefficients,
    attention_mass,
    context_mixture,
    cross_attention,
    encode_path,
    enumerate_paths,
    expand_neighborhood,
    gumbel_soft_weights,
    score_candidates,
    select_and_inject,
    verify,
)

graph = KnowledgeGraph()
for h, r, t in [
    ("Argo", "directed_by", "Ben_Affleck"),
    ("Argo", "written_by", "Chris_Terrio"),
    ("Chris_Terrio", "born_in", "New_York_City"),
    ("Chris_Terrio", "based_in", "Boston"),
    ("Ben_Affleck", "born_in", "Berkeley"),
]:
    graph.add_triple(h, r, t)
graph.finalize()

embeddings = HashEmbeddings(dimension=32, seed=0)
coeffs = WeightCoefficients()
seeds = [SeedCandidate(graph.entity_id("Argo"), confidence=0.9)]
subgraph = expand_neighborhood(graph, seeds, radius=2, knn=0,
                               embeddings=embeddings)
query = "Where was the screenwriter of Argo born?"
qvec = embeddings.embed(query)

# enumeration, scoring, the verifier and the latents share one table, so
# each path is pooled and scored once
table = ScoreTable(subgraph, coeffs, embeddings, qvec)
paths = enumerate_paths(table, [s.entity for s in seeds],
                        EnumerationBudget(max_candidates=10))
candidates = score_candidates(paths, table)
gumbel_soft_weights(candidates, GumbelConfig(temperature=0.2, rng_seed=0))
for c in candidates:
    c.verifier = verify(c.path, table)

print("candidate table (u, soft weight, verifier):")
for c in candidates:
    print(f"  u={c.u:+.3f}  w={c.soft_weight:.3f}  v={c.verifier:.3f}  "
          + c.path.verbalize(graph))

selected = select_and_inject(
    candidates, top_k=4,
    seed_confidence={s.entity: s.confidence for s in seeds})
latents = [encode_path(c.path, table, path_id=i)
           for i, c in enumerate(selected)]
mixture = context_mixture(
    list(zip(latents, (c.adjusted_injection for c in selected))))
print(f"\nselected {len(selected)} paths; "
      f"mixture z_ctx norm = {np.linalg.norm(mixture.z_ctx):.4f}")

# fake answer-token queries attending over the injected path keys
rng = np.random.default_rng(0)
keys = np.stack([embeddings.embed(graph.entity_labels[c.path.terminal])
                 for c in selected])
queries = rng.standard_normal((3, keys.shape[1]))
_, attention = cross_attention(queries, keys, keys)
key_index = {i: (i,) for i in range(len(selected))}
print("\nattention mass per injected path:")
for i, c in enumerate(selected):
    mass = attention_mass(attention, key_index, i)
    print(f"  mass={mass:.3f}  alpha={c.adjusted_injection:.3f}  "
          + c.path.verbalize(graph))
