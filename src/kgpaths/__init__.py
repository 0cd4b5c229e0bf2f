"""kgpaths: path-based retrieval over knowledge graphs with semantic-
structural weighting, soft path injection, and an iterative
retrieval-reasoning loop."""

from .config import RunConfig, load_config
from .embeddings import (
    FileEmbeddings,
    HashEmbeddings,
    ServiceEmbeddings,
    cosine,
    query_embedding,
)
from .errors import (
    CapabilityError,
    ConfigError,
    EditError,
    EmptyPathError,
    EmptySelectionError,
    KgError,
    ParseError,
    ServiceError,
    UnknownEntityError,
    UnknownItemError,
    UnknownRelationError,
    ZeroVectorError,
)
from .evaluation import (
    BenchmarkRecord,
    EpisodeMetrics,
    answer_metrics,
    coverage,
    load_benchmark,
    rank_metrics,
    run_benchmark,
    simplex_grid,
    sweep,
)
from .graph import (
    ConfirmTriple,
    ExpandSeed,
    GraphEdit,
    KnowledgeGraph,
    PruneEdge,
    RefuteTriple,
    SeedCandidate,
    Subgraph,
    SwapSeed,
    Triple,
    apply_edits,
    expand_neighborhood,
    load_prior_overrides,
    load_triples,
)
from .injection import (
    AttentionMatrix,
    ContextMixture,
    PathLatent,
    alignment_loss,
    attention_mass,
    causal_effect,
    context_mixture,
    cross_attention,
    encode_path,
    load_attention_json,
)
from .loop import (
    DiagnosticMessage,
    EpisodeResult,
    ExternalReasoner,
    ScriptedReasoner,
    discretize_topk,
    map_diagnostic,
    parse_diagnostic,
    run_loop,
    soft_mask,
)
from .losses import (
    LossWeights,
    anneal,
    bce,
    infonce,
    pi_map_ce,
    rl_reward,
    total_loss,
)
from .pathenum import (
    EnumerationBudget,
    beam_expand,
    enumerate_paths,
    k_shortest_weighted,
    random_walk_proposals,
)
from .paths import Path, pool_path_vector
from .scoring import (
    GumbelConfig,
    LinearScorer,
    LinearVerifier,
    ScoredCandidate,
    gumbel_soft_weights,
    score_candidates,
    select_and_inject,
    verify,
)
from .weights import (
    ScoreTable,
    WeightCoefficients,
    edge_weight,
    effective_cost,
    path_score,
    semantic_match,
)

__version__ = "0.1.0"
