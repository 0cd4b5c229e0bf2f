"""The iterative retrieval-reasoning loop.

Each round enumerates and scores candidate paths, injects a soft mixture of
selected path latents into a reasoner, and, when the reasoner's confidence
stays below threshold, maps its diagnostic message to targeted graph edits
(verification, expansion, disambiguation, pruning) applied before the next
round. Each edit carries only what its diagnostic names. Soft multipliers
bridge the diagnostics into traversal costs: a noisy top-k over per-path
mask values (``path_mask``, with a relevance term for confirmed and
refuted triples) picks the paths whose edges take the uncertainty term
(``soft_mask``); then the edits give each confirmed or refuted triple
its fixed multiplier.

An episode keeps the candidates of its last answered round as id paths
(``EpisodeResult.retrieved_keys``), which evaluation compares with the
record's gold paths in id space; their labels are built only when
``EpisodeResult.retrieved_paths`` is read. ``ScriptedReasoner``'s
attention rows are ``scoring.normalise``, and the round's attention
masses plain Python sums in numpy's order (``embeddings.add_reduce``).
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import RunConfig
from .embeddings import JsonService, query_embedding, running_sum
from .errors import EmptySelectionError, KgError
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
    json_value,
    sigmoid,
)
from .injection import (
    AttentionMatrix,
    alignment_loss,
    attention_masses,
    context_mixture,
    encode_path,
)
from .injection import attention_mass  # noqa: F401  perfbench/tracing.py wraps it here
from .pathenum import enumerate_paths
from .scoring import (
    GumbelConfig,
    ScoredCandidate,
    gumbel_soft_weights,
    gumbel_uniforms,
    normalise,
    score_candidates,
    select_and_inject,
    verify,
)
from .weights import ScoreTable

log = logging.getLogger(__name__)

REASONER_URL_ENV = "KGPATHS_REASONER_URL"
REASONER_TOKEN_ENV = "KGPATHS_REASONER_TOKEN"

VERIFY = "VERIFY"
EXPAND = "EXPAND"
DISAMBIGUATE = "DISAMBIGUATE"
PRUNE = "PRUNE"
NONE = "NONE"

_DIAG_RE = re.compile(r"^\s*(VERIFY|EXPAND|DISAMBIGUATE|PRUNE)\s*\((.*)\)\s*$")


@dataclass(frozen=True)
class DiagnosticMessage:
    kind: str
    args: tuple[str, ...] = ()

    def canonical(self) -> str:
        if self.kind == NONE:
            return NONE
        return f"{self.kind}({', '.join(self.args)})"


def parse_diagnostic(text: str) -> DiagnosticMessage | None:
    """Parse reasoner diagnostic text; ``None`` marks an unparseable message
    (the loop logs it and applies no edits)."""
    stripped = text.strip()
    if stripped == NONE or stripped == "":
        return DiagnosticMessage(NONE)
    match = _DIAG_RE.match(stripped)
    if not match:
        return None
    kind, body = match.group(1), match.group(2)
    args = tuple(a.strip() for a in body.split(","))
    expected = {VERIFY: 3, EXPAND: 2, DISAMBIGUATE: 2, PRUNE: 1}[kind]
    if len(args) != expected or any(not a for a in args):
        return None
    return DiagnosticMessage(kind, args)


def map_diagnostic(
    message: DiagnosticMessage | None,
    graph: KnowledgeGraph,
    candidates: list[ScoredCandidate] | None = None,
) -> list[GraphEdit]:
    """Rule-template mapping from a diagnostic to concrete graph edits.

    VERIFY is a local check against the base KG: present facts are
    confirmed, absent ones refuted. ``PRUNE(i)`` prunes the edges of
    ``candidates[i]``, where ``candidates`` are the paths the reasoner was
    shown, in the order it saw them (``run_loop`` passes the selected
    paths). Parse failures never abort the loop; they yield no edits.
    """
    if message is None:
        log.warning("unparseable diagnostic; no edits emitted")
        return []
    if message.kind == NONE:
        return []
    try:
        if message.kind == VERIFY:
            head_l, rel_l, tail_l = message.args
            head = graph.entity_id(head_l)
            rel = graph.relation_id(rel_l)
            tail = graph.entity_id(tail_l)
            triple = Triple(head, rel, tail)
            if triple in graph.triples:
                return [ConfirmTriple(triple)]
            return [RefuteTriple(triple)]
        if message.kind == EXPAND:
            entity_l, radius_s = message.args
            return [ExpandSeed(graph.entity_id(entity_l), int(radius_s))]
        if message.kind == DISAMBIGUATE:
            mention_l, alternatives = message.args
            alt = alternatives.split("|")[0].strip()
            return [SwapSeed(graph.entity_id(mention_l), graph.entity_id(alt))]
        if message.kind == PRUNE:
            if candidates is None:
                log.warning("PRUNE diagnostic without a candidate list")
                return []
            idx = int(message.args[0])
            if not 0 <= idx < len(candidates):
                log.warning("PRUNE path_id %d out of range", idx)
                return []
            return [PruneEdge(e) for e in candidates[idx].path.edges]
    except (ValueError, KeyError, KgError) as exc:
        log.warning("diagnostic %r failed to map: %s", message.canonical(), exc)
        return []
    log.warning("unknown diagnostic kind %r", message.kind)
    return []


def soft_mask(
    uncertainty: float,
    candidates: list[ScoredCandidate],
    uncertainty_gain: float = 0.0,
) -> dict[Triple, float]:
    """Per-edge mask values keyed by edge, for the edges of ``candidates``:
    each is sigmoid(uncertainty_gain * uncertainty), in (0, 1).

    No edge carries a relevance term: the round's confirmed and refuted
    triples take their edits' multipliers in ``apply_edits``, which runs
    after this mask and overwrites any value it gave them.
    """
    delta = sigmoid(uncertainty_gain * uncertainty)
    return {e: delta for c in candidates for e in c.path.edges}


def path_mask(
    uncertainty: float,
    candidates: list[ScoredCandidate],
    edits: list[GraphEdit],
    gain: float = 4.0,
    uncertainty_gain: float = 0.0,
) -> dict[tuple, float]:
    """Per-path mask values delta in (0, 1), keyed by path identity.

    delta = sigmoid(gain * relevance + uncertainty_gain * uncertainty) with
    relevance -1 when the round's edits refute any of the path's edges
    (refutation dominates), else +1 when they confirm any, else 0.
    """
    confirmed = {e.triple for e in edits if isinstance(e, ConfirmTriple)}
    refuted = {e.triple for e in edits if isinstance(e, RefuteTriple)}
    out = {}
    for c in candidates:
        edges = c.path.edges
        relevance = (-1.0 if any(e in refuted for e in edges)
                     else 1.0 if any(e in confirmed for e in edges) else 0.0)
        out[c.path.key()] = sigmoid(gain * relevance
                                    + uncertainty_gain * uncertainty)
    return out


def discretize_target(k: int) -> int:
    """Discrete selection size: min(ceil(0.2 K), 20)."""
    return min(math.ceil(0.2 * k), 20)


def discretize_topk(
    deltas: dict,
    k: int,
    rng_seed: int = 0,
    deterministic: bool = False,
) -> list:
    """Noisy top-k over mask values: keep the K' items with the largest
    log delta + g, g ~ Gumbel(0,1) (zero when deterministic). There is no
    temperature: dividing every key by one tau > 0 keeps their order.
    Ties break on item id; fewer than K' items selects everything.
    """
    for key, d in deltas.items():
        if not 0.0 < d < 1.0:
            raise ValueError(f"delta for {key!r} must lie in (0, 1), got {d}")
    k_prime = discretize_target(k)
    items = sorted(deltas.items())
    if len(items) <= k_prime:
        return [key for key, _ in items]
    if deterministic:
        g = [0.0] * len(items)
    else:
        g = [-math.log(-math.log(u)) for u in gumbel_uniforms(
            random.Random(rng_seed), len(items))]
    scored = [(math.log(d) + gi, key) for (key, d), gi in zip(items, g)]
    scored.sort(key=lambda sk: (-sk[0], sk[1]))
    return [key for _, key in scored[:k_prime]]


# --- reasoners -------------------------------------------------------------


@dataclass(frozen=True)
class ReasonerReply:
    answer: str
    confidence: float
    diagnostic: str = NONE
    attention: AttentionMatrix | None = None
    tokens: int = 0


def count_tokens(texts) -> int:
    """The reasoners' token count of ``texts``: their whitespace words."""
    return sum(len(text.split()) for text in texts)


# the additive smoothing of ScriptedReasoner's log-probability rule
SCRIPTED_EPSILON = 0.01


class ScriptedReasoner:
    """Deterministic test double bound to a graph.

    Answer: terminal entity of the highest-adjusted-injection selected path.
    Confidence: that path's adjusted injection times its verifier value.
    Diagnostic below the confidence threshold: a per-question verification
    probe when configured, otherwise VERIFY on the top path's final edge.

    Log-probability rule (published so tests can evaluate it independently):
    mass(a) = sum of adjusted_injection * verifier over selected paths
    terminating at entity a; P(a) = (mass(a) + eps) / (sum_mass + eps * N)
    where eps is ``SCRIPTED_EPSILON`` and N counts the distinct terminal
    entities plus the queried answer if it terminates no path.
    """

    def __init__(self, graph: KnowledgeGraph, conf_threshold: float = 0.7,
                 probes: dict[str, tuple[str, str]] | None = None):
        self.graph = graph
        self.conf_threshold = conf_threshold
        self.probes = dict(probes or {})

    def _top(self, selected: list[ScoredCandidate]) -> ScoredCandidate:
        return max(
            selected,
            key=lambda c: (c.adjusted_injection, tuple(-n for n in c.path.nodes)),
        )

    def answer_for(self, question: str, selected: list[ScoredCandidate]) -> str:
        if not selected:
            return ""
        return self.graph.entity_labels[self._top(selected).path.terminal]

    def log_prob(self, question: str, selected: list[ScoredCandidate],
                 answer: str) -> float:
        mass: dict[str, float] = {}
        for c in selected:
            label = self.graph.entity_labels[c.path.terminal]
            mass[label] = mass.get(label, 0.0) + c.adjusted_injection * c.verifier
        space = set(mass) | {answer}
        total = running_sum(mass.values())
        p = (mass.get(answer, 0.0) + SCRIPTED_EPSILON) / (
            total + SCRIPTED_EPSILON * len(space)
        )
        return math.log(p)

    def reason(self, question: str, selected: list[ScoredCandidate],
               mixture=None) -> ReasonerReply:
        top = self._top(selected)
        answer = self.graph.entity_labels[top.path.terminal]
        confidence = min(max(top.adjusted_injection * top.verifier, 0.0), 1.0)

        if confidence > self.conf_threshold:
            diagnostic = NONE
        else:
            args = ((answer, *self.probes[question]) if question in self.probes
                    else self.graph.triple_labels(top.path.edges[-1]))
            diagnostic = DiagnosticMessage(VERIFY, args).canonical()

        tokens = count_tokens(c.path.verbalize(self.graph) for c in selected)
        alphas = normalise([c.adjusted_injection for c in selected])
        n_tok = max(1, len(answer.split()))
        attention = AttentionMatrix(np.array([alphas] * n_tok))
        return ReasonerReply(
            answer=answer, confidence=confidence, diagnostic=diagnostic,
            attention=attention, tokens=tokens,
        )


class ExternalReasoner:
    """HTTP reasoner client.

    POST ``{"question", "paths": [{"text", "weight", "verifier"}],
    "mixture": [...]}`` and expect ``{"answer", "confidence", "diagnostic"?,
    "attention"?, "tokens"?}``: answer a string; confidence a number in
    [0, 1] (not a bool); diagnostic, when given and not null, a string;
    tokens, when given, an integer >= 0 (not a bool). A reply that is not
    JSON or breaks this shape raises ``ServiceError``, which fails the
    episode and leaves the rest of a benchmark run going.
    """

    def __init__(self, graph: KnowledgeGraph, url: str | None = None,
                 token: str | None = None, timeout: float = 60.0,
                 session=None):
        self.graph = graph
        self._service = JsonService("reasoner", url, REASONER_URL_ENV, token,
                                    REASONER_TOKEN_ENV, timeout, session)

    def reason(self, question: str, selected: list[ScoredCandidate],
               mixture=None) -> ReasonerReply:
        payload = {
            "question": question,
            "paths": [
                {
                    "text": c.path.verbalize(self.graph),
                    "weight": c.adjusted_injection,
                    "verifier": c.verifier,
                }
                for c in selected
            ],
            "mixture": list(map(float, mixture.z_ctx)) if mixture is not None else [],
        }

        def parse(body) -> ReasonerReply:
            answer = json_value(body["answer"], str, "answer")
            confidence = json_value(body["confidence"], float, "confidence")
            if not 0 <= confidence <= 1:
                raise ValueError(f"confidence {confidence!r} outside [0, 1]")
            diagnostic = body.get("diagnostic")
            attention = body.get("attention")
            tokens = json_value(body.get("tokens", count_tokens(
                p["text"] for p in payload["paths"])), int, "tokens")
            if tokens < 0:
                raise ValueError(f"tokens {tokens!r} is negative")
            return ReasonerReply(
                answer=answer, confidence=float(confidence),
                diagnostic=(NONE if diagnostic is None
                            else json_value(diagnostic, str, "diagnostic")),
                attention=(None if attention is None else AttentionMatrix(
                    np.asarray(attention, dtype=float))),
                tokens=tokens)

        return self._service.post(payload, parse)


# --- episode driver --------------------------------------------------------


def _counter(name: str):
    """A running episode counter, nested under ``"counters"`` in the trace
    record as ``name``."""
    return field(metadata={"counter": name})


@dataclass
class RoundState:
    round: int
    subgraph_nodes: int
    subgraph_edges: int
    reasoner_calls: int = _counter("reasoner_calls")
    tokens: int = _counter("tokens")
    edits_applied: int = _counter("edits")
    num_candidates: int = 0
    selected: list[dict] = field(default_factory=list)
    answer: str | None = None
    confidence: float | None = None
    diagnostic: str | None = None
    edits: list[str] = field(default_factory=list)
    alignment: float | None = None
    attn_spearman: float | None = None
    forced_expand: bool = False

    def to_record(self) -> dict:
        record = asdict(self)
        record["counters"] = {f.metadata["counter"]: record.pop(f.name)
                              for f in fields(self) if "counter" in f.metadata}
        return record

    def to_json(self) -> str:
        """The trace line of this round: ``to_record`` as sorted-key JSON."""
        return json.dumps(self.to_record(), sort_keys=True)


@dataclass
class EpisodeResult:
    """One episode's answer, rounds and counters.

    ``retrieved_keys`` holds every candidate of the last round the
    reasoner answered as (node ids, relation ids), which is what
    evaluation compares with the gold paths. ``retrieved_paths`` gives the
    same paths as (node labels, relation labels), read from
    ``subgraph.graph`` and built anew on each read.
    """

    answer: str | None = None
    confidence: float | None = None
    rounds: list[RoundState] = field(default_factory=list)
    ranked_answers: list[str] = field(default_factory=list)
    retrieved_keys: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list)
    reasoner_calls: int = 0
    tokens: int = 0
    edits_applied: int = 0
    failed: bool = False
    failure: str | None = None
    subgraph: Subgraph | None = field(default=None, repr=False)

    @property
    def retrieved_paths(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        if not self.retrieved_keys:
            return []
        entities = self.subgraph.graph.entity_labels
        relations = self.subgraph.graph.relation_labels
        return [(tuple(entities[n] for n in nodes),
                 tuple(relations[r] for r in rels))
                for nodes, rels in self.retrieved_keys]

    def trace_jsonl(self) -> str:
        """The trace file's text: one JSON line per round, each ending in a
        newline; empty when no round ran."""
        return "".join(r.to_json() + "\n" for r in self.rounds)


def _edit_repr(edit: GraphEdit, graph: KnowledgeGraph) -> str:
    if isinstance(edit, ExpandSeed):
        return f"ExpandSeed({graph.entity_labels[edit.entity]}, {edit.radius})"
    if isinstance(edit, SwapSeed):
        return (f"SwapSeed({graph.entity_labels[edit.old_entity]}, "
                f"{graph.entity_labels[edit.new_entity]})")
    name = type(edit).__name__
    h, r, t = graph.triple_labels(edit.triple)
    return f"{name}({h}, {r}, {t})"


def _spearman(a: list[float], b: list[float]) -> float | None:
    """Spearman rank correlation: the Pearson correlation of average ranks;
    ``None`` for fewer than two points or a (near-)constant input.

    Pure Python on a handful of values, with the bits of numpy's formula:
    ``np.allclose(x, x[0])`` for "near-constant", then ``np.corrcoef`` of
    ``np.unique`` average ranks. Ranks are multiples of 1/2 and their mean
    (n+1)/2 is exact, so the centred sums of products are exact in any
    order; then come ``np.cov``'s ``* (1 / (n - 1))``, ``np.corrcoef``'s
    two divisions and its clip.
    """
    n = len(a)
    if n < 2:
        return None
    mid = (n + 1) / 2
    centred = []
    for x in (a, b):
        x0 = x[0]
        tol = 1e-8 + 1e-5 * abs(x0)
        finite = math.isfinite(x0)
        if all(v == x0 or (finite and math.isfinite(v) and abs(v - x0) <= tol)
               for v in x):
            return None
        # tied values share the mean of their ranks; NaNs rank last, as one
        # tie
        order = sorted(range(n), key=lambda i: (x[i] != x[i], x[i]))
        ranks = [0.0] * n
        start = 0
        while start < n:
            first = x[order[start]]
            end = start + 1
            while end < n and (x[order[end]] == first or first != first):
                end += 1
            for i in order[start:end]:
                ranks[i] = start + (end - start + 1) / 2 - mid
            start = end
        centred.append(ranks)
    ra, rb = centred
    scale = 1 / (n - 1)
    c00 = sum(r * r for r in ra) * scale
    c11 = sum(r * r for r in rb) * scale
    if c00 == 0.0 or c11 == 0.0:  # every value ties: all NaN
        return None
    c01 = sum(r * s for r, s in zip(ra, rb)) * scale
    return min(1.0, max(-1.0, c01 / math.sqrt(c11) / math.sqrt(c00)))


def run_loop(
    question: str,
    seeds: list[SeedCandidate],
    graph: KnowledgeGraph,
    config: RunConfig,
    reasoner,
    embeddings,
    scorer=None,
    verifier=None,
) -> EpisodeResult:
    """Run one retrieval-reasoning episode of up to ``config.rounds`` rounds.
    ``config`` is used as given: a ``RunConfig`` checks its values when it
    is built.

    Terminates when the reasoner's confidence exceeds the threshold or the
    round budget is exhausted. Any ``KgError`` inside a round, up to the
    reasoner's reply (a ``ServiceError`` from the reasoner or the embedding
    provider, an ``UnknownItemError`` or ``ZeroVectorError`` from the
    embeddings, a scorer or verifier plugin's error), marks the episode
    failed: the finished rounds, with their reasoner calls and tokens, are
    kept and the failed round is traced with no answer. One raised before
    the first round, while the neighborhood (its ``knn`` part) or the
    question is embedded, fails the episode with no rounds.

    An empty candidate set forces an EXPAND edit on the highest-confidence
    seed. ``config.edit_budget`` never refuses a forced EXPAND, but each one
    counts toward ``edits_applied`` and so shrinks the budget left for the
    edits of later diagnostics.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    coeffs = config.coefficients()
    budget = config.budget()

    try:
        subgraph = expand_neighborhood(
            graph, seeds, config.radius, config.knn, embeddings)
        qvec = query_embedding(embeddings, question, graph)
    except KgError as exc:
        return EpisodeResult(failed=True, failure=str(exc))
    seed_ids = [s.entity for s in seeds]
    seed_conf = {s.entity: s.confidence for s in seeds}

    # the episode's answer and running counters, updated round by round
    episode = EpisodeResult(subgraph=subgraph)

    def emit(t: int, **round_fields):
        """Record round ``t`` with the subgraph's size and the running
        counters as they stand now."""
        state = RoundState(
            round=t, subgraph_nodes=len(subgraph.nodes),
            subgraph_edges=subgraph.num_edges,
            reasoner_calls=episode.reasoner_calls, tokens=episode.tokens,
            edits_applied=episode.edits_applied, **round_fields)
        episode.rounds.append(state)

    def forced_expand(t: int, num_candidates: int = 0):
        top_seed = max(seeds, key=lambda s: (s.confidence, -s.entity))
        edit = ExpandSeed(top_seed.entity, radius=1)
        apply_edits(subgraph, [edit], round_index=t + 1)
        episode.edits_applied += 1
        diagnostic = DiagnosticMessage(
            EXPAND, (graph.entity_labels[top_seed.entity], str(edit.radius))
        ).canonical()
        emit(t, diagnostic=diagnostic,
             edits=[_edit_repr(edit, graph)], forced_expand=True,
             num_candidates=num_candidates)

    # every pooled vector and semantic match of the episode, each computed
    # once, over the graph's weighting store, which keeps label vectors,
    # norms and weight totals across episodes; costs and scores, which the
    # soft multipliers set, are dropped at the start of each round, after
    # the previous round's edits
    table = ScoreTable(subgraph, coeffs, embeddings, qvec)
    # the candidates of the last round the reasoner answered
    answered: list[ScoredCandidate] = []
    for t in range(config.rounds):
        table.new_round()
        candidates: list[ScoredCandidate] = []
        # a KgError anywhere up to the reasoner's reply ends the episode as
        # failed; an empty selection forces an EXPAND instead
        try:
            paths = enumerate_paths(
                table, seed_ids, budget,
                rng_seed=config.seed + 1000 * t, pair_mode=config.pair_mode)
            if not paths:
                forced_expand(t)
                continue

            candidates = score_candidates(paths, table, scorer=scorer)
            gumbel_soft_weights(candidates, GumbelConfig(
                temperature=config.tau, rng_seed=config.seed + 7919 * (t + 1),
                deterministic=config.deterministic))
            for c in candidates:
                c.verifier = 1.0 if config.no_verifier else verify(
                    c.path, table, refuted=subgraph.refuted, verifier=verifier)

            try:
                selected = select_and_inject(
                    candidates, top_k=config.select_top_k,
                    threshold=config.select_threshold,
                    seed_confidence=seed_conf, rho=config.rho)
            except EmptySelectionError:
                forced_expand(t, len(candidates))
                continue

            latents = [encode_path(c.path, table, i)
                       for i, c in enumerate(selected)]
            mixture = context_mixture([
                (lat, c.adjusted_injection)
                for lat, c in zip(latents, selected)
            ])
            reply = reasoner.reason(question, selected, mixture=mixture)
        except KgError as exc:
            episode.failed = True
            episode.failure = str(exc)
            emit(t, num_candidates=len(candidates))
            break

        episode.reasoner_calls += 1
        episode.tokens += reply.tokens

        align = spearman = None
        if reply.attention is not None:
            key_index = mixture.key_index
            alphas = {c_i: selected[c_i].adjusted_injection
                      for c_i in range(len(selected))}
            try:
                masses = attention_masses(reply.attention, key_index)
                align = alignment_loss(alphas, masses)
                spearman = _spearman([alphas[p] for p in sorted(alphas)],
                                     [masses[p] for p in sorted(alphas)])
            except (ValueError, IndexError):
                pass  # external attention may not partition our keys

        answered = candidates
        terminal_mass: dict[str, float] = {}
        for c in selected:
            label = graph.entity_labels[c.path.terminal]
            terminal_mass[label] = terminal_mass.get(label, 0.0) + c.adjusted_injection
        episode.ranked_answers = [label for label, _ in sorted(
            terminal_mass.items(), key=lambda kv: (-kv[1], kv[0]))]

        episode.answer = reply.answer
        episode.confidence = reply.confidence
        done = reply.confidence > config.conf_threshold
        last_round = t == config.rounds - 1

        edits: list[GraphEdit] = []
        if not done and not last_round:
            uncertainty = 1.0 - reply.confidence
            message = parse_diagnostic(reply.diagnostic)
            edits = map_diagnostic(message, graph, candidates=selected)
            remaining = config.edit_budget - episode.edits_applied
            edits = edits[:max(remaining, 0)]

            per_path = path_mask(
                uncertainty, candidates, edits,
                gain=config.mask_gain,
                uncertainty_gain=config.mask_uncertainty_gain)
            kept = set(discretize_topk(
                per_path, k=len(candidates),
                rng_seed=config.seed + 104729 * (t + 1),
                deterministic=config.deterministic))
            # the kept paths' edges take their mask values; the confirmed
            # and refuted triples then take their edits' multipliers
            subgraph.soft.update(soft_mask(
                uncertainty, [c for c in candidates if c.path.key() in kept],
                uncertainty_gain=config.mask_uncertainty_gain))
            apply_edits(subgraph, edits, round_index=t + 1)
            episode.edits_applied += len(edits)

        emit(
            t, num_candidates=len(candidates),
            selected=[
                {
                    "path": c.path.verbalize(graph),
                    "u": c.u,
                    "soft_weight": c.soft_weight,
                    "verifier": c.verifier,
                    "injection": c.injection,
                    "adjusted_injection": c.adjusted_injection,
                }
                for c in selected
            ],
            answer=reply.answer, confidence=reply.confidence,
            diagnostic=reply.diagnostic,
            edits=[_edit_repr(e, graph) for e in edits],
            alignment=align, attn_spearman=spearman)

        if done:
            break

    episode.retrieved_keys = [c.path.key() for c in answered]
    return episode
