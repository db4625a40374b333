"""Generative pipeline: per-table type generation and layered hierarchy construction.

Each table is serialized as a block (header plus up to five sampled rows,
cells truncated at fifty tokens, comma-separated values) and prompted for
its entity-type names, which are read back from the reply by
``parse_name_list``. The merged candidate list is then organized top-down:
starting from a synthetic root, every iteration asks the backend for child
relations of the current layer's types, keeps only candidates that survive
a template-based edge filter, and repeats until the candidate list is
exhausted. Leftover candidates are attached directly under the root so
every generated type appears exactly once. The ``llm`` edge scorer asks an
edge's templates in rounds and stops as soon as the votes still to come
cannot change whether the edge is kept.

Independent chat calls (the tables' generations, one layer's proposals, one
round of an iteration's edge votes) run side by side through
``remote.in_order``, which starts the next call as soon as any call
finishes, hands the results back in input order and starts nothing more
once a call has failed. Each call's transcript entries are buffered and
written in input order, so the transcript matches a run that made the calls
one after another.
"""

from __future__ import annotations

import functools
import logging
import random
import re
from contextlib import closing
from dataclasses import dataclass, field
from importlib import resources

from .corpus import Corpus, Table
from .digests import blake2b
from .errors import (
    BackendError,
    GenerationFailedError,
    LayerParseError,
    PipelineAbortedError,
)
from .llm import ChatRequest, TranscriptBuffer, TranscriptLogger, complete
from .options import DEFAULT_EDGE_THRESHOLD, DEFAULT_MAX_ITERS, DEFAULT_ROOT
from .remote import in_order
from .taxonomy import EntityType, Taxonomy

logger = logging.getLogger(__name__)

ROW_SAMPLE = 5
CELL_TOKEN_LIMIT = 50
NO_CHILDREN_MARKER = "NONE"

EDGE_TEMPLATES = (
    "{child} is a kind of {parent}.",
    "{child} is a type of {parent}.",
    "Every {child} is a {parent}.",
)


@functools.cache
def load_prompt(name: str) -> str:
    return resources.files("taxoforge").joinpath(f"prompts/{name}.txt").read_text("utf-8")


@dataclass
class TypeCandidateList:
    """Each candidate name, in first-seen order, to the ids of the tables that generated it."""

    origin: dict[str, set[str]]

    @property
    def names(self) -> list[str]:
        return list(self.origin)


@dataclass(frozen=True)
class EdgeScore:
    """A proposed edge and its score; the edge is kept when the score reaches the threshold.

    For ``LlmYesNoScorer`` the score is the bound that decided the edge, not
    the mean of every template's vote.
    """

    parent: str
    child: str
    score: float


@dataclass
class EdgeFilter:
    scorer: object
    threshold: float = DEFAULT_EDGE_THRESHOLD


class ConstantScorer:
    """Scores every edge 1.0, so every guarded edge passes; an ablation of the filter."""

    def scores(self, edges: list[tuple[str, str]], threshold: float) -> list[float]:
        return [1.0] * len(edges)


class EmbeddingCosineScorer:
    """Cosine plausibility of child/parent names, rescaled to [0, 1].

    No sentence is built; the signal comes entirely from the name
    embeddings, which keeps the offline path free of a second model. Each
    ``scores`` call embeds its names in one ``embed_texts`` call; the
    service dedupes and caches them.
    """

    def __init__(self, service):
        self.service = service

    def scores(self, edges: list[tuple[str, str]], threshold: float) -> list[float]:
        # imported here: gett with another scorer never loads numpy
        import numpy as np

        names = [name for edge in edges for name in edge]
        vectors = dict(zip(names, self.service.embed_texts(names).astype(np.float64)))
        out = []
        for parent, child in edges:
            a, b = vectors[child], vectors[parent]
            denom = float(np.linalg.norm(a) * np.linalg.norm(b))
            cos = float(a @ b) / denom if denom > 0 else 0.0
            out.append(min(1.0, max(0.0, (cos + 1.0) / 2.0)))
        return out


class LlmYesNoScorer:
    """Asks the backend whether each templated subsumption sentence holds.

    An edge with ``y`` yes votes after ``m`` of the ``n`` templates is kept
    once ``y / n`` reaches the threshold and dropped once ``(y + n - m) / n``
    falls below it, and scores that bound; so it is kept exactly when the
    mean vote over all of ``EDGE_TEMPLATES`` would reach the threshold. The
    votes are asked in rounds: each round asks every undecided edge its next
    templates, as few as could decide it, and all votes of a round are sent
    together. At a threshold of at most 0 or above 1 no vote is asked.
    """

    def __init__(self, backend, transcript: TranscriptLogger | None = None):
        self.backend = backend
        self.transcript = transcript

    def scores(self, edges: list[tuple[str, str]], threshold: float) -> list[float]:
        n = len(EDGE_TEMPLATES)
        yes = [0] * len(edges)
        asked = [0] * len(edges)
        while todo := [
            (i, m)
            for i in range(len(edges))
            for m in range(asked[i], asked[i] + _votes_to_decide(yes[i], asked[i], n, threshold))
        ]:
            sentences = (EDGE_TEMPLATES[m].format(parent=edges[i][0], child=edges[i][1]) for i, m in todo)
            for vote, (i, _) in zip(_logged_in_order(self._vote, sentences, self.transcript), todo):
                yes[i] += vote
                asked[i] += 1
        return [y / n if y / n >= threshold else (y + n - m) / n for y, m in zip(yes, asked)]

    def _vote(self, sentence: str, log: TranscriptBuffer) -> bool:
        prompt = load_prompt("edge_yesno").format(sentence=sentence)
        resp = complete(ChatRequest(user=prompt), self.backend, log)
        return resp.text.strip().casefold().startswith("yes")


def _votes_to_decide(yes: int, asked: int, n: int, threshold: float) -> int:
    """The fewest further votes that could decide an edge with ``yes`` of ``asked`` votes.

    0 once the edge is kept (``yes / n >= threshold``) or dropped (``(yes +
    n - asked) / n < threshold``); otherwise the smallest ``k`` for which
    ``k`` yes votes would keep it or ``k`` no votes would drop it.
    """
    for k in range(n - asked + 1):
        if (yes + k) / n >= threshold or (yes + n - asked - k) / n < threshold:
            return k
    return n - asked  # a NaN threshold decides nothing: ask every template


def filter_edges(edges: list[tuple[str, str]], scorer, threshold: float) -> list[EdgeScore]:
    """Pair each proposed edge with its score from ``scorer.scores(edges, threshold)``."""
    return [
        EdgeScore(parent=p, child=c, score=s)
        for (p, c), s in zip(edges, scorer.scores(edges, threshold))
    ]


def _logged_in_order(fn, items, transcript: TranscriptLogger | None):
    """``in_order`` over ``fn(item, log)``, where ``log`` is the call's own transcript buffer.

    Each buffer goes to ``transcript`` when its result is taken, so the
    entries and their ``seq`` numbers match calls made one after another.
    """

    def task(item):
        buffer = TranscriptBuffer()
        return buffer.pairs, fn(item, buffer)

    with closing(in_order(task, items)) as results:
        for pairs, result in results:
            if transcript is not None:
                for req, resp in pairs:
                    transcript.log(req, resp)
            yield result


def sample_rows(table: Table, seed: int) -> list[list[str]]:
    """``min(ROW_SAMPLE, n_rows)`` distinct rows, drawn uniformly without replacement.

    An explicit partial Fisher-Yates shuffle driven only by
    ``random.Random.random()`` keeps the sample reproducible across Python
    versions (only ``random()`` itself carries that guarantee).
    """
    total = table.n_rows
    take = min(ROW_SAMPLE, total)
    rng = random.Random(seed)
    indices = list(range(total))
    for i in range(take):
        j = i + int(rng.random() * (total - i))
        indices[i], indices[j] = indices[j], indices[i]
    return [table.row(i) for i in indices[:take]]


def truncate_cell(cell: str) -> str:
    """Cap a cell at ``CELL_TOKEN_LIMIT`` whitespace tokens, appending "..." when cut.

    Cells within the limit are returned unchanged (original spacing kept);
    truncated cells are rejoined with single spaces.
    """
    tokens = cell.split()
    if len(tokens) <= CELL_TOKEN_LIMIT:
        return cell
    return " ".join(tokens[:CELL_TOKEN_LIMIT]) + "..."


def serialize_table_block(table: Table, seed: int) -> str:
    """Header line plus up to five sampled rows, comma-separated, cells capped."""
    lines = [", ".join(table.headers)]
    for row in sample_rows(table, seed):
        lines.append(", ".join(truncate_cell(cell) for cell in row))
    return "\n".join(lines)


def build_generation_prompt(table: Table, seed: int) -> str:
    return load_prompt("generation").format(table=serialize_table_block(table, seed))


def generate_types(
    table: Table,
    backend,
    seed: int,
    transcript: TranscriptLogger | None = None,
) -> list[str]:
    """One generation round plus one repair round; then the table fails."""
    prompt = build_generation_prompt(table, seed)
    names = parse_name_list(complete(ChatRequest(user=prompt), backend, transcript).text)
    if names:
        return names
    logger.info("repair prompt for table %s", table.id)
    repair = load_prompt("generation_repair").format(table=serialize_table_block(table, seed))
    names = parse_name_list(complete(ChatRequest(user=repair), backend, transcript).text)
    if not names:
        raise GenerationFailedError(table.id)
    return names


def normalize_name(name: str) -> str:
    return " ".join(name.split())


def _fold(name: str) -> str:
    """The key two names share when they differ only in case and whitespace runs."""
    return normalize_name(name).casefold()


# a leading list marker: a run of dashes, stars or bullets, or a number and
# "." or ")" that no digit follows, so "2.5 inch Drive" keeps its number
_BULLET_RE = re.compile(r"^\s*(?:[-*•]+\s*|\d+[.)](?!\d)\s*)?")


def _clean(piece: str) -> str:
    """A reply piece without its list marker, surrounding whitespace and quotes."""
    return _BULLET_RE.sub("", piece, count=1).strip().strip("\"'").strip()


def parse_name_list(text: str) -> list[str]:
    """Type names of a generation reply: split on newlines and commas, each piece cleaned.

    Order is preserved; a name that is the same as an earlier one (``_fold``)
    is dropped, so the first spelling is kept; ``[]`` when nothing survives.
    """
    names: dict[str, str] = {}
    for piece in re.split(r"[\n,]", text):
        name = _clean(piece)
        if name:
            names.setdefault(_fold(name), name)
    return list(names.values())


def flatten(per_table: dict[str, list[str]]) -> TypeCandidateList:
    """Merge per-table names case-insensitively, keeping first casing and origins."""
    if not per_table:
        raise ValueError("no generated types to flatten")
    canonical: dict[str, str] = {}
    origin: dict[str, set[str]] = {}
    for table_id in sorted(per_table):
        for raw in per_table[table_id]:
            name = normalize_name(raw)
            if not name:
                continue
            key = _fold(name)
            if key not in canonical:
                canonical[key] = name
                origin[name] = set()
            origin[canonical[key]].add(table_id)
    return TypeCandidateList(origin=origin)


def render_outline(tax: Taxonomy) -> str:
    """Indented outline of the taxonomy; DAG nodes repeat under each parent."""
    lines: list[str] = []

    def walk(type_id: str, depth: int) -> None:
        lines.append("  " * depth + tax.types[type_id].name)
        for child in sorted(tax.children(type_id)):
            walk(child, depth + 1)

    for root in tax.roots:
        walk(root, 0)
    return "\n".join(lines)


def parse_edge_lines(text: str) -> tuple[list[tuple[str, str]], bool]:
    """Extract ``parent -> child`` pairs; second value is parseability.

    A response is parseable when it contains at least one relation line or
    is an explicit no-children marker; anything else counts as a parse
    failure for the retry/error logic.
    """
    edges = []
    for line in text.splitlines():
        if "->" not in line:
            continue
        parent, _, child = line.partition("->")
        parent = _clean(parent)
        child = child.strip().strip("\"'").strip()
        if parent and child:
            edges.append((parent, child))
    if edges:
        return edges, True
    stripped = text.strip().strip(".").casefold()
    return [], stripped == NO_CHILDREN_MARKER.casefold()


def chain_of_layer(
    candidates: TypeCandidateList,
    root_name: str,
    backend,
    edge_filter: EdgeFilter,
    max_iters: int = DEFAULT_MAX_ITERS,
    transcript: TranscriptLogger | None = None,
) -> Taxonomy:
    """Iteratively layer the candidate list beneath a synthetic root.

    The demonstration is requested from the backend once per run (its
    zero-shot mode) and reused across iterations. A proposed edge passes
    the membership guard when its parent, ignoring case and whitespace
    runs, is a placed type and its child an unplaced candidate; each
    guarded pair is scored once, in proposal order. Children may land under
    several parents in one iteration (the taxonomy is a DAG); candidates
    never placed by the loop are attached directly under the root.
    """
    if not candidates.origin:
        raise ValueError("candidate list is empty")
    # folded name -> name: the root and every type placed so far, and the rest
    placed = {_fold(root_name): root_name}
    unplaced: dict[str, str] = {}
    for name in candidates.origin:
        key = _fold(name)
        if key in placed:
            raise ValueError(f"root name {root_name!r} collides with a candidate type")
        if key in unplaced:
            raise ValueError(
                f"candidate types {unplaced[key]!r} and {name!r} differ only in case or spacing"
            )
        unplaced[key] = name
    tax = Taxonomy()
    tax.add_type(EntityType(id=root_name, name=root_name, synthetic=True))

    def place(name: str) -> None:
        tax.add_type(EntityType(id=name, name=name, tables=set(candidates.origin[name])))
        placed[_fold(name)] = unplaced.pop(_fold(name))

    demonstration = complete(
        ChatRequest(user=load_prompt("layer_demonstration")), backend, transcript
    ).text
    layer = [root_name]
    for iteration in range(max_iters):
        if not unplaced:
            break
        outline = render_outline(tax)
        names = ", ".join(unplaced.values())

        def propose(parent: str, log: TranscriptBuffer) -> tuple[list[tuple[str, str]], bool]:
            prompt = load_prompt("layer_step").format(
                demonstration=demonstration, outline=outline, candidates=names, parent=parent
            )
            return parse_edge_lines(complete(ChatRequest(user=prompt), backend, log).text)

        for retry in (False, True):
            replies = list(_logged_in_order(propose, layer, transcript))
            if any(parseable for _, parseable in replies):
                break
            if retry:
                raise LayerParseError(iteration)
            logger.warning("iteration %d yielded no parseable edges; retrying", iteration)
        guarded: dict[tuple[str, str], None] = {}
        for edges, _ in replies:
            for parent, child in edges:
                parent_name, child_name = placed.get(_fold(parent)), unplaced.get(_fold(child))
                if parent_name is None or child_name is None:
                    logger.info("discarding edge %r -> %r (membership guard)", parent, child)
                else:
                    guarded[parent_name, child_name] = None
        children: dict[str, None] = {}
        for edge in filter_edges(list(guarded), edge_filter.scorer, edge_filter.threshold):
            if edge.score < edge_filter.threshold:
                continue
            if edge.child in children:
                logger.info("type %r placed under multiple parents", edge.child)
            else:
                place(edge.child)
                children[edge.child] = None
            tax.add_edge(edge.parent, edge.child)
        if not children:
            break
        layer = list(children)
    for name in list(unplaced.values()):
        logger.warning("attaching leftover type %r under the root", name)
        place(name)
        tax.add_edge(root_name, name)
    return tax


def derive_table_seed(seed: int, table_id: str) -> int:
    digest = blake2b(f"{seed}:{table_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class GettResult:
    taxonomy: Taxonomy
    failures: list[str] = field(default_factory=list)


def run_gett(
    corpus: Corpus,
    backend,
    edge_filter: EdgeFilter,
    root_name: str = DEFAULT_ROOT,
    seed: int = 0,
    max_iters: int = DEFAULT_MAX_ITERS,
    transcript: TranscriptLogger | None = None,
) -> GettResult:
    """Generate types per table, flatten, and build the layered taxonomy.

    A table fails when its generation fails after the repair prompt or its
    backend raises. Failures are counted in table order and tolerated while
    at least half of the tables can still succeed; once they cannot, the run
    aborts at that table. Tables start in order, the next one as soon as any
    call returns, and none starts once more than half of all tables are
    among the returned calls that failed, since the run is then sure to
    abort. Outcomes, warnings and transcript entries are taken in table
    order, so the error, its cause, the warnings and the transcript are
    those of a run that made the calls one after another.
    """
    limit = len(corpus.tables) // 2
    returned_failed = []  # appended by the calls' threads; list.append is atomic

    def attempt(table: Table, log: TranscriptBuffer) -> list[str] | Exception:
        try:
            return generate_types(table, backend, derive_table_seed(seed, table.id), log)
        except (GenerationFailedError, BackendError) as exc:
            returned_failed.append(table.id)
            return exc

    def started():
        for table in corpus.tables:
            if len(returned_failed) > limit:
                return
            yield table

    per_table: dict[str, list[str]] = {}
    failures: list[str] = []
    with closing(_logged_in_order(attempt, started(), transcript)) as outcomes:
        for table, outcome in zip(corpus.tables, outcomes):
            if not isinstance(outcome, Exception):
                per_table[table.id] = outcome
                continue
            logger.warning("table %s failed: %s", table.id, outcome)
            failures.append(table.id)
            if len(failures) > limit:
                raise PipelineAbortedError(
                    f"{len(failures)}/{len(corpus.tables)} tables failed type generation"
                ) from outcome
    tax = chain_of_layer(flatten(per_table), root_name, backend, edge_filter, max_iters, transcript)
    return GettResult(taxonomy=tax, failures=failures)
