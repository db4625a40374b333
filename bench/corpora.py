"""Seeded synthetic corpora for the benchmark workloads.

Every corpus is a directory of ``<id>.csv`` tables plus a ground-truth
directory holding ``gt_taxonomy.json`` and ``gt_annotations.csv``, in the
formats ``taxoforge run --gt-path`` reads. Names and values come from a
``random.Random`` seeded with the workload name and the seed, so the same
seed writes the same bytes. Names are minted pseudo-words, so no real
vocabulary leaks into the program. For the emtt shapes, which table
belongs to which subgroup and which attribute columns it carries come from
a second generator seeded with the workload name alone: that layout fixes
the clustering work, so it stays the same from seed to seed.

Shapes:

- ``emtt-many``: many short tables. Domains x subgroups; each subgroup owns
  a set of attribute columns and every table takes a random subset of them.
  Clustering work grows with the number of tables and columns.
- ``emtt-long``: few tables with many rows of multi-token cells. Ingest,
  subject detection and embedding work grow with the number of cells.
- ``gett-chat``: tables over a fixed three-level type hierarchy, plus the
  ``ChatScript`` the local chat stub answers from.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT_NAME = "Thing"

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class EmttShape:
    domains: int
    subgroups: int
    attrs_per_subgroup: int
    tables: int
    rows: int
    subject_tokens: int
    subject_vocab: int
    attr_tokens: int
    attr_values: int
    attr_extras: int
    attrs_per_table: tuple[int, int]


@dataclass(frozen=True)
class GettShape:
    tops: int
    mids_per_top: int
    leaves_per_mid: int
    tables_per_level: tuple[int, int, int]
    rows: int


SHAPES: dict[str, EmttShape | GettShape] = {
    "emtt-many": EmttShape(
        domains=4, subgroups=4, attrs_per_subgroup=8, tables=640, rows=6,
        subject_tokens=3, subject_vocab=8, attr_tokens=1, attr_values=2,
        attr_extras=6, attrs_per_table=(3, 6),
    ),
    "emtt-long": EmttShape(
        domains=4, subgroups=2, attrs_per_subgroup=6, tables=80, rows=1200,
        subject_tokens=6, subject_vocab=40, attr_tokens=6, attr_values=30,
        attr_extras=0, attrs_per_table=(4, 4),
    ),
    "gett-chat": GettShape(tops=4, mids_per_top=3, leaves_per_mid=2, tables_per_level=(3, 2, 1), rows=100),
}


@dataclass
class ChatScript:
    """What the chat stub answers, derived from one generated gett corpus.

    ``answers`` maps a table's header line (the first line of its prompt
    block) to its type name. Tables in ``garbled`` first get an answer that
    parses to nothing, so the pipeline sends its repair prompt. Parents in
    ``bogus`` also propose a child that is not a candidate, which the
    membership guard must drop. Edges in ``rejected`` get "no" from every
    template, so their children end up under the root.
    """

    answers: dict[str, str]
    garbled: set[str]
    children: dict[str, list[str]]
    bogus: dict[str, str]
    rejected: set[tuple[str, str]]


@dataclass
class Generated:
    tables_dir: Path
    gt_dir: Path
    table_ids: list[str]
    script: ChatScript | None = None
    files: list[Path] = field(default_factory=list)


class _Mint:
    """Unique pseudo-words drawn from the corpus RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = {ROOT_NAME.lower()}

    def word(self) -> str:
        while True:
            syllables = self.rng.randint(2, 3)
            w = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(syllables)
            )
            if w not in self.used:
                self.used.add(w)
                return w

    def title(self) -> str:
        return self.word().capitalize()


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write_gt(gt_dir: Path, types: dict[str, list[str]], edges: list[list[str]],
              annotations: list[tuple[str, str, str]]) -> None:
    gt_dir.mkdir(parents=True, exist_ok=True)
    gt_taxonomy = {
        "types": [
            {"id": name, "name": name, "tables": sorted(tables), "synthetic": False}
            for name, tables in sorted(types.items())
        ],
        "edges": sorted(edges),
    }
    (gt_dir / "gt_taxonomy.json").write_text(
        json.dumps(gt_taxonomy, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _write_csv(gt_dir / "gt_annotations.csv", [["table_id", "top_level", "path"], *sorted(annotations)])


def _emtt(rng: random.Random, layout: random.Random, shape: EmttShape, tables_dir: Path,
          gt_dir: Path) -> list[str]:
    mint = _Mint(rng)
    cells = []  # one entry per (domain, subgroup)
    # Ground-truth names follow the layout, not the seed: the metrics break
    # ties between equally frequent annotations by name, so seeded names
    # would make the quality metrics move with the seed.
    for d in range(shape.domains):
        domain = f"D{d}"
        subject_header = f"{mint.word()}_name"
        vocab = [mint.word() for _ in range(shape.subject_vocab)]
        for g in range(shape.subgroups):
            subgroup = f"{domain}S{g}"
            attrs = []
            for a in range(shape.attrs_per_subgroup):
                header = f"{mint.word()}_{mint.word()}"
                size = shape.attr_values + shape.attr_extras
                if a % 4 == 3:
                    # numeric attributes draw from disjoint ranges, so no two share a token
                    base = 1000 * len(cells) * shape.attrs_per_subgroup + 1000 * a + rng.randrange(100, 900)
                    values = [str(base + n) for n in rng.sample(range(50), size)]
                else:
                    tokens = [mint.word() for _ in range(8)]
                    phrases: set[str] = set()
                    while len(phrases) < size:
                        phrases.add(" ".join(rng.choices(tokens, k=shape.attr_tokens)))
                    values = sorted(phrases)
                    rng.shuffle(values)
                attrs.append((header, values[: shape.attr_values], values))
            cells.append((domain, subject_header, vocab, subgroup, attrs))
    # every (domain, subgroup) gets the same number of tables and of columns,
    # so the clustering work per run does not depend on the seed
    lo, hi = shape.attrs_per_table
    assignment = [
        (cells[i % len(cells)], lo + (i // len(cells)) % (hi - lo + 1)) for i in range(shape.tables)
    ]
    layout.shuffle(assignment)

    table_ids = []
    gt_types: dict[str, list[str]] = {}
    gt_edges: list[list[str]] = []
    annotations = []
    for domain, _, _, subgroup, _ in cells:
        gt_types.setdefault(domain, [])
        gt_types.setdefault(subgroup, [])
        gt_edges.append([domain, subgroup])
    for i, ((domain, subject_header, vocab, subgroup, attrs), n_attrs) in enumerate(assignment):
        table_id = f"t{i:04d}"
        table_ids.append(table_id)
        subjects: list[str] = []
        seen: set[str] = set()
        while len(subjects) < shape.rows:
            value = " ".join(rng.choices(vocab, k=shape.subject_tokens))
            if value not in seen:
                seen.add(value)
                subjects.append(value)
        chosen = [attrs[a] for a in layout.sample(range(len(attrs)), n_attrs)]
        # every column of an attribute holds all of its core values, so the
        # columns of one attribute embed close together whatever the seed
        # draws; the other rows come from core and extra values, so the
        # columns do not embed identically
        columns = [subjects]
        for _, core, values in chosen:
            column = core + rng.choices(values, k=shape.rows - len(core))
            rng.shuffle(column)
            columns.append(column)
        headers = [subject_header] + [header for header, _, _ in chosen]
        _write_csv(tables_dir / f"{table_id}.csv", [headers, *map(list, zip(*columns))])
        # two in five tables are annotated at the domain only, which makes the
        # domain the majority annotation of a whole domain cluster
        annotated = domain if i % 5 < 2 else subgroup
        gt_types[annotated].append(table_id)
        annotations.append((table_id, domain, domain if annotated == domain else f"{domain}>{subgroup}"))
    _write_gt(gt_dir, gt_types, gt_edges, annotations)
    return table_ids


def _gett(rng: random.Random, shape: GettShape, tables_dir: Path, gt_dir: Path) -> tuple[list[str], ChatScript]:
    mint = _Mint(rng)
    children: dict[str, list[str]] = {ROOT_NAME: []}
    paths: dict[str, str] = {}
    leaves: list[tuple[str, str]] = []
    mids: list[str] = []
    for _ in range(shape.tops):
        top = mint.title()
        children[ROOT_NAME].append(top)
        children[top] = []
        paths[top] = top
        for _ in range(shape.mids_per_top):
            mid = mint.title()
            children[top].append(mid)
            children[mid] = []
            paths[mid] = f"{top}>{mid}"
            mids.append(mid)
            for _ in range(shape.leaves_per_mid):
                leaf = mint.title()
                children[mid].append(leaf)
                paths[leaf] = f"{top}>{mid}>{leaf}"
                leaves.append((mid, leaf))

    # a type owns more tables than any one of its descendants, so the most
    # frequent annotation under each type is the type itself
    table_types = [
        t for t, path in paths.items() for _ in range(shape.tables_per_level[path.count(">")])
    ]
    rng.shuffle(table_types)
    answers: dict[str, str] = {}
    garbled: set[str] = set()
    gt_types: dict[str, list[str]] = {t: [] for t in paths}
    annotations = []
    table_ids = []
    for i, type_name in enumerate(table_types):
        table_id = f"t{i:03d}"
        table_ids.append(table_id)
        headers = [f"{type_name.lower()}_name", mint.word(), mint.word(), f"{table_id}_code"]
        vocab = [mint.word() for _ in range(6)]
        rows = [
            [f"{type_name} {mint.word()}", rng.choice(vocab), str(rng.randrange(1, 999)), f"{table_id}-{r}"]
            for r in range(shape.rows)
        ]
        _write_csv(tables_dir / f"{table_id}.csv", [headers, *rows])
        header_line = ", ".join(headers)
        answers[header_line] = type_name
        if i % 10 == 0:
            garbled.add(header_line)
        gt_types[type_name].append(table_id)
        annotations.append((table_id, paths[type_name].split(">")[0], paths[type_name]))

    bogus = {mid: mint.title() for mid in mids[::4]}
    bogus[ROOT_NAME] = mint.title()
    rejected = {leaves[5], leaves[len(leaves) - 7]}
    edges = [[parent, child] for parent, kids in children.items() if parent != ROOT_NAME for child in kids]
    _write_gt(gt_dir, gt_types, edges, annotations)
    return table_ids, ChatScript(answers, garbled, children, bogus, rejected)


def generate(workload: str, seed: int, out_dir: Path) -> Generated:
    """Write the corpus of ``workload`` for ``seed`` under ``out_dir``."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    tables_dir, gt_dir = out_dir / "tables", out_dir / "gt"
    tables_dir.mkdir(parents=True, exist_ok=True)
    script = None
    if isinstance(shape, GettShape):
        table_ids, script = _gett(rng, shape, tables_dir, gt_dir)
    else:
        table_ids = _emtt(rng, random.Random(f"{workload}:layout"), shape, tables_dir, gt_dir)
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return Generated(tables_dir, gt_dir, table_ids, script, files)
