"""Rooted DAG of entity types with table associations.

Types carry the tables directly assigned to them; ``associated_tables``
aggregates over descendants, so a parent always covers at least its
children's evidence. Synthetic nodes (e.g. a generative pipeline's
artificial root) are excluded from the type count and depth statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CycleError, UnknownTypeError, open_input


@dataclass
class EntityType:
    id: str
    name: str
    tables: set[str] = field(default_factory=set)
    synthetic: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("entity type name must be non-empty")


class Taxonomy:
    def __init__(self):
        self.types: dict[str, EntityType] = {}
        self._parents: dict[str, set[str]] = {}
        self._children: dict[str, set[str]] = {}

    # --- construction -----------------------------------------------------

    def add_type(self, et: EntityType) -> None:
        if et.id in self.types:
            raise ValueError(f"duplicate type id {et.id!r}")
        self.types[et.id] = et
        self._parents[et.id] = set()
        self._children[et.id] = set()

    def _require(self, type_id: str) -> None:
        if type_id not in self.types:
            raise UnknownTypeError(f"unknown type {type_id!r}")

    def add_edge(self, parent: str, child: str) -> None:
        """Add parent -> child; duplicate edges are no-ops, cycles rejected."""
        self._require(parent)
        self._require(child)
        if child in self._children[parent]:
            return
        if parent == child or parent in self.descendants(child):
            raise CycleError(parent, child)
        self._children[parent].add(child)
        self._parents[child].add(parent)

    # --- queries ------------------------------------------------------------

    @property
    def edges(self) -> list[tuple[str, str]]:
        return sorted((p, c) for p, kids in self._children.items() for c in kids)

    @property
    def roots(self) -> list[str]:
        return sorted(t for t in self.types if not self._parents[t])

    def parents(self, type_id: str) -> set[str]:
        self._require(type_id)
        return set(self._parents[type_id])

    def children(self, type_id: str) -> set[str]:
        self._require(type_id)
        return set(self._children[type_id])

    def _reachable(self, type_id: str, links: dict[str, set[str]]) -> set[str]:
        """Every id reached from ``type_id`` by following ``links``, excluding itself."""
        self._require(type_id)
        seen: set[str] = set()
        stack = list(links[type_id])
        while stack:
            cur = stack.pop()
            if cur not in seen:
                seen.add(cur)
                stack.extend(links[cur])
        return seen

    def ancestors(self, type_id: str) -> set[str]:
        """All ids with a directed path to ``type_id``, excluding itself."""
        return self._reachable(type_id, self._parents)

    def descendants(self, type_id: str) -> set[str]:
        """All ids with a directed path from ``type_id``, excluding itself."""
        return self._reachable(type_id, self._children)

    def associated_tables(self, type_id: str) -> set[str]:
        """Union of directly assigned tables over the type and its descendants."""
        self._require(type_id)
        out = set(self.types[type_id].tables)
        for d in self.descendants(type_id):
            out |= self.types[d].tables
        return out

    def top_level_ids(self) -> list[str]:
        """Non-synthetic types whose proper ancestors are all synthetic: those at level 1."""
        return sorted(
            tid for tid, lvl in self.levels().items() if lvl == 1 and not self.types[tid].synthetic
        )

    def top_level_tables(self) -> dict[str, set[str]]:
        """Each top-level type's associated tables, in id order."""
        return {top: self.associated_tables(top) for top in self.top_level_ids()}

    def top_level_assignment(self) -> dict[str, str]:
        """Each table's top-level type.

        In a DAG a table can sit under several top-level types; the smallest
        id wins, so reruns are stable.
        """
        assignment: dict[str, str] = {}
        for top, tables in self.top_level_tables().items():
            for table in tables:
                assignment.setdefault(table, top)
        return assignment

    def levels(self) -> dict[str, int]:
        """Longest root-to-node path length counted in non-synthetic nodes."""
        order = self.topological_order()
        level: dict[str, int] = {}
        for tid in order:
            own = 0 if self.types[tid].synthetic else 1
            parent_levels = [level[p] for p in self._parents[tid]]
            level[tid] = (max(parent_levels) if parent_levels else 0) + own
        return level

    def stats(self) -> tuple[int, int]:
        """(type count, depth), both excluding synthetic nodes."""
        count = sum(1 for et in self.types.values() if not et.synthetic)
        depth = max(self.levels().values(), default=0)
        return count, depth

    def topological_order(self) -> list[str]:
        indeg = {t: len(ps) for t, ps in self._parents.items()}
        queue = sorted(t for t, d in indeg.items() if d == 0)
        order: list[str] = []
        while queue:
            cur = queue.pop(0)
            order.append(cur)
            for child in sorted(self._children[cur]):
                indeg[child] -= 1
                if indeg[child] == 0:
                    queue.append(child)
        return order

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "types": [
                {
                    "id": et.id,
                    "name": et.name,
                    "tables": sorted(et.tables),
                    "synthetic": et.synthetic,
                }
                for et in sorted(self.types.values(), key=lambda e: e.id)
            ],
            "edges": self.edges,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_dict(cls, data: dict) -> "Taxonomy":
        """Inverse of ``to_dict``; a malformed shape raises ``ValueError`` naming the entry and key."""
        if not isinstance(data, dict):
            raise ValueError("taxonomy must be a JSON object")
        types, edges = data.get("types", []), data.get("edges", [])
        if not isinstance(types, list) or not isinstance(edges, list):
            raise ValueError("taxonomy 'types' and 'edges' must be lists")
        tax = cls()
        for i, entry in enumerate(types):
            if not isinstance(entry, dict):
                raise ValueError(f"types[{i}] must be an object")
            for key in ("id", "name"):
                if not isinstance(entry.get(key), str):
                    raise ValueError(f"types[{i}] has no string {key!r}")
            tables = entry.get("tables", [])
            if not isinstance(tables, list) or not all(isinstance(t, str) for t in tables):
                raise ValueError(f"types[{i}] 'tables' must be a list of strings")
            synthetic = entry.get("synthetic", False)
            if not isinstance(synthetic, bool):
                raise ValueError(f"types[{i}] 'synthetic' must be a boolean")
            try:
                tax.add_type(
                    EntityType(entry["id"], entry["name"], tables=set(tables), synthetic=synthetic)
                )
            except ValueError as exc:
                raise ValueError(f"types[{i}]: {exc}") from exc
        for i, edge in enumerate(edges):
            pair = isinstance(edge, (list, tuple)) and len(edge) == 2
            if not (pair and all(isinstance(e, str) for e in edge)):
                raise ValueError(f"edges[{i}] must be a [parent, child] pair of type ids")
            try:
                tax.add_edge(*edge)
            except (UnknownTypeError, CycleError) as exc:
                raise ValueError(f"edges[{i}]: {exc}") from exc
        return tax

    @classmethod
    def load(cls, path: str | Path) -> "Taxonomy":
        with open_input(path) as text:
            return cls.from_dict(json.loads(text))
