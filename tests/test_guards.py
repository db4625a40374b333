"""Each argument guard of the library, reached directly: its error type and message."""

from __future__ import annotations

import numpy as np
import pytest

from taxoforge.clustering import DistanceMatrix, Dendrogram, agglomerate, cut, euclidean_matrix
from taxoforge.corpus import Corpus, Table
from taxoforge.embedding import EmbeddingService, LocalHashProvider
from taxoforge.emtt import run_emtt
from taxoforge.errors import BackendError, DimensionMismatchError
from taxoforge.gett import ConstantScorer, EdgeFilter, TypeCandidateList, chain_of_layer, flatten
from taxoforge.llm import ScriptedChatBackend
from taxoforge.remote import post_json


def _corpus() -> Corpus:
    return Corpus([Table.from_rows("t", ["a"], [["x"]])])


GUARDS = {
    "clustering.DistanceMatrix-not-square": (
        lambda: DistanceMatrix(np.zeros((2, 3))), ValueError, "must be square"
    ),
    "clustering.euclidean_matrix-1d": (
        lambda: euclidean_matrix([1.0, 2.0]), DimensionMismatchError, "share one dimension"
    ),
    "clustering.agglomerate-ward": (
        lambda: agglomerate(DistanceMatrix(np.zeros((2, 2))), "ward"), ValueError, "unknown linkage 'ward'"
    ),
    "clustering.agglomerate-no-items": (
        lambda: agglomerate(DistanceMatrix(np.zeros((0, 0)))), ValueError, "at least 1 item"
    ),
    "clustering.cut-negative-height": (
        lambda: cut(Dendrogram(()), -1.0), ValueError, "cut height must be >= 0"
    ),
    "corpus.Corpus-duplicate-ids": (
        lambda: Corpus([Table.from_rows("t", ["a"], []), Table.from_rows("t", ["b"], [])]),
        ValueError,
        "duplicate table ids",
    ),
    "embedding.LocalHashProvider-dim-1": (
        lambda: LocalHashProvider(dim=1), ValueError, "dim must be >= 2"
    ),
    "emtt.run_emtt-delta-2.5": (
        lambda: run_emtt(_corpus(), EmbeddingService(LocalHashProvider(dim=64)), delta=2.5),
        ValueError,
        "delta must be in [0, 2]",
    ),
    "gett.flatten-empty": (lambda: flatten({}), ValueError, "no generated types"),
    "gett.chain_of_layer-no-candidates": (
        lambda: chain_of_layer(
            TypeCandidateList({}), "root", ScriptedChatBackend([]), EdgeFilter(ConstantScorer(), 0.5)
        ),
        ValueError,
        "candidate list is empty",
    ),
    # a valid URL, so the guard after the attempt loop is what refuses; nothing is sent
    "remote.post_json-no-attempts": (
        lambda: post_json("http://127.0.0.1:9/x", {}, timeout=1.0, retries=0),
        BackendError,
        "retries must be at least 1",
    ),
}


@pytest.mark.parametrize("call, error, fragment", list(GUARDS.values()), ids=list(GUARDS))
def test_guard_raises(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
