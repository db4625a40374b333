from __future__ import annotations

import concurrent.futures
import time

import pytest
import requests

import corpora
from chatstub import GARBLED_ANSWER, ChatStub, classify
from taxoforge import gett
from taxoforge.corpus import ingest
from taxoforge.llm import ChatRequest, RemoteChatBackend, TranscriptLogger


@pytest.fixture()
def generated(tmp_path):
    return corpora.generate("gett-chat", 1, tmp_path / "corpus")


@pytest.fixture()
def stub(generated):
    server = ChatStub(generated.script, delay_s=0.0)
    yield server
    server.close()


def ask(stub: ChatStub, prompt: str) -> str:
    return RemoteChatBackend(stub.url, max_retries=1).complete(ChatRequest(user=prompt)).text


def test_generation_repair_and_edges(generated, stub):
    corpus = ingest(generated.tables_dir)
    script = generated.script
    garbled = next(t for t in corpus.tables if ", ".join(t.headers) in script.garbled)
    plain = next(t for t in corpus.tables if ", ".join(t.headers) not in script.garbled)
    assert ask(stub, gett.build_generation_prompt(garbled, 0)) == GARBLED_ANSWER
    repair = gett.load_prompt("generation_repair").format(table=gett.serialize_table_block(garbled, 0))
    assert ask(stub, repair) == script.answers[", ".join(garbled.headers)]
    assert ask(stub, gett.build_generation_prompt(plain, 0)) == script.answers[", ".join(plain.headers)]

    edge = gett.load_prompt("edge_yesno")
    parent, child = next(iter(script.rejected))
    kept_parent = corpora.ROOT_NAME
    kept_child = script.children[kept_parent][0]
    for template in gett.EDGE_TEMPLATES:
        assert ask(stub, edge.format(sentence=template.format(parent=parent, child=child))) == "no"
        sentence = template.format(parent=kept_parent, child=kept_child)
        assert ask(stub, edge.format(sentence=sentence)) == "yes"
    assert stub.by_kind["generation"] == 2 and stub.by_kind["repair"] == 1
    assert stub.by_kind["edge"] == 2 * len(gett.EDGE_TEMPLATES)
    assert stub.by_kind["unknown"] == 0


def test_unknown_prompt_still_answers(stub):
    assert ask(stub, "what is the time?") == "NONE"
    assert classify("what is the time?") == "unknown"
    assert stub.by_kind["unknown"] == 1 and stub.requests == 1


def test_requests_are_not_serialized(generated):
    stub = ChatStub(generated.script, delay_s=0.3)
    try:
        body = {"messages": [{"role": "user", "content": "hello"}]}
        started = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(requests.post, stub.url + "/v1/chat/completions", json=body, timeout=10)
                       for _ in range(4)]
            statuses = [f.result().status_code for f in futures]
        elapsed = time.perf_counter() - started
    finally:
        stub.close()
    assert statuses == [200] * 4
    assert stub.requests == 4
    assert stub.inflight_max >= 2
    assert elapsed < 4 * 0.3


def test_pipeline_against_stub(generated, stub, tmp_path):
    corpus = ingest(generated.tables_dir)
    backend = RemoteChatBackend(stub.url, max_retries=1)
    transcript = TranscriptLogger(tmp_path / "transcript.jsonl")
    edge_filter = gett.EdgeFilter(scorer=gett.LlmYesNoScorer(backend, transcript))
    result = gett.run_gett(corpus, backend, edge_filter, root_name=corpora.ROOT_NAME, transcript=transcript)
    script = generated.script
    tax = result.taxonomy

    assert not result.failures
    assert stub.by_kind["repair"] == len(script.garbled)
    assert stub.by_kind["unknown"] == 0
    assert stub.requests == transcript.entries
    assert len(tax.types) == 41
    for parent, child in script.rejected:
        assert tax.parents(child) == {corpora.ROOT_NAME}
    for bogus in script.bogus.values():
        assert bogus not in tax.types
