"""Tests for the §5 knowledge-ingestion endpoint and the retrieval flag
on /api/answer, using a stub system (no training in unit tests)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import HPCGPTClient
from repro.serve.server import start_background

from support.stub_system import StubSystem


@pytest.fixture(scope="module")
def stub():
    return StubSystem()


@pytest.fixture(scope="module")
def server_url(stub):
    server, _ = start_background(stub)
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.frontend.close()
    server.shutdown()


def _post_raw(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(req)


class TestKnowledgeEndpoint:
    def test_ingest_roundtrip(self, server_url, stub):
        client = HPCGPTClient(server_url)
        out = client.ingest(
            [{"text": "System: s1. Accelerator: a1.", "source": "unit"}],
            max_tokens=64,
        )
        assert out["documents"] == 1 and out["added"] == 1
        assert out["index_size"] == stub.chunks
        docs, max_tokens = stub.ingested[-1]
        assert docs[0]["source"] == "unit" and max_tokens == 64

    def test_stats(self, server_url, stub):
        stats = HPCGPTClient(server_url).knowledge_stats()
        assert stats == stub.retrieval_stats()

    def test_missing_documents_400(self, server_url):
        for payload in ({}, {"documents": []}, {"documents": "nope"}):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post_raw(server_url + "/api/knowledge", payload)
            assert err.value.code == 400

    def test_empty_document_400(self, server_url):
        for bad in ("   ", {"text": ""}, {"source": "no-text"}, 42):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post_raw(server_url + "/api/knowledge", {"documents": [bad]})
            assert err.value.code == 400

    def test_bad_max_tokens_400(self, server_url):
        for bad in ("abc", "64", 0, -3, True, 2.5):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post_raw(
                    server_url + "/api/knowledge",
                    {"documents": ["fine text"], "max_tokens": bad},
                )
            assert err.value.code == 400


class TestRetrievalFlag:
    def test_answer_with_retrieval_routes_to_rag(self, server_url, stub):
        client = HPCGPTClient(server_url)
        out = client.answer("what system?", retrieval=True)
        assert out == "rag[l2]: what system?"
        assert ["what system?"] in stub.retrieval_questions

    def test_answer_without_flag_uses_lm_path(self, server_url):
        client = HPCGPTClient(server_url)
        assert client.answer("plain question") == "lm[l2]: plain question"

    def test_response_echoes_flag(self, server_url):
        with _post_raw(
            server_url + "/api/answer", {"question": "q", "retrieval": True}
        ) as resp:
            body = json.loads(resp.read().decode())
        assert body["retrieval"] is True
