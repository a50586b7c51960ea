"""Tests for the deployment stage (server + client) using a stub system
so no training happens in unit tests."""

import http.client
import inspect
import json
import threading
import urllib.request

import pytest

from repro.core import HPCGPTSystem
from repro.serve import HPCGPTClient
from repro.scan.walker import DEFAULT_MAX_BYTES
from repro.serve.server import (
    MAX_BODY_BYTES,
    ServingFrontend,
    ServingSystem,
    start_background,
)

from support.stub_system import StubSystem


@pytest.mark.parametrize("system_cls", [HPCGPTSystem, StubSystem])
def test_implements_serving_protocol(system_cls):
    """The frontend calls the ``ServingSystem`` surface without probing,
    so the production system and the test stub must both offer every
    method with every parameter the protocol names."""
    methods = [n for n in vars(ServingSystem) if not n.startswith("_")]
    assert len(methods) == 9
    for name in methods:
        impl = getattr(system_cls, name, None)
        assert callable(impl), name
        wanted = inspect.signature(getattr(ServingSystem, name)).parameters
        assert set(wanted) <= set(inspect.signature(impl).parameters), name


@pytest.fixture(scope="module")
def server_url():
    server, _ = start_background(StubSystem())
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.frontend.close()
    server.shutdown()


class TestServer:
    def test_health(self, server_url):
        client = HPCGPTClient(server_url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["model"] == "stub-model"
        assert health["parameters"] == 12345

    def test_gui_served(self, server_url):
        with urllib.request.urlopen(server_url + "/") as resp:
            body = resp.read().decode()
        assert "<html" in body and "HPC-GPT" in body

    def test_answer_endpoint(self, server_url):
        client = HPCGPTClient(server_url)
        assert client.answer("what dataset?") == "lm[l2]: what dataset?"

    def test_detect_endpoint(self, server_url):
        client = HPCGPTClient(server_url)
        assert client.detect("#pragma omp parallel for ...") == "yes"
        assert client.detect("serial loop") == "no"

    def test_missing_fields_400(self, server_url):
        for path, payload in (("/api/answer", {}), ("/api/detect", {"code": "  "})):
            req = urllib.request.Request(
                server_url + path, data=json.dumps(payload).encode(), method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400

    @pytest.mark.parametrize(
        "path, body, headers, error",
        [
            ("/api/answer", b"[1]", {}, "must be an object"),
            ("/api/detect", b'"x"', {}, "must be an object"),
            ("/api/answer", b'{"question": 5}', {}, "'question' must be a string"),
            ("/api/detect", b'{"code": ["x"]}', {}, "'code' must be a string"),
            ("/api/answer", b'{"question": "q", "retrieval": "false"}', {},
             "'retrieval' must be true or false"),
            ("/api/answer", b'{"question": "q", "version": 5}', {},
             "'version' must be a string"),
            ("/api/answer", b'{"question": "q", "version": "l9"}', {},
             "unknown version"),
            ("/api/detect", b'{"code": "x", "language": 3}', {},
             "language must be a string"),
            ("/api/answer", b"\xff\xfe", {}, "invalid JSON body"),
            ("/api/answer", b'{"question": "q"}', {"Content-Length": "lots"},
             "invalid Content-Length"),
        ],
    )
    def test_malformed_request_400(self, server_url, path, body, headers, error):
        """Malformed bodies get a 400 with a reason, never a dropped
        connection."""
        host, port = server_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("POST", path, body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 400
            assert error in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_oversize_body_413_unread(self, server_url):
        """A claimed length over the cap is refused at once, without
        waiting for a body that never comes, and the server still
        answers the next request."""
        host, port = server_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/api/detect")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(10**12))
            conn.endheaders()  # headers only: the body is never sent
            resp = conn.getresponse()
            assert resp.status == 413
            assert resp.getheader("Connection") == "close"
            assert "exceeds" in json.loads(resp.read())["error"]
        finally:
            conn.close()
        client = HPCGPTClient(server_url)
        assert client.detect("#pragma omp parallel for ...") == "yes"

    def test_body_cap_fits_a_file_at_the_scan_size_cap(self):
        worst = json.dumps({"code": "\x01" * DEFAULT_MAX_BYTES, "language": "C/C++"})
        assert len(worst.encode("utf-8")) <= MAX_BODY_BYTES

    def test_bad_json_400(self, server_url):
        req = urllib.request.Request(
            server_url + "/api/answer", data=b"not json{", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_unknown_path_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server_url + "/nope")
        assert err.value.code == 404


class TestMicroBatchedServing:
    @pytest.fixture()
    def batch_server(self):
        system = StubSystem()
        server, _ = start_background(system)
        host, port = server.server_address
        yield system, f"http://{host}:{port}", server
        server.frontend.close()
        server.shutdown()

    def test_concurrent_requests_share_batches(self, batch_server):
        system, url, _ = batch_server
        client = HPCGPTClient(url)
        n = 8
        results = {}
        gate = threading.Barrier(n, timeout=5.0)

        def ask(i):
            gate.wait()
            results[i] = client.answer(f"q{i}")

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert results == {i: f"lm[l2]: q{i}" for i in range(n)}
        assert sum(system.answer_batches) == n
        # At least one micro-batch gathered more than one request.
        assert max(system.answer_batches) > 1

    def test_detect_routes_through_batched_path(self, batch_server):
        system, url, _ = batch_server
        client = HPCGPTClient(url)
        assert client.detect("#pragma omp parallel for") == "yes"
        assert client.detect("serial") == "no"
        assert system.detect_batches == [1, 1]


class TestGroupErrorIsolation:
    """A failing language group must not poison batchmates in other
    groups of the same micro-batch."""

    class ExplodingSystem(StubSystem):
        def detect_race_batch(self, codes, language="C/C++"):
            if language == "Fortran":
                raise RuntimeError("fortran backend down")
            return ["no" for _ in codes]

    def test_one_groups_failure_spares_the_other(self):
        frontend = ServingFrontend(self.ExplodingSystem(), window_ms=30.0, max_batch=8)
        try:
            results, errors = {}, {}
            gate = threading.Barrier(2, timeout=5.0)

            def call(code, language):
                gate.wait()
                try:
                    results[language] = frontend.detect(code, language=language)
                except RuntimeError as exc:
                    errors[language] = str(exc)

            threads = [
                threading.Thread(target=call, args=("x = 1;", "C/C++")),
                threading.Thread(target=call, args=("x = 1", "Fortran")),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5.0)
            assert results == {"C/C++": "no"}
            assert errors == {"Fortran": "fortran backend down"}
        finally:
            frontend.close()
