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

from support.batching import join_all, submit_in_threads, wait_queued
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
        system = HeldSystem()
        server, _ = start_background(system)
        host, port = server.server_address
        yield system, f"http://{host}:{port}", server
        server.frontend.close()
        server.shutdown()

    def test_concurrent_requests_share_batches(self, batch_server):
        system, url, server = batch_server
        client = HPCGPTClient(url)
        _, _, first = submit_in_threads(client.detect, ["hold"])
        assert system.started.wait(5.0)
        n = 8
        results, errors, threads = submit_in_threads(client.answer, [f"q{i}" for i in range(n)])
        wait_queued(server.frontend._batcher, n)
        system.release.set()
        join_all(first + threads)
        assert results == {f"q{i}": f"lm[l2]: q{i}" for i in range(n)} and not errors
        assert system.answer_batches == [n]

    def test_detect_routes_through_batched_path(self, batch_server):
        system, url, _ = batch_server
        client = HPCGPTClient(url)
        assert client.detect("#pragma omp parallel for") == "yes"
        assert client.detect("serial") == "no"
        assert system.detect_batches == [1, 1]


class HeldSystem(StubSystem):
    """Holds a detect of ``"hold"`` until :attr:`release` is set, and
    fails every Fortran detect."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def detect_race_batch(self, codes, language="C/C++"):
        if "hold" in codes:
            self.started.set()
            self.release.wait(5.0)
        if language == "Fortran":
            raise RuntimeError("fortran backend down")
        return super().detect_race_batch(codes, language=language)


class TestOneBatcher:
    """Answer and detect requests share one micro-batcher; each batch is
    served with one batched call per request key."""

    class RecordingFrontend(ServingFrontend):
        def __init__(self, system):
            self.dispatched: list[list] = []
            super().__init__(system)

        def _dispatch_grouped(self, items):
            self.dispatched.append(list(items))
            return super()._dispatch_grouped(items)

    def test_one_batcher_thread(self):
        before = set(threading.enumerate())
        frontend = ServingFrontend(StubSystem())
        try:
            assert len(set(threading.enumerate()) - before) == 1
        finally:
            frontend.close()

    def test_answer_and_detect_share_a_batch_and_fail_per_group(self):
        system = HeldSystem()
        frontend = self.RecordingFrontend(system)
        try:
            _, _, first = submit_in_threads(frontend.detect, ["hold"])
            assert system.started.wait(5.0)

            def request(item):
                if item.startswith("q"):
                    return frontend.answer(item)
                return frontend.detect(item, language="Fortran")

            results, errors, threads = submit_in_threads(request, ["q1", "q2", "x = 1", "y = 2"])
            wait_queued(frontend._batcher, 4)
            system.release.set()
            join_all(first + threads)
            assert len(frontend.dispatched) == 2
            assert sorted(key for _, key in frontend.dispatched[1]) == [
                ("answer", "l2", False), ("answer", "l2", False),
                ("detect", "Fortran"), ("detect", "Fortran"),
            ]
            assert system.answer_batches == [2]
            assert results == {"q1": "lm[l2]: q1", "q2": "lm[l2]: q2"}
            assert {k: str(e) for k, e in errors.items()} == {
                "x = 1": "fortran backend down", "y = 2": "fortran backend down",
            }
        finally:
            system.release.set()
            frontend.close()
