"""Tests for the async scan job queue and the /api/scan endpoints."""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.scan.jobs import MAX_PENDING_JOBS, JobQueue, QueueFull
from repro.serve import HPCGPTClient
from repro.serve.server import RETRY_AFTER_S, start_background

from support.stub_system import StubSystem

RACY_C = (
    "int i;\n"
    "double y[32], x[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 1; i < 32; i++) { y[i] = y[i-1] + x[i]; }\n"
)


class TestScanJobQueue:
    def test_jobs_run_in_order_and_keep_results(self):
        seen = []

        def runner(path, options):
            seen.append(path)
            return {"path": path, **options}

        q = JobQueue(runner)
        try:
            a = q.submit("/a", {"tools_only": True})
            b = q.submit("/b")
            for job in (a, b):
                deadline = time.monotonic() + 5.0
                while job.status not in ("done", "error"):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            assert seen == ["/a", "/b"]
            assert a.result == {"path": "/a", "tools_only": True}
            assert q.get(a.id).status == "done"
            assert q.get("nope") is None
        finally:
            q.close()

    def test_failed_job_reports_error_and_queue_survives(self):
        def runner(path, options):
            if path == "/boom":
                raise RuntimeError("kaput")
            return {"ok": True}

        q = JobQueue(runner)
        try:
            bad = q.submit("/boom")
            good = q.submit("/fine")
            deadline = time.monotonic() + 5.0
            while good.status != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert bad.status == "error" and "kaput" in bad.error
            assert good.result == {"ok": True}
        finally:
            q.close()

    def test_backlog_cap_holds_under_concurrent_submits(self):
        started, release = threading.Event(), threading.Event()

        def runner(path, options):
            started.set()
            release.wait(10.0)
            return {}

        q = JobQueue(runner)
        accepted, refused = [], []
        count = threading.Lock()

        def submit_many():
            for _ in range(10):
                try:
                    job = q.submit("/x")
                except QueueFull:
                    with count:
                        refused.append(1)
                else:
                    with count:
                        accepted.append(job)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            q.submit("/first")  # taken by the worker, which blocks
            assert started.wait(5.0)
            threads = [threading.Thread(target=submit_many) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
                assert not t.is_alive()
            assert (len(accepted), len(refused)) == (MAX_PENDING_JOBS, 80 - MAX_PENDING_JOBS)
            release.set()
            deadline = time.monotonic() + 10.0
            while accepted[-1].status != "done":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            q.submit("/again")  # the drained backlog takes jobs again
        finally:
            sys.setswitchinterval(interval)
            release.set()
            q.close()

    def test_submit_after_close_rejected(self):
        q = JobQueue(lambda p, o: {})
        q.close()
        with pytest.raises(RuntimeError):
            q.submit("/x")


@pytest.fixture()
def scan_server(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "racy.c").write_text(RACY_C)
    server, _ = start_background(StubSystem())
    host, port = server.server_address
    yield root, f"http://{host}:{port}"
    server.frontend.close()
    server.shutdown()


class TestScanEndpoints:
    def test_scan_job_lifecycle(self, scan_server):
        root, url = scan_server
        client = HPCGPTClient(url)
        job_id = client.scan_start(
            str(root), tools_only=True, no_cache=True, languages=["c"]
        )
        status = client.scan_wait(job_id, timeout=30.0)
        assert status["status"] == "done"
        report = status["report"]
        assert report["totals"]["kernels"] == 1
        (kernel,) = report["kernels"]
        assert kernel["file"] == "racy.c"
        assert kernel["ensemble_verdict"] == "yes"

    def test_missing_path_400(self, scan_server):
        _, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan", data=json.dumps({}).encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_nonexistent_path_400(self, scan_server):
        _, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan",
            data=json.dumps({"path": "/no/such/dir"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_unknown_language_400(self, scan_server):
        root, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan",
            data=json.dumps({"path": str(root), "languages": ["rust"],
                             "tools_only": True}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_unread_fields_are_ignored(self, scan_server):
        root, url = scan_server
        client = HPCGPTClient(url)
        job_id = client.scan_start(
            str(root), tools_only=True, no_cache=True, strategies=["chaos-monkey"],
        )
        status = client.scan_wait(job_id, timeout=30.0)
        assert status["status"] == "done"
        assert status["report"]["totals"]["kernels"] == 1

    @pytest.mark.parametrize(
        "extra, error",
        [
            ({"tools_only": "false"}, "'tools_only' must be true or false"),
            ({"no_cache": 1}, "'no_cache' must be true or false"),
            ({"languages": "fortran"}, "'languages' must be a list of strings"),
            ({"languages": [5]}, "'languages' must be a list of strings"),
            ({"path": 5}, "'path' must be a string"),
        ],
    )
    def test_bad_option_types_400(self, scan_server, extra, error):
        root, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan",
            data=json.dumps({"path": str(root), **extra}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        assert error in json.loads(err.value.read())["error"]

    def test_unknown_job_404(self, scan_server):
        _, url = scan_server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "/api/scan/scan-999999")
        assert err.value.code == 404

    def test_detect_language_alias_accepted(self, scan_server):
        _, url = scan_server
        client = HPCGPTClient(url)
        assert client.detect("for (;;) {}", language="cpp") == "no"

    def test_detect_unknown_language_400(self, scan_server):
        _, url = scan_server
        req = urllib.request.Request(
            url + "/api/detect",
            data=json.dumps({"code": "x = 1;", "language": "cobol"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_scan_does_not_block_detect(self, scan_server):
        """A queued scan and detect traffic can proceed together."""
        root, url = scan_server
        client = HPCGPTClient(url)
        job_id = client.scan_start(str(root), tools_only=True, no_cache=True)
        answers = []

        def hammer():
            answers.append(client.detect("serial code"))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert answers == ["no"] * 4
        assert client.scan_wait(job_id, timeout=30.0)["status"] == "done"


def _post(url: str, route: str, body: dict) -> dict:
    req = urllib.request.Request(url + route, data=json.dumps(body).encode(), method="POST")
    with urllib.request.urlopen(req) as resp:
        assert resp.status == 202
        return json.loads(resp.read())


@pytest.mark.parametrize("route", ["/api/scan", "/api/update"])
def test_full_backlog_gets_429_until_the_worker_drains(tmp_path, route):
    body = (
        {"path": str(tmp_path), "tools_only": True}
        if route == "/api/scan"
        else {"records": [{"instruction": "is MPI a PLP?", "output": "no"}]}
    )
    started, release = threading.Event(), threading.Event()

    def blocked(subject, options):
        started.set()
        release.wait(10.0)
        return {}

    server, _ = start_background(StubSystem())
    frontend = server.frontend
    frontend._scan_runner = frontend._update_runner = blocked
    host, port = server.server_address
    url = f"http://{host}:{port}"
    try:
        _post(url, route, body)  # taken by the worker, which blocks
        assert started.wait(5.0)
        ids = [_post(url, route, body)["id"] for _ in range(MAX_PENDING_JOBS)]
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url, route, body)
        assert err.value.code == 429
        assert err.value.headers["Retry-After"] == str(RETRY_AFTER_S)
        assert "backlog is full" in json.loads(err.value.read())["error"]

        release.set()
        deadline = time.monotonic() + 10.0
        while True:
            with urllib.request.urlopen(f"{url}{route}/{ids[-1]}") as resp:
                if json.loads(resp.read())["status"] == "done":
                    break
            assert time.monotonic() < deadline
            time.sleep(0.01)
        _post(url, route, body)
    finally:
        release.set()
        frontend.close()
        server.shutdown()
