"""Tests for the §5 continual-learning endpoint (async update jobs)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import HPCGPTClient
from repro.serve.server import start_background

from support.stub_system import StubSystem


RECORDS = [
    {"instruction": "does this race?", "input": "", "output": "yes",
     "task": "datarace", "language": "C/C++"},
    {"instruction": "is MPI a PLP?", "output": "no"},
]


@pytest.fixture()
def update_server():
    system = StubSystem()
    server, _ = start_background(system)
    host, port = server.server_address
    yield system, f"http://{host}:{port}"
    server.frontend.close()
    server.shutdown()


class TestUpdateEndpoint:
    def test_update_job_lifecycle(self, update_server):
        system, url = update_server
        client = HPCGPTClient(url)
        job_id = client.update_start(RECORDS, version="l2", epochs=2)
        assert job_id.startswith("update-")
        status = client.update_wait(job_id, timeout=10.0)
        assert status["status"] == "done"
        assert status["version"] == "l2"
        result = status["result"]
        assert result == {
            "version": "l2", "n_records": 2, "threshold": 0.125,
            "steps": 3, "skipped_steps": 0, "mean_loss": 0.5, "seconds": 0.01,
        }
        # The system received parsed InstructionRecords with the epochs
        # override, and the engine was rebuilt on completion.
        (records, version, epochs), = system.updates
        assert version == "l2" and epochs == 2
        assert [r.instruction for r in records] == [
            "does this race?", "is MPI a PLP?",
        ]
        # Top-level task/language tags survive parsing (calibration
        # refits the threshold only over task="datarace" records).
        assert [r.task for r in records] == ["datarace", ""]
        assert records[0].language == "C/C++"
        assert system.engine_builds == ["l2"]

    def test_failed_update_reports_error(self):
        system = StubSystem(fail_updates=True)
        server, _ = start_background(system)
        host, port = server.server_address
        try:
            client = HPCGPTClient(f"http://{host}:{port}")
            job_id = client.update_start(RECORDS)
            status = client.update_wait(job_id, timeout=10.0)
            assert status["status"] == "error"
            assert "update exploded" in status["error"]
        finally:
            server.frontend.close()
            server.shutdown()

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no records
            {"records": []},  # empty
            {"records": "not-a-list"},
            {"records": [{"instruction": "x"}]},  # missing output
            {"records": [{"output": "yes"}]},  # missing instruction
            {"records": RECORDS, "version": "l3"},  # unknown version
            {"records": RECORDS, "epochs": "many"},  # non-integer epochs
            {"records": RECORDS, "epochs": 0},  # < 1
        ],
    )
    def test_bad_payloads_rejected(self, update_server, payload):
        _, url = update_server
        req = urllib.request.Request(
            url + "/api/update", data=json.dumps(payload).encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_unknown_job_404(self, update_server):
        _, url = update_server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "/api/update/update-999999")
        assert err.value.code == 404


class TestMaintenanceMutualExclusion:
    """Scan and update jobs must never run concurrently: a scan
    captures the engine + cache fingerprint at start, so an update
    landing mid-scan would corrupt verdicts and cache entries."""

    def test_scan_job_waits_for_maintenance_lock(self, tmp_path):
        import threading
        import time

        from repro.serve.server import ServingFrontend

        (tmp_path / "k.c").write_text(
            "#pragma omp parallel for\nfor (i = 0; i < 8; i++) a[i] = i;\n"
        )
        frontend = ServingFrontend(StubSystem())
        try:
            with frontend._maintenance_lock:  # simulate a running update
                job = frontend.scan_submit(
                    str(tmp_path), {"tools_only": True, "no_cache": True}
                )
                time.sleep(0.3)
                assert job.status in ("queued", "running")
                assert job.result is None  # blocked behind the update
            deadline = time.monotonic() + 10.0
            while job.status not in ("done", "error"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert job.status == "done"
        finally:
            frontend.close()

    def test_update_job_waits_for_maintenance_lock(self):
        import time

        from repro.serve.server import ServingFrontend

        system = StubSystem()
        frontend = ServingFrontend(system)
        try:
            with frontend._maintenance_lock:  # simulate a running scan
                job = frontend.update_submit("l2", {"records": RECORDS})
                time.sleep(0.3)
                assert not system.updates  # blocked behind the scan
            deadline = time.monotonic() + 10.0
            while job.status not in ("done", "error"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert job.status == "done" and len(system.updates) == 1
        finally:
            frontend.close()


class TestHealthDuringUpdate:
    def test_health_served_from_cache_while_lock_held(self):
        """/health must not block for the duration of an update job."""
        import threading
        import time

        from repro.serve.server import ServingFrontend

        frontend = ServingFrontend(StubSystem())
        try:
            frontend.finetuned("l2")  # warm the model cache
            with frontend._system_lock:  # simulate a running update job
                result = {}

                def probe():
                    t0 = time.monotonic()
                    result["model"] = frontend.finetuned("l2")
                    result["seconds"] = time.monotonic() - t0

                t = threading.Thread(target=probe)
                t.start()
                t.join(timeout=5.0)
            assert result["model"].config.name == "stub-model"
            assert result["seconds"] < 2.0  # did not wait for the lock
        finally:
            frontend.close()
