"""Keep-alive serving: every response leaves the server in one write on a
socket with Nagle's algorithm off, so a kept-alive request never waits
for the client's delayed ACK (at least 40 ms on Linux), and a request
that fails or is refused is still answered in full."""

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.serve.server import start_background

from support.stub_system import StubSystem

# Well under the 40 ms delayed-ACK floor a split response pays per request.
STALL_FREE_MS = 20.0


class FailingDetectSystem(StubSystem):
    """Every detect batch and every index-stats read raises."""

    def detect_race_batch(self, codes, language="C/C++"):
        raise RuntimeError("detector backend down")

    def retrieval_stats(self):
        raise KeyError("index")


@pytest.fixture()
def address():
    server, _ = start_background(StubSystem())
    yield server.server_address[:2]
    server.frontend.close()
    server.shutdown()


@pytest.fixture()
def failing_address():
    server, _ = start_background(FailingDetectSystem())
    yield server.server_address[:2]
    server.frontend.close()
    server.shutdown()


def median_round_trip_ms(conn, method, path, body=None, n=20) -> float:
    times = []
    for _ in range(n):
        start = time.perf_counter()
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        resp.read()
        times.append((time.perf_counter() - start) * 1000)
        assert resp.status == 200
        assert not resp.will_close
    return statistics.median(times)


def test_kept_alive_requests_pay_no_delayed_ack_stall(address):
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        health = median_round_trip_ms(conn, "GET", "/health")
        knowledge = median_round_trip_ms(
            conn, "POST", "/api/knowledge", json.dumps({"documents": ["ordered loops"]})
        )
    finally:
        conn.close()
    assert health < STALL_FREE_MS, health
    assert knowledge < STALL_FREE_MS, knowledge


def exchange(address, request: bytes) -> tuple[int, dict, bytes]:
    """Send raw ``request`` bytes and read until the server closes the
    connection: (status, headers, body).  Times out if it never does."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


@pytest.mark.parametrize(
    "request_bytes, status, error",
    [
        (b"GET /health extra HTTP/1.1\r\nHost: x\r\n\r\n", 400, None),
        (b"POST /api/detect HTTP/1.1\r\nHost: x\r\nContent-Length: lots\r\n\r\n",
         400, "invalid Content-Length"),
        (b"POST /api/detect HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000000000\r\n\r\n",
         413, "exceeds"),
    ],
    ids=["bad-request-line", "bad-content-length", "oversize-body"],
)
def test_refused_request_is_answered_in_full_then_closed(address, request_bytes, status, error):
    got, headers, body = exchange(address, request_bytes)
    assert got == status
    assert headers["connection"] == "close"
    assert len(body) == int(headers["content-length"])
    if error is not None:
        assert error in json.loads(body)["error"]


def test_failing_batch_gets_500_and_connection_stays_usable(failing_address):
    conn = http.client.HTTPConnection(*failing_address, timeout=10)
    try:
        conn.request("POST", "/api/detect", body=json.dumps({"code": "x = 1;"}))
        resp = conn.getresponse()
        assert resp.status == 500
        assert json.loads(resp.read()) == {"error": "RuntimeError: detector backend down"}
        conn.request("GET", "/health")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["status"] == "ok"
    finally:
        conn.close()


def test_failing_get_route_gets_500(failing_address):
    conn = http.client.HTTPConnection(*failing_address, timeout=10)
    try:
        conn.request("GET", "/api/knowledge")
        resp = conn.getresponse()
        assert resp.status == 500
        assert json.loads(resp.read()) == {"error": "KeyError: 'index'"}
    finally:
        conn.close()
