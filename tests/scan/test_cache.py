"""Tests for the content-addressed verdict cache (segment log)."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.drb import DRBSuite
from repro.scan import ScanConfig, ScanPipeline
from repro.scan.cache import (
    MAX_SEGMENTS,
    SEGMENT_SUFFIX,
    VerdictCache,
    kernel_key,
    pipeline_fingerprint,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def key_of(name: str) -> str:
    return kernel_key(name, "C/C++", "fp")


def segments(root):
    return sorted(p for p in Path(root).iterdir() if p.name.endswith(SEGMENT_SUFFIX))


def segment_lines(path):
    return [line.split("\t", 1) for line in path.read_text().splitlines()]


class TestKeys:
    def test_key_depends_on_every_input(self):
        base = kernel_key("src", "C/C++", "fp")
        assert kernel_key("src2", "C/C++", "fp") != base
        assert kernel_key("src", "Fortran", "fp") != base
        assert kernel_key("src", "C/C++", "fp2") != base
        assert kernel_key("src", "C/C++", "fp") == base

    def test_fingerprint_stable_and_sensitive(self):
        a = pipeline_fingerprint({"detectors": ["x"], "model": "m"})
        b = pipeline_fingerprint({"model": "m", "detectors": ["x"]})
        assert a == b  # key order does not matter
        assert pipeline_fingerprint({"detectors": ["y"], "model": "m"}) != a


class TestStore:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = VerdictCache(tmp_path / "scan")
        key = key_of("code")
        assert cache.get(key) is None
        cache.put({key: {"verdicts": {"LLOV": "yes"}}})
        assert cache.get(key) == {"verdicts": {"LLOV": "yes"}}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1
        assert len(cache) == 1
        assert VerdictCache(tmp_path / "scan").get(key) == {"verdicts": {"LLOV": "yes"}}

    def test_segment_layout(self, tmp_path):
        """One put is one segment of ``key\\tjson`` lines, and no temp
        file is left behind."""
        cache = VerdictCache(tmp_path)
        entries = {key_of(str(i)): {"n": i} for i in range(3)}
        cache.put(entries)
        (segment,) = segments(tmp_path)
        assert {k: json.loads(v) for k, v in segment_lines(segment)} == entries
        assert os.listdir(tmp_path) == [segment.name]
        cache.put({key_of("more"): {"n": 3}})
        assert len(segments(tmp_path)) == 2
        cache.put({})  # nothing to store: no segment
        assert len(segments(tmp_path)) == 2

    def test_segments_are_read_once(self, tmp_path):
        VerdictCache(tmp_path).put({key_of("a"): {"n": 1}, key_of("b"): {"n": 2}})
        cache = VerdictCache(tmp_path)
        assert cache.get(key_of("a")) == {"n": 1}
        for segment in segments(tmp_path):
            segment.unlink()
        assert cache.get(key_of("b")) == {"n": 2}  # served from the index

    def test_later_segment_wins(self, tmp_path):
        key = key_of("k")
        VerdictCache(tmp_path).put({key: {"n": 1}})
        VerdictCache(tmp_path).put({key: {"n": 2}})
        assert VerdictCache(tmp_path).get(key) == {"n": 2}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = VerdictCache(tmp_path)
        good, truncated, garbled = key_of("good"), key_of("truncated"), key_of("garbled")
        cache.put({good: {"a": 1}})
        (tmp_path / f"1{SEGMENT_SUFFIX}").write_bytes(
            f"{truncated}\t{{\"a\": \n".encode()
            + b"no tab on this line\n\xff\xfe\t{}\n"
            + f"{garbled}\t\xff\x00 not json\n".encode("latin-1")
        )
        cache = VerdictCache(tmp_path)
        assert cache.get(good) == {"a": 1}
        assert cache.get(truncated) is None
        assert cache.get(garbled) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 2

    def test_truncated_segment_is_a_miss_for_the_cut_entry(self, tmp_path):
        entries = {key_of(str(i)): {"n": i, "blob": "x" * 100} for i in range(4)}
        VerdictCache(tmp_path).put(entries)
        (segment,) = segments(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 50])  # cut inside the last entry
        cache = VerdictCache(tmp_path)
        *whole, cut = entries
        assert [cache.get(k) for k in whole] == [entries[k] for k in whole]
        assert cache.get(cut) is None

    def test_compaction_keeps_every_entry(self, tmp_path):
        cache = VerdictCache(tmp_path)
        shared = key_of("shared")
        expected = {}
        for i in range(MAX_SEGMENTS + 1):
            entries = {key_of(f"e{i}"): {"n": i}, shared: {"n": i}}
            cache.put(entries)
            expected.update(entries)
            assert len(segments(tmp_path)) <= MAX_SEGMENTS
        assert len(segments(tmp_path)) == 1  # the ninth put merged all nine
        fresh = VerdictCache(tmp_path)
        assert {k: fresh.get(k) for k in expected} == expected
        assert fresh.get(shared) == {"n": MAX_SEGMENTS}  # the last write wins
        assert len(fresh) == len(expected)

    def test_compaction_deletes_only_the_segments_it_read(self, tmp_path, monkeypatch):
        """A segment another scanner writes while the merge runs is
        neither merged nor deleted."""
        late = key_of("late")
        real = VerdictCache._read

        def read_then_race(self):
            out = real(self)
            # Written as put writes it, but with the newest stamp and
            # without the put's own merge.
            self._write(self._name("9" * 20), {late: b'{"late": true}'})
            return out

        cache = VerdictCache(tmp_path)
        for i in range(MAX_SEGMENTS):
            cache.put({key_of(f"e{i}"): {"n": i}})
        monkeypatch.setattr(VerdictCache, "_read", read_then_race)
        cache.put({key_of("last"): {"n": -1}})
        assert len(segments(tmp_path)) == 2  # the merge and the late one
        fresh = VerdictCache(tmp_path)
        assert fresh.get(late) == {"late": True}
        assert len(fresh) == MAX_SEGMENTS + 2

    def test_concurrent_writers_never_tear(self, tmp_path):
        cache = VerdictCache(tmp_path)
        key = key_of("k")
        payloads = [{"n": i, "blob": "x" * 2000} for i in range(8)]

        def write(i, p):
            for j in range(20):
                cache.put({key: p, key_of(f"{i}.{j}"): p})

        threads = [threading.Thread(target=write, args=(i, p)) for i, p in enumerate(payloads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: races show
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert cache.stats.writes == 2 * 8 * 20
        assert cache.get(key) in payloads
        fresh = VerdictCache(tmp_path)
        assert fresh.get(key) in payloads  # some complete payload, never a torn one
        assert len(fresh) == 1 + 8 * 20  # compaction lost no entry
        # And every segment on disk holds only whole entries.
        for segment in segments(tmp_path):
            for _, raw in segment_lines(segment):
                assert json.loads(raw) in payloads


def _scan_in_subprocess(tree, cache_dir, out):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "scan", str(tree), "--tools-only",
         "--cache-dir", str(cache_dir), "--json", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def _verdicts(kernels):
    return {(k["file"], k["start_line"]): (k["parse_ok"], k["verdicts"]) for k in kernels}


def test_two_scanner_processes_share_one_cache_root(tmp_path):
    """Two scans of one tree, in two processes at once, each write a
    segment to one cache root; a third scan is then all hits with the
    same verdicts as a scan without the cache."""
    suite = DRBSuite.evaluation(seed=0)
    small = sorted((s for s in suite.specs if "oversize" not in s.features),
                   key=lambda s: len(s.source))
    tree = tmp_path / "tree"
    DRBSuite(small[:4] + [s for s in small if s.language == "Fortran"][:2]).write_tree(tree)
    cache_dir = tmp_path / "cache"
    config = ScanConfig(tools_only=True, use_cache=False)
    expected = _verdicts(ScanPipeline(config=config).scan(tree).to_dict()["kernels"])
    assert len(expected) == 6

    procs = [_scan_in_subprocess(tree, cache_dir, tmp_path / f"{i}.json") for i in range(2)]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    for i in range(2):
        report = json.loads((tmp_path / f"{i}.json").read_text())
        assert _verdicts(report["kernels"]) == expected
    assert 1 <= len(segments(cache_dir)) <= 2

    third = ScanPipeline(
        config=ScanConfig(tools_only=True, cache_dir=cache_dir)
    ).scan(tree)
    assert third.totals["cache_hits"] == third.totals["kernels"] == 6
    assert _verdicts(third.to_dict()["kernels"]) == expected
