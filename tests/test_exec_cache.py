"""Tests for repro.exec.cache (sharded content-addressed trace store) and its CLI."""

import json

import pytest

from repro.exec import SessionJob, TraceCache, default_cache
from repro.exec.__main__ import main as cache_cli
from repro.machine import SYS1


def tiny_job(run=0, duration_s=0.5):
    return SessionJob(
        spec=SYS1,
        workload="volrend",
        defense="baseline",
        seed=11,
        run_id=("cache-test", run),
        duration_s=duration_s,
    )


def shard_files(root, pattern="*.npz"):
    """Files under the shard tree (sorted for stability)."""
    return sorted((root / "shards").rglob(pattern))


class TestRoundTrip:
    def test_put_get_is_bit_identical(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        loaded = cache.get(job)
        assert loaded is not None and loaded.equals(trace)
        assert cache.hits == 1 and cache.misses == 0

    def test_unknown_job_is_a_miss(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        assert cache.get(tiny_job()) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        cache._path(job).write_bytes(b"not an npz file")
        assert cache.get(job) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        assert not list(tmp_path.rglob(".*.tmp"))

    def test_entries_land_in_prefix_shards(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        key = job.key()
        expected = tmp_path / "shards" / key[:2] / f"{key}.npz"
        assert expected.is_file()
        assert cache._path(job) == expected
        assert (tmp_path / "journal.jsonl").is_file()


class TestEviction:
    def test_lru_trims_oldest_first(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        traces = [job.execute() for job in jobs]
        for job, trace in zip(jobs, traces):
            cache.put(job, trace)
        entry_size = cache._path(jobs[0]).stat().st_size
        # Room for roughly two entries: the oldest must go.
        cache.max_bytes = int(entry_size * 2.5)
        cache.put(jobs[0], traces[0])  # refresh 0, trigger eviction
        surviving = {path.name for path, _ in cache.entries()}
        assert f"{jobs[0].key()}.npz" in surviving
        assert len(surviving) <= 2

    def test_newest_entry_is_never_evicted(self, tmp_path):
        cache = TraceCache(root=tmp_path, max_bytes=1)  # absurdly small
        job = tiny_job()
        cache.put(job, job.execute())
        assert cache.get(job) is not None


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        cache.get(job)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["hits"] == 1
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_stats_reports_compactions_and_shard_distribution(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        for i in range(3):
            job = tiny_job(run=i)
            cache.put(job, job.execute())
        stats = cache.stats()
        assert stats["compactions"] == 0
        shards = stats["shards"]
        assert shards["occupied"] >= 1
        assert 1 <= shards["entries_min"] <= shards["entries_median"] \
            <= shards["entries_max"] <= 3
        # clear() compacts the journal eagerly and bumps the lifetime count,
        # which the layout header persists for fresh handles to pick up.
        cache.clear()
        assert cache.stats()["compactions"] == 1
        assert cache.stats()["shards"]["occupied"] == 0
        assert TraceCache(root=tmp_path).stats()["compactions"] == 1

    def test_default_cache_is_env_gated(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert default_cache() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None and cache.root == tmp_path

    def test_max_mb_env_sets_the_bound(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.5")
        assert TraceCache(root=tmp_path).max_bytes == 1_500_000
        monkeypatch.delenv("REPRO_CACHE_MAX_MB")
        assert TraceCache(root=tmp_path).max_bytes == 512_000_000

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "0", "-5"])
    def test_max_mb_env_rejects_non_positive_or_non_finite(
        self, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", value)
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_MB"):
            TraceCache(root=tmp_path)


class TestAccounting:
    def test_running_totals_match_directory_scan(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        for i in range(3):
            job = tiny_job(run=i)
            cache.put(job, job.execute())
        cache.put(tiny_job(run=1), tiny_job(run=1).execute())  # overwrite
        stats = cache.stats()
        truth = {path: size for path, size in cache.entries()}
        assert stats["entries"] == len(truth) == 3
        assert stats["total_bytes"] == sum(truth.values())

    def test_totals_seed_from_preexisting_directory(self, tmp_path):
        first = TraceCache(root=tmp_path)
        job = tiny_job()
        first.put(job, job.execute())
        # A fresh handle on the same directory must account for entries it
        # never wrote.
        second = TraceCache(root=tmp_path)
        stats = second.stats()
        assert stats["entries"] == 1 and stats["total_bytes"] > 0

    def test_evictions_are_counted(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        for job in jobs:
            cache.put(job, job.execute())
        entry_size = cache._path(jobs[0]).stat().st_size
        cache.max_bytes = int(entry_size * 1.5)
        cache.put(jobs[0], jobs[0].execute())
        assert cache.evictions >= 1
        assert cache.stats()["evictions"] == cache.evictions
        assert cache.stats()["entries"] == len(cache.entries())

    def test_cache_counters_flow_into_metrics(self, tmp_path):
        from repro import telemetry
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(root=tmp_path / "telemetry")
        telemetry.set_recorder(recorder)
        try:
            cache = TraceCache(root=tmp_path / "cache")
            job = tiny_job()
            assert cache.get(job) is None  # miss
            cache.put(job, job.execute())
            assert cache.get(job) is not None  # hit
            counters = recorder.metrics.render()["counters"]
            assert counters["exec.cache.misses"] == 1
            assert counters["exec.cache.hits"] == 1
        finally:
            telemetry.set_recorder(None)

    def test_clear_and_recovery_handle_stray_shard_files(self, tmp_path):
        # A shard may hold files that are not entries (older stores kept
        # per-session telemetry next to each entry): recovery accounts
        # only the entries, and clear() removes every file in the shard.
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        stray = cache._path(job).with_suffix(".stray")
        stray.write_text('{"type": "manifest"}\n')
        cache.journal_path.unlink()
        recovered = TraceCache(root=tmp_path)
        assert recovered.stats()["total_bytes"] == cache._path(job).stat().st_size
        assert recovered.clear() == 1
        assert not shard_files(tmp_path, "*")


class TestPackedGroups:
    def test_put_many_packs_a_group(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        traces = [job.execute() for job in jobs]
        cache.put_many(jobs, traces)
        packs = shard_files(tmp_path, "pack-*.npz")
        assert len(packs) == 1
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["groups"] == 1
        assert stats["sessions"] == 3

    def test_packed_round_trip_is_bit_identical(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        traces = [job.execute() for job in jobs]
        cache.put_many(jobs, traces)
        for job, trace in zip(jobs, traces):
            loaded = cache.get(job)
            assert loaded is not None and loaded.equals(trace)

    def test_get_many_matches_per_session_gets(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        traces = [job.execute() for job in jobs]
        cache.put_many(jobs, traces)
        fresh = TraceCache(root=tmp_path)
        bulk = fresh.get_many(jobs + [tiny_job(run=99)])
        assert bulk[-1] is None and fresh.misses == 1
        assert all(got.equals(want) for got, want in zip(bulk, traces))
        assert fresh.hits == 3

    def test_packed_group_evicts_as_a_unit(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        group = [tiny_job(run=i) for i in range(2)]
        cache.put_many(group, [job.execute() for job in group])
        single = tiny_job(run=9)
        cache.put(single, single.execute())
        cache.max_bytes = cache._path(single).stat().st_size + 1
        trigger = tiny_job(run=10)
        cache.put(trigger, trigger.execute())
        # The group (oldest) is gone entirely; both its keys now miss.
        assert cache.get(group[0]) is None and cache.get(group[1]) is None
        assert not shard_files(tmp_path, "pack-*.npz")

    def test_put_many_unpacked_writes_per_session_entries(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(2)]
        cache.put_many(jobs, [job.execute() for job in jobs], packed=False)
        assert not shard_files(tmp_path, "pack-*.npz")
        assert len(shard_files(tmp_path)) == 2
        assert cache.stats()["groups"] == 0


class TestJournal:
    def test_fresh_handle_replays_journal_without_scanning(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(2)]
        traces = [job.execute() for job in jobs]
        for job, trace in zip(jobs, traces):
            cache.put(job, trace)
        fresh = TraceCache(root=tmp_path)
        assert fresh.get(jobs[1]).equals(traces[1])
        assert fresh.stats()["tree_scans"] == 0

    def test_eviction_never_rescans_the_tree(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(3)]
        for job in jobs:
            cache.put(job, job.execute())
        cache.max_bytes = cache._path(jobs[0]).stat().st_size * 2
        cache.put(tiny_job(run=7), tiny_job(run=7).execute())
        assert cache.evictions >= 1
        assert cache.stats()["tree_scans"] == 0

    def test_concurrent_handles_converge_through_the_journal(self, tmp_path):
        writer = TraceCache(root=tmp_path)
        reader = TraceCache(root=tmp_path)
        job_a = tiny_job(run=0)
        trace_a = job_a.execute()
        writer.put(job_a, trace_a)
        # The reader handle was opened before the write: it must pick the
        # entry up by tailing the journal, not by rescanning.
        assert reader.get(job_a).equals(trace_a)
        assert reader.stats()["entries"] == 1
        assert reader.stats()["tree_scans"] == 0

    def test_missing_journal_recovers_with_one_scan(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        (tmp_path / "journal.jsonl").unlink()
        recovered = TraceCache(root=tmp_path)
        assert recovered.get(job).equals(trace)
        stats = recovered.stats()
        assert stats["entries"] == 1
        assert stats["tree_scans"] == 1

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        trace = job.execute()
        cache.put(job, trace)
        with open(tmp_path / "journal.jsonl", "ab") as stream:
            stream.write(b'{"op":"put","id":"torn')  # no newline: mid-crash
        fresh = TraceCache(root=tmp_path)
        assert fresh.get(job).equals(trace)
        assert fresh.stats()["entries"] == 1

    @pytest.mark.parametrize(
        "line",
        [
            "[1,2]",
            "7",
            '{"op":"put","id":"x","bytes":"abc"}',
            '{"op":"layout","compactions":"z"}',
            '{"op":"put","id":"y","keys":5}',
        ],
    )
    def test_well_formed_record_of_the_wrong_shape_is_skipped(self, tmp_path, line):
        cache = TraceCache(root=tmp_path)
        jobs = [tiny_job(run=i) for i in range(2)]
        traces = [job.execute() for job in jobs]
        for job, trace in zip(jobs, traces):
            cache.put(job, trace)
        journal = tmp_path / "journal.jsonl"
        records = journal.read_text().splitlines()
        records.insert(len(records) - 1, line)  # between the two puts
        journal.write_text("\n".join(records) + "\n")
        fresh = TraceCache(root=tmp_path)
        for job, trace in zip(jobs, traces):
            assert fresh.get(job).equals(trace)
        stats = fresh.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] == cache.stats()["total_bytes"]

    def test_negative_bytes_record_is_skipped(self, tmp_path):
        """A negative size cannot drive the total below zero and stop eviction."""
        (tmp_path / "journal.jsonl").write_text(
            '{"op":"put","id":"a","bytes":10,"keys":["ka"]}\n'
            '{"op":"put","id":"n","bytes":-1000000000000,"keys":[]}\n'
        )
        cache = TraceCache(root=tmp_path, max_bytes=100)
        stats = cache.stats()
        assert stats["total_bytes"] == 10
        assert stats["entries"] == 1
        job = tiny_job()
        cache.put(job, job.execute())
        assert cache.evictions == 1
        assert [entry_id for entry_id in cache._entries] == [job.key()]
        assert cache.stats()["total_bytes"] == cache._path(job).stat().st_size


class TestCli:
    def test_stats_command(self, tmp_path, capsys):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        assert cache_cli(["--cache", "stats", "--dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 1
        assert report["layout"] == "sharded-v2"
        assert report["tree_scans"] == 0
        assert report["compactions"] == 0
        assert report["shards"]["occupied"] == 1
        assert report["shards"]["entries_min"] == 1
        assert report["shards"]["entries_median"] == 1.0
        assert report["shards"]["entries_max"] == 1

    def test_clear_command(self, tmp_path, capsys):
        cache = TraceCache(root=tmp_path)
        job = tiny_job()
        cache.put(job, job.execute())
        assert cache_cli(["--cache", "clear", "--dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == 1
        assert not list(tmp_path.rglob("*.npz"))
