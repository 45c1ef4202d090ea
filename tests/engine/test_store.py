"""ResultsStore: schema round-trip, memo counters, sessions."""

import math

import pytest

from repro.engine import ResultsStore
from repro.engine.jobs import EvaluationJob, VariantSpec, config_items


def make_job(benchmark="stencil2d", tile=18, wg=16, device="nvidia", **flags):
    return EvaluationJob(
        benchmark=benchmark,
        shape=(64, 64),
        device=device,
        variant=VariantSpec(name="tiled", use_tiling=True, tile_size=tile,
                            use_local_memory=True, unroll_reduce=True),
        config=config_items({"wg_x": wg, "wg_y": wg, "work_per_thread": 1}),
        expr_digest="d" * 64,
        **flags,
    )


class TestFingerprints:
    def test_fingerprint_is_stable_and_sensitive(self):
        job = make_job()
        assert job.fingerprint() == make_job().fingerprint()
        assert job.fingerprint() != make_job(tile=34).fingerprint()
        assert job.fingerprint() != make_job(wg=8).fingerprint()
        assert job.fingerprint() != make_job(device="amd").fingerprint()

    def test_fingerprints_are_pinned_across_releases(self):
        # Stores written by earlier releases must keep answering --resume
        # with zero re-evaluations: these digests were recorded before the
        # variant dict stopped going through ``dataclasses.asdict``.
        assert make_job().fingerprint() == (
            "ca509cc1f37c9020793a7ae6b217083ca69766a637f28a8805d8bbcfae714836")
        assert make_job(measure_runs=3, measure_size=256).fingerprint() == (
            "8f665b8dd1c500938b8710b508c1edc091abaab176b0cb8e840d2bece52b56d1")
        assert make_job(validate=True, validate_backend="crosscheck",
                        validate_size=16).fingerprint() == (
            "7ce2701e31d2870892d4e8dd177fb46c085b84a955136e7ebe4fe8ea9dbb1b2b")

    def test_config_items_canonicalises_order(self):
        a = config_items({"wg_x": 1, "wg_y": 2})
        b = config_items({"wg_y": 2, "wg_x": 1})
        assert a == b


class TestSchemaRoundTrip:
    def test_round_trip_through_disk(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        job = make_job()
        cost = 1.2345e-5
        with ResultsStore(path) as store:
            fingerprint = store.put(job, cost, session="sess-1")
        with ResultsStore(path) as store:
            stored = store.get(fingerprint)
        assert stored is not None
        assert stored.benchmark == "stencil2d"
        assert stored.device == "nvidia"
        assert stored.shape == (64, 64)
        assert stored.expr_digest == "d" * 64
        assert stored.variant == job.variant
        assert stored.config == job.config_dict
        assert stored.cost == cost  # REAL is an IEEE double: exact round-trip
        assert stored.session == "sess-1"

    def test_put_many_and_get_many(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        jobs = [make_job(wg=wg) for wg in (2, 4, 8, 16)]
        with ResultsStore(path) as store:
            store.put_many(
                [(job, float(index), job.fingerprint())
                 for index, job in enumerate(jobs)],
                session="bulk",
            )
        with ResultsStore(path) as store:
            found = store.get_many([job.fingerprint() for job in jobs] + ["missing"])
            assert len(found) == 4
            assert store.hits == 4 and store.misses == 1

    def test_best_per_benchmark_orders_by_cost(self, tmp_path):
        with ResultsStore(str(tmp_path / "store.sqlite")) as store:
            store.put(make_job(wg=8), 3.0)
            store.put(make_job(wg=16), 1.0)
            store.put(make_job(wg=4), 2.0)
            store.put(make_job(benchmark="heat"), 0.1)
            best = store.best_per_benchmark(device="nvidia")
            assert best["stencil2d"].cost == 1.0
            assert best["heat"].cost == 0.1
            assert store.best_per_benchmark(device="arm") == {}


class TestCounters:
    def test_hit_and_miss_counting(self):
        store = ResultsStore(":memory:")
        job = make_job()
        assert store.get(job.fingerprint()) is None
        assert (store.hits, store.misses) == (0, 1)
        store.put(job, 1.0)
        assert store.get(job.fingerprint()) is not None
        assert (store.hits, store.misses) == (1, 1)
        store.reset_counters()
        assert store.stats() == {"entries": 1, "hits": 0, "misses": 0}

    def test_put_is_idempotent_by_fingerprint(self):
        store = ResultsStore(":memory:")
        job = make_job()
        store.put(job, 1.0)
        store.put(job, 2.0)  # re-evaluation overwrites, no duplicate rows
        assert store.count() == 1
        assert store.get(job.fingerprint()).cost == 2.0


class TestSessions:
    def test_session_spec_round_trip(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        spec = {"benchmark": "heat", "budget": 20, "shape": [64, 64, 64]}
        with ResultsStore(path) as store:
            store.save_session("abc", spec)
        with ResultsStore(path) as store:
            assert store.session_spec("abc") == spec
            assert store.session_spec("nope") is None
            assert ("abc", "running") in store.sessions()
            store.finish_session("abc")
            assert ("abc", "done") in store.sessions()

    def test_infinite_cost_round_trips(self):
        store = ResultsStore(":memory:")
        job = make_job()
        store.put(job, float("inf"))
        assert math.isinf(store.get(job.fingerprint()).cost)


class TestDurability:
    def test_opens_in_wal_mode_with_busy_timeout(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with ResultsStore(path, busy_timeout_s=2.5) as store:
            conn = store._conn
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 2500

    def test_corrupt_file_is_moved_aside_and_recreated(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with ResultsStore(path) as store:
            store.put(make_job(), 1.0)
        with open(path, "wb") as fh:
            fh.write(b"definitely not a sqlite file" * 64)
        with ResultsStore(path) as store:
            assert store.count() == 0  # fresh schema, usable again
            store.put(make_job(), 2.0)
            assert store.count() == 1
        assert (tmp_path / "store.sqlite.corrupt").exists()

    def test_second_corruption_does_not_clobber_the_first_parked_file(
            self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        for _ in range(2):
            with open(path, "wb") as fh:
                fh.write(b"garbage" * 64)
            ResultsStore(path).close()
        parked = [p.name for p in tmp_path.iterdir()
                  if ".corrupt" in p.name]
        assert len(parked) == 2, parked

    def test_missing_parent_directory_is_still_created(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "store.sqlite")
        with ResultsStore(path) as store:
            store.put(make_job(), 1.0)
        with ResultsStore(path) as store:
            assert store.count() == 1

    def test_injected_lock_surfaces_as_operational_error(self):
        import sqlite3

        from repro import faults

        faults.disarm()
        try:
            faults.arm("store.locked:at=1")
            store = ResultsStore(":memory:")
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.put(make_job(), 1.0)
            # The schedule fired once; the store itself is unharmed.
            store.put(make_job(), 1.0)
            assert store.count() == 1
        finally:
            faults.disarm()


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
