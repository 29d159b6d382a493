"""CiaoSession facade behavior: plan, load jobs, query, lifecycle."""

import pytest

from repro.api import (
    Budget,
    CiaoSession,
    CostModel,
    DEFAULT_COEFFICIENTS,
    DeploymentConfig,
    Query,
    Workload,
    clause,
    key_value,
    substring,
)

SEED = 1234
N_RECORDS = 1200


@pytest.fixture()
def yelp_workload():
    five_stars = clause(key_value("stars", 5))
    tasty = clause(substring("text", "tasty000"))
    return Workload(
        (Query((five_stars, tasty), name="rave"),
         Query((tasty,), name="kw")),
        dataset="yelp",
    )


class TestPlan:
    def test_plan_deterministic_under_fixed_seed(self, yelp_workload):
        plans = []
        for _ in range(2):
            with CiaoSession(yelp_workload, source="yelp",
                             seed=SEED) as session:
                plans.append(session.plan(Budget(1.0)))
        a, b = plans
        assert [e.clause for e in a.entries] == \
            [e.clause for e in b.entries]
        assert [e.predicate_id for e in a.entries] == \
            [e.predicate_id for e in b.entries]
        assert [e.cost_us for e in a.entries] == \
            [e.cost_us for e in b.entries]

    def test_plan_requires_workload(self):
        with CiaoSession(source="yelp", seed=SEED) as session:
            with pytest.raises(RuntimeError, match="workload"):
                session.plan(Budget(1.0))

    def test_plan_requires_source_or_overrides(self, yelp_workload):
        with CiaoSession(yelp_workload) as session:
            with pytest.raises(RuntimeError, match="data source"):
                session.plan(Budget(1.0))

    def test_injectable_overrides_skip_source(self, yelp_workload):
        """Selectivities + cost model injection needs no source at all."""
        sels = {c: 0.3 for c in yelp_workload.candidate_pool}
        model = CostModel(DEFAULT_COEFFICIENTS, 150.0)
        with CiaoSession(yelp_workload) as session:
            plan = session.plan(
                Budget(1.0), selectivities=sels, cost_model=model
            )
        assert len(plan) >= 1
        assert session.pushdown_plan is None or True  # session closed ok

    def test_float_budget_coerced(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            plan = session.plan(1.0)
            assert plan.budget == Budget(1.0)


class TestLoadJob:
    def test_result_accounting_invariant(self, yelp_workload):
        """Satellite: received == loaded + sidelined + malformed."""
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            session.plan(Budget(1.0))
            report = session.load(n_records=N_RECORDS).result()
        assert report.received == N_RECORDS
        assert report.received == (
            report.loaded + report.sidelined + report.malformed
        )
        assert report.accounting_ok
        assert report.no_record_loss
        assert report.records_offered == N_RECORDS
        assert report.mode == "serial"
        assert report.client_stats is not None
        assert report.bytes_sent > 0

    def test_result_idempotent(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            session.plan(Budget(1.0))
            job = session.load(n_records=N_RECORDS)
            assert job.result() is job.result()

    def test_progress_reaches_done(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            job = session.load(n_records=N_RECORDS)
            job.result()
            progress = job.progress()
            assert progress.done
            assert progress.state == "done"
            assert progress.records_shipped == N_RECORDS

    def test_snapshot_query_on_serial(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            job = session.load(n_records=N_RECORDS)
            mid = job.snapshot_query("SELECT COUNT(*) FROM t").scalar()
            assert 0 <= mid <= N_RECORDS
            report = job.result()
            assert report.mode == "serial"
            assert session.query("SELECT COUNT(*) FROM t").scalar() \
                == N_RECORDS

    def test_snapshot_query_on_sharded(self, yelp_workload):
        config = DeploymentConfig(
            mode="sharded", n_shards=2, shard_mode="thread",
            chunk_size=100, seal_interval=2,
        )
        with CiaoSession(yelp_workload, source="yelp", seed=SEED,
                         config=config) as session:
            session.plan(Budget(1.0))
            job = session.load(n_records=N_RECORDS)
            mid = job.snapshot_query("SELECT COUNT(*) FROM t").scalar()
            assert 0 <= mid <= N_RECORDS
            report = job.result()
            assert report.mode == "sharded"
            assert report.no_record_loss
            final = session.query("SELECT COUNT(*) FROM t").scalar()
            assert final == N_RECORDS

    def test_snapshot_counts_consistent_while_worker_finalizes(
            self, yelp_workload):
        """Regression: query() serializes against the worker thread's
        finalize — mid-load counts must stay monotone and cover only
        whole chunks, never a half-mutated catalog."""
        config = DeploymentConfig(
            mode="sharded", n_shards=2, shard_mode="thread",
            chunk_size=100, seal_interval=2, ship_batch=1,
        )
        with CiaoSession(yelp_workload, source="yelp", seed=SEED,
                         config=config) as session:
            job = session.load(n_records=3000)
            seen = []
            while not job.done:
                seen.append(
                    job.snapshot_query("SELECT COUNT(*) FROM t").scalar()
                )
            job.result()
            assert all(c % 100 == 0 for c in seen), seen
            assert all(a <= b for a, b in zip(seen, seen[1:])), seen
            final = session.query("SELECT COUNT(*) FROM t").scalar()
            assert final == 3000

    def test_load_failure_surfaces_in_result(self, yelp_workload):
        session = CiaoSession(yelp_workload)
        # None poisons the chunker mid-stream; the background thread
        # must capture the error and re-raise it at result().
        job = session.load(source=["{\"ok\": 1}", None])
        with pytest.raises(Exception):
            job.result()
        assert job.progress().state == "failed"
        session.close()


class TestSessionLifecycle:
    def test_query_before_load(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            with pytest.raises(RuntimeError, match="load"):
                session.query("SELECT COUNT(*) FROM t")

    def test_query_waits_for_inflight_load(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            session.load(n_records=N_RECORDS)
            count = session.query("SELECT COUNT(*) FROM t").scalar()
            assert count == N_RECORDS

    def test_mutated_result_rows_leave_later_answers_intact(
            self, yelp_workload):
        """Sideline rows come from the table's parse-once cache; a
        caller mutating a ``SELECT *`` result must not reach it."""
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            session.plan(Budget(1.0))
            assert session.load(n_records=N_RECORDS).result().sidelined
            rows = session.query("SELECT * FROM t").rows
            total = session.query("SELECT SUM(useful) FROM t").scalar()
            expected = [dict(row) for row in rows]
            for row in rows:
                row["useful"] = 10 ** 6
                row.pop("stars", None)
            assert session.query("SELECT * FROM t").rows == expected
            assert session.query(
                "SELECT SUM(useful) FROM t").scalar() == total

    def test_two_concurrent_loads_rejected(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            job = session.load(n_records=N_RECORDS)
            if not job.done:
                with pytest.raises(RuntimeError, match="already running"):
                    session.load(n_records=10)
            job.result()

    def test_sequential_loads_get_fresh_servers(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            first = session.load(n_records=100)
            first.result()
            first_server = first.server
            second = session.load(n_records=200)
            second.result()
            assert second.server is not first_server
            assert session.query("SELECT COUNT(*) FROM t").scalar() == 200

    def test_closed_session_rejects_work(self, yelp_workload):
        session = CiaoSession(yelp_workload, source="yelp", seed=SEED)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.load(n_records=10)

    def test_close_finalizes_uncollected_jobs(self, yelp_workload):
        """Regression: a done-but-uncollected sharded load must still be
        finalized at close, or its shard workers leak."""
        config = DeploymentConfig(mode="sharded", n_shards=2,
                                  shard_mode="thread", chunk_size=100)
        session = CiaoSession(yelp_workload, source="yelp", seed=SEED,
                              config=config)
        job = session.load(n_records=400)
        job.wait()
        session.close()  # never called job.result()
        assert job.server.state == "finalized"

    def test_serial_load_n_records_bounds_line_sources(self,
                                                       yelp_workload):
        """Regression: n_records applies to non-generator sources too."""
        from repro.data import make_generator

        lines = list(make_generator("yelp", SEED).raw_lines(300))
        with CiaoSession(yelp_workload) as session:
            report = session.load(source=lines, n_records=120).result()
        assert report.received == 120

    def test_tempdir_cleaned_up(self, yelp_workload):
        session = CiaoSession(yelp_workload, source="yelp", seed=SEED)
        data_dir = session.data_dir
        session.load(n_records=100).result()
        assert data_dir.exists()
        session.close()
        assert not data_dir.exists()

    def test_explicit_data_dir_kept(self, tmp_path, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp", seed=SEED,
                         data_dir=tmp_path / "deploy") as session:
            session.load(n_records=100).result()
        assert (tmp_path / "deploy").exists()

    def test_run_workload(self, yelp_workload):
        with CiaoSession(yelp_workload, source="yelp",
                         seed=SEED) as session:
            session.plan(Budget(1.0))
            session.load(n_records=N_RECORDS)
            results = session.run_workload()
            assert len(results) == len(yelp_workload.queries)
            assert all(r.scalar() >= 0 for r in results)


class TestFleetMode:
    def test_fleet_load_accounting(self, yelp_workload):
        config = DeploymentConfig(
            mode="fleet", n_shards=2, shard_mode="thread",
            chunk_size=100, n_clients=3,
            aggregate_budget=Budget(4.0),
        )
        with CiaoSession(yelp_workload, source="yelp", seed=SEED,
                         config=config) as session:
            session.plan(Budget(8.0))
            report = session.load(n_records=N_RECORDS).result()
            assert report.mode == "fleet"
            assert report.fleet is not None
            assert len(report.fleet.clients) == 3
            assert report.no_record_loss
            assert report.received == N_RECORDS
            count = session.query("SELECT COUNT(*) FROM t").scalar()
            assert count == N_RECORDS

    def test_fleet_population_deterministic_from_seed(self, yelp_workload):
        config = DeploymentConfig(mode="fleet", n_shards=2,
                                  shard_mode="thread", chunk_size=200,
                                  n_clients=4)
        ids = []
        for _ in range(2):
            with CiaoSession(yelp_workload, source="yelp", seed=SEED,
                             config=config) as session:
                report = session.load(n_records=400).result()
                ids.append(
                    [(c.client_id, c.platform, c.speed_factor, c.share)
                     for c in report.fleet.clients]
                )
        assert ids[0] == ids[1]
