"""Golden report digests: the serving engine's frozen oracle.

`tests/golden/serving_digests.json` holds the `ServingReport.digest()` of
every case in `tests/golden/serving_cases.py`.  The digests were frozen
while the flat event-loop engine and an independent generator-process
engine still produced bit-identical reports on every case, so a match here
means the same records, migrations, churn entries, scaling actions,
brownout levels and energy ledger as that retired oracle — across workload
shapes, churn, autoscaling, batching, congestion-aware planning, faults
and graceful degradation.

Request ids are drawn from a process-global counter, so the digest rebases
them to the run's smallest id (relative order and density must still
match exactly).
"""

import dataclasses

import pytest

from repro.serving import BrownoutRecord, ChurnRecord, MigrationRecord, ScalingRecord

from golden.serving_cases import EQUIVALENCE_CONFIGS, all_cases, golden_digests, serve

GOLDEN = golden_digests()


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
    def test_flat_matches_golden(self, name):
        report = serve(**EQUIVALENCE_CONFIGS[name])
        # Widened conservation: every arrival terminates exactly once.
        assert report.completed + report.rejected + report.timed_out == report.arrivals
        assert report.digest() == GOLDEN[f"equivalence/{name}"]

    def test_scaling_adds_and_drops(self):
        """The scale-up-down case exercises scale-up (with load cost),
        scale-down, and churn-driven migration in the same run."""
        report = serve(**EQUIVALENCE_CONFIGS["scale-up-down"])
        assert any(s.action == "add" and s.applied for s in report.scaling)
        assert any(s.action == "drop" and s.applied for s in report.scaling)

    def test_every_case_has_a_golden_digest(self):
        assert sorted(all_cases()) == sorted(GOLDEN)

    def test_digest_sees_every_logged_field(self):
        """A digest that ignores a field cannot pin it: changing any one
        record field, or adding an entry to any log, changes the hash."""
        report = serve(**EQUIVALENCE_CONFIGS["bursty-stragglers-churn-brownout"])
        digest = report.digest()
        record = report.records[0]
        for field, value in (
            ("model_name", "other-model"),
            ("arrival_time", record.arrival_time + 1e-9),
            ("slo_s", record.slo_s + 1e-9),
            ("admitted", not record.admitted),
            ("rejected_reason", "changed"),
            ("finish_time", None if record.finish_time is not None else 1.0),
            ("retries", record.retries + 1),
            ("timed_out", not record.timed_out),
        ):
            records = (dataclasses.replace(record, **{field: value}),) + report.records[1:]
            assert dataclasses.replace(report, records=records).digest() != digest, field
        for log, entry in (
            ("migrations", MigrationRecord(1.0, "moved", 0.5)),
            ("churn", ChurnRecord(1.0, "desktop", "fail", True)),
            ("scaling", ScalingRecord(1.0, "add", "m", "desktop", 0.1, True)),
            ("brownout", BrownoutRecord(1.0, 1, 2.0, ("m",))),
        ):
            grown = getattr(report, log) + (entry,)
            assert dataclasses.replace(report, **{log: grown}).digest() != digest, log
        assert dataclasses.replace(report, energy=None).digest() != digest

    def test_digest_ignores_the_request_id_offset(self):
        report = serve(**EQUIVALENCE_CONFIGS["poisson-plain"])
        shifted = tuple(
            dataclasses.replace(r, request_id=r.request_id + 1000) for r in report.records
        )
        assert dataclasses.replace(report, records=shifted).digest() == report.digest()

    def test_keep_records_false_drops_records_only(self):
        kwargs = dict(kind="poisson", duration=20.0, seed=3)
        with_records = serve(**kwargs)
        without = serve(runtime_kwargs=dict(keep_records=False), **kwargs)
        assert without.records == ()
        assert without.metrics_tuple() == with_records.metrics_tuple()
        assert without.energy == with_records.energy

    def test_max_events_validation(self):
        from repro.serving import ServingRuntime

        with pytest.raises(ValueError):
            ServingRuntime(["clip-vit-b16"], max_events=0)
