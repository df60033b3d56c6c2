"""Fleet orchestrator: specs, aggregates, sharded execution.

The load-bearing claims, each pinned here:

* ``FleetAggregate.merge`` is associative and commutative (property-
  tested), which is *why* the fleet result is independent of shard
  boundaries and execution order;
* ``run_fleet`` produces bit-identical aggregates for any worker count,
  shard size and backend;
* everything the process pool ships (shard tasks, aggregates) survives
  pickling intact;
* the unified :class:`ExecOptions` run-spec validates and resolves
  ``"auto"``;
* empty specs (fleet and sweep) return well-formed empty results
  without training detectors or spinning up a pool.
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.experiments.campaigns import run_campaign_sweep
from repro.fleet import (
    DROP_BIN_EDGES,
    LATENCY_BIN_EDGES,
    ExecOptions,
    FleetAggregate,
    FleetSlice,
    FleetSpec,
    VehicleSpec,
    drop_histogram,
    fleet_detectors,
    latency_histogram,
    run_fleet,
)
from repro.fleet.runner import _FleetShard


def _slices(draw_ints):
    """Build a FleetSlice strategy from a small-int strategy."""
    latency_bins = len(LATENCY_BIN_EDGES) - 1
    drop_bins = len(DROP_BIN_EDGES) - 1
    return st.builds(
        FleetSlice,
        vehicles=draw_ints,
        channels=draw_ints,
        frames_offered=draw_ints,
        frames_processed=draw_ints,
        frames_dropped=draw_ints,
        alerts=draw_ints,
        phases_total=draw_ints,
        phases_injecting=draw_ints,
        phases_detected=draw_ints,
        latency_hist=st.tuples(*([draw_ints] * latency_bins)),
        drop_hist=st.tuples(*([draw_ints] * drop_bins)),
    )


_counts = st.integers(min_value=0, max_value=1_000)
_keys = st.sampled_from(["baseline-dos", "baseline-fuzzy", "masquerade-rpm", "per-ip"])
_aggregates = st.builds(
    FleetAggregate,
    total=_slices(_counts),
    by_scenario=st.dictionaries(_keys, _slices(_counts), max_size=3),
    by_deployment=st.dictionaries(_keys, _slices(_counts), max_size=2),
)


class TestAggregateAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(a=_aggregates, b=_aggregates, c=_aggregates)
    def test_merge_is_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=60, deadline=None)
    @given(a=_aggregates, b=_aggregates)
    def test_merge_is_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=30, deadline=None)
    @given(a=_aggregates)
    def test_empty_is_identity(self, a):
        empty = FleetAggregate.empty()
        assert a.merge(empty) == a and empty.merge(a) == a

    def test_histograms_are_fixed_width_and_conserving(self):
        hist = latency_histogram([0.00005, 0.001, 0.5, 100.0])
        assert len(hist) == len(LATENCY_BIN_EDGES) - 1
        assert sum(hist) == 4  # underflow and overflow bins catch the tails
        assert sum(drop_histogram(0.37)) == 1
        with pytest.raises(ConfigError, match="bins"):
            FleetSlice(latency_hist=(1, 2, 3))

    def test_latency_quantile_is_conservative_upper_bound(self):
        counters = FleetSlice(latency_hist=latency_histogram([0.001] * 99 + [5.0]))
        assert counters.latency_quantile_s(0.5) >= 0.001
        assert counters.latency_quantile_s(1.0) >= 5.0
        assert FleetSlice().latency_quantile_s(0.5) is None
        with pytest.raises(ConfigError, match="quantile"):
            counters.latency_quantile_s(1.5)


class TestSpecs:
    def test_exec_options_validate(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            ExecOptions(backend="fiber")
        with pytest.raises(ConfigError, match="unknown engine"):
            ExecOptions(engine="warp")
        with pytest.raises(ConfigError, match="max_workers"):
            ExecOptions(max_workers=0)
        with pytest.raises(ConfigError, match="fifo_capacity"):
            ExecOptions(fifo_capacity=0)

    def test_auto_backend_resolves_to_concrete(self):
        resolved = ExecOptions(backend="auto").resolved()
        assert resolved.backend in ("thread", "process")
        assert ExecOptions(backend="thread").resolve_backend() == "thread"
        # Resolution is host-dependent but never leaves "auto" behind.
        assert ExecOptions(backend="auto").resolve_backend() != "auto"

    def test_vehicle_spec_validates(self):
        with pytest.raises(ConfigError, match="profile"):
            VehicleSpec(index=0, scenario="baseline-dos", vehicle_seed=1, profile="suv")
        with pytest.raises(ConfigError, match="deployment"):
            VehicleSpec(
                index=0, scenario="baseline-dos", vehicle_seed=1, deployment="cloud"
            )
        with pytest.raises(ConfigError, match="onset_offset"):
            VehicleSpec(
                index=0, scenario="baseline-dos", vehicle_seed=1, onset_offset=-0.1
            )

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: VehicleSpec(0, "baseline-dos", 1, onset_offset=math.inf), "onset_offset.*inf"),
            (lambda: VehicleSpec(0, "baseline-dos", 1, onset_offset=math.nan), "onset_offset.*nan"),
            (lambda: VehicleSpec(0, "baseline-dos", 1, duration=math.nan), "duration.*nan"),
            (lambda: VehicleSpec(0, "baseline-dos", 1, duration=math.inf), "duration.*inf"),
            (lambda: FleetSpec(size=2, duration=math.nan), "duration.*nan"),
            (lambda: FleetSpec(size=2, duration=math.inf), "duration.*inf"),
            (lambda: FleetSpec(size=2, onset_jitter=math.nan), "onset_jitter.*nan"),
            (lambda: FleetSpec(size=2, onset_jitter=math.inf), "onset_jitter.*inf"),
        ],
        ids=[
            "vehicle-onset-inf", "vehicle-onset-nan", "vehicle-duration-nan",
            "vehicle-duration-inf", "fleet-duration-nan", "fleet-duration-inf",
            "fleet-jitter-nan", "fleet-jitter-inf",
        ],
    )
    def test_non_finite_specs_rejected_at_construction(self, build, match):
        """A non-finite onset, duration or jitter is a ConfigError naming
        the value when the spec is built, not a failed shard (retried
        with backoff) inside a fleet worker."""
        with pytest.raises(ConfigError, match=match):
            build()

    def test_sampled_fleet_is_index_deterministic(self):
        spec = FleetSpec(
            name="pop",
            size=50,
            seed=11,
            scenarios=("baseline-dos", "baseline-fuzzy"),
            profiles=("full", "mid", "lite"),
            deployments=("per-ip", "shared-ip"),
            onset_jitter=0.2,
        )
        # Same member whichever shard derives it, and jitter stays bounded.
        assert spec.vehicle(17) == spec.vehicle(17)
        assert list(spec.iter_vehicles(10, 13)) == [spec.vehicle(i) for i in (10, 11, 12)]
        drawn = [spec.vehicle(i) for i in range(50)]
        assert all(0.0 <= v.onset_offset <= 0.2 for v in drawn)
        assert {v.profile for v in drawn} == {"full", "mid", "lite"}
        # A different fleet seed draws a different population.
        other = FleetSpec(
            name="pop",
            size=50,
            seed=12,
            scenarios=("baseline-dos", "baseline-fuzzy"),
            profiles=("full", "mid", "lite"),
            deployments=("per-ip", "shared-ip"),
            onset_jitter=0.2,
        )
        assert [other.vehicle(i) for i in range(50)] != drawn

    def test_explicit_fleet_wraps_vehicle_list(self):
        members = (
            VehicleSpec(index=0, scenario="baseline-dos", vehicle_seed=1),
            VehicleSpec(index=1, scenario="baseline-fuzzy", vehicle_seed=2),
        )
        spec = FleetSpec.explicit(members, name="pair")
        assert len(spec) == 2
        assert spec.vehicle(1) == members[1]
        assert spec.scenario_names() == ("baseline-dos", "baseline-fuzzy")
        with pytest.raises(ConfigError, match="out of range"):
            spec.vehicle(2)

    def test_fleet_detectors_match_scenarios(self):
        spec = FleetSpec(size=4, scenarios=("baseline-dos", "masquerade-rpm"))
        assert fleet_detectors(spec) == {
            "baseline-dos": "dos",
            "masquerade-rpm": "rpm",
        }


class TestRunFleet:
    @pytest.fixture(scope="class")
    def fleet_spec(self):
        return FleetSpec(
            name="mini",
            size=6,
            seed=7,
            scenarios=("baseline-dos", "baseline-fuzzy"),
            profiles=("full", "mid", "lite"),
            deployments=("per-ip", "shared-ip"),
            duration=0.4,
            onset_jitter=0.05,
        )

    @pytest.fixture(scope="class")
    def reference(self, experiment_context, fleet_spec):
        return run_fleet(
            experiment_context,
            fleet_spec,
            ExecOptions(backend="thread", max_workers=1),
            shard_size=2,
        )

    def test_aggregate_counts_the_whole_fleet(self, reference, fleet_spec):
        total = reference.aggregate.total
        assert reference.vehicles == len(fleet_spec) == total.vehicles
        assert total.frames_offered > 0
        assert total.frames_processed + total.frames_dropped == total.frames_offered
        assert sum(s.vehicles for s in reference.aggregate.by_scenario.values()) == 6
        assert sum(s.vehicles for s in reference.aggregate.by_deployment.values()) == 6
        assert 0.0 <= total.detection_rate <= 1.0
        assert reference.backend == "thread" and reference.engine == "columnar"
        record = reference.as_record()
        assert record["vehicles"] == 6 and record["backend"] == "thread"
        assert "mini" in reference.summary()

    @pytest.mark.parametrize(
        "backend,workers,shard_size",
        [
            ("thread", 2, 2),
            ("thread", 4, 1),
            ("thread", 1, 6),
            ("process", 2, 2),
            ("process", 4, 3),
        ],
    )
    def test_bit_identical_across_workers_shards_backends(
        self, experiment_context, fleet_spec, reference, backend, workers, shard_size
    ):
        run = run_fleet(
            experiment_context,
            fleet_spec,
            ExecOptions(backend=backend, max_workers=workers),
            shard_size=shard_size,
        )
        assert run.aggregate == reference.aggregate

    def test_shard_task_pickles_round_trip(self, fleet_spec):
        shard = _FleetShard(spec=fleet_spec, start=2, stop=5)
        thawed = pickle.loads(pickle.dumps(shard))
        assert thawed == shard
        assert list(thawed.spec.iter_vehicles(2, 5)) == list(
            fleet_spec.iter_vehicles(2, 5)
        )
        aggregate = FleetAggregate.of_vehicle(
            "baseline-dos", "per-ip", FleetSlice(vehicles=1)
        )
        assert pickle.loads(pickle.dumps(aggregate)) == aggregate

    def test_empty_fleet_returns_wellformed_result(self, experiment_context):
        result = run_fleet(experiment_context, FleetSpec(size=0))
        assert result.vehicles == 0 and result.shards == 0 and result.workers == 0
        assert result.aggregate == FleetAggregate.empty()
        assert result.backend in ("thread", "process")  # resolved, never "auto"

    def test_bad_shard_size_rejected(self, experiment_context, fleet_spec):
        with pytest.raises(ConfigError, match="shard_size"):
            run_fleet(experiment_context, fleet_spec, shard_size=0)


class TestSweepUnifiedOptions:
    def test_empty_sweep_returns_wellformed_result(self, experiment_context):
        result = run_campaign_sweep(experiment_context, scenarios=[])
        assert result.runs == [] and result.duration == 0.0
        assert result.backend in ("thread", "process")
        with pytest.raises(ConfigError, match="no sweep run"):
            result.run("baseline-dos", "per-ip")

    def test_sweep_accepts_exec_options_and_records_backend(
        self, experiment_context
    ):
        result = run_campaign_sweep(
            experiment_context,
            scenarios=["baseline-dos"],
            duration=0.8,
            options=ExecOptions(backend="thread", max_workers=1),
        )
        assert result.backend == "thread" and result.engine == "columnar"
        run = result.run("baseline-dos", "per-ip")
        assert run.report.total_frames > 0
        assert result.run("baseline-dos", "shared-ip") is not run
