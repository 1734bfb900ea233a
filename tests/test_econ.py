import math

import pytest

from sodfeeder.demand import Request, RequestState
from sodfeeder.dispatch import PolicyKind
from sodfeeder.econ import (METRIC_FIELDS, RunMetrics, aggregate,
                            generalized_cost, write_aggregate_csv,
                            write_metrics_csv, write_summary_json)
from sodfeeder.experiments import run_simulation
from sodfeeder.scenario import Scenario, build_world


def test_hand_computed_cost():
    # one served request: access 120 s, wait 300 s, ride 600 s; fleet drove
    # 10 km over 0.5 vehicle-hours.
    #   33/3600*120 + 24.75/3600*300 + 16.5/3600*600 + 0.694*10 + 7.59*0.5
    # = 1.10 + 2.0625 + 2.75 + 6.94 + 3.795 = 16.6475
    sc = Scenario()
    net = sc.network()
    w = build_world(sc, PolicyKind.SOD, 0)
    r = Request(0, 4000.0, 0, 40, state=RequestState.SERVED, access_time=120.0,
                pickup_time=4300.0, dropoff_time=4900.0)
    w.requests = [r]
    w.vehicles[0].dist_metric = 10_000.0
    w.vehicles[0].deployed_metric = 1800.0
    m = generalized_cost(w)
    assert m.served == 1
    assert m.access_cost == pytest.approx(1.10)
    assert m.wait_cost == pytest.approx(2.0625)
    assert m.ride_cost == pytest.approx(2.75)
    assert m.distance_cost == pytest.approx(6.94)
    assert m.vehicle_time_cost == pytest.approx(3.795)
    assert m.total_cost == pytest.approx(16.6475)
    assert m.cost_per_passenger == pytest.approx(16.6475)


def test_warmup_excludes_early_requests():
    early = Request(0, 100.0, 0, 40, state=RequestState.SERVED,
                    pickup_time=400.0, dropoff_time=700.0)
    late = Request(1, 4000.0, 0, 40, state=RequestState.SERVED,
                   pickup_time=4300.0, dropoff_time=4600.0)
    w = build_world(Scenario(), PolicyKind.SOD, 0)
    w.requests = [early, late]
    m = generalized_cost(w)
    assert m.generated == 1 and m.served == 1
    w0 = build_world(Scenario(warmup=0.0), PolicyKind.SOD, 0)
    w0.requests = [early, late]
    m0 = generalized_cost(w0)
    assert m0.generated == 2 and m0.served == 2


def test_cost_linearity_in_time_totals():
    # doubling every time component doubles the user-side cost
    sc = Scenario()
    w = build_world(sc, PolicyKind.SOD, 0)

    def req(rid, scale):
        return Request(rid, 4000.0, 0, 40, state=RequestState.SERVED, access_time=60.0 * scale,
                       pickup_time=4000.0 + 100.0 * scale,
                       dropoff_time=4000.0 + 100.0 * scale + 300.0 * scale)

    w.requests = [req(0, 1.0)]
    single = generalized_cost(w)
    w.requests = [req(0, 2.0)]
    double = generalized_cost(w)
    user = lambda m: m.access_cost + m.wait_cost + m.ride_cost
    assert user(double) == pytest.approx(2 * user(single))


def test_nan_cost_per_passenger_when_unserved():
    sc = Scenario()
    w = build_world(sc, PolicyKind.SOD, 0)
    w.requests = []
    m = generalized_cost(w)
    assert m.served == 0
    assert math.isnan(m.cost_per_passenger)


def test_request_conservation_on_full_run():
    m0, world = run_simulation(Scenario(warmup=0.0), PolicyKind.SOD, seed=3)
    assert m0.generated == len(world.requests)
    assert m0.served + m0.rejected + m0.pending == m0.generated
    assert m0.served > 0


def test_aggregate_quartiles():
    ms = []
    for served in (1, 2, 3, 4, 5):
        m = RunMetrics(served=served)
        ms.append(m)
    agg = aggregate(ms)
    assert agg["served"]["mean"] == pytest.approx(3.0)
    assert agg["served"]["median"] == pytest.approx(3.0)
    assert agg["served"]["q1"] == pytest.approx(2.0)
    assert agg["served"]["q3"] == pytest.approx(4.0)
    assert agg["served"]["min"] == 1 and agg["served"]["max"] == 5
    # NaN-valued fields are skipped, not propagated
    assert math.isnan(agg["cost_per_passenger"]["mean"])


def test_metric_field_list_matches_dataclass():
    m = RunMetrics()
    for f in METRIC_FIELDS:
        assert hasattr(m, f)


def test_csv_and_json_writers(tmp_path):
    m = RunMetrics(generated=10, served=8, total_cost=42.0,
                   cost_per_passenger=5.25)
    runs = tmp_path / "runs.csv"
    write_metrics_csv([({"policy": "sod", "seed": 1}, m)], runs)
    lines = runs.read_text().strip().splitlines()
    assert lines[0].startswith("policy,seed,generated")
    assert lines[1].startswith("sod,1,10,8")

    agg = tmp_path / "agg.csv"
    write_aggregate_csv({"sod": aggregate([m])}, agg)
    assert "sod,served" in agg.read_text()

    js = tmp_path / "summary.json"
    write_summary_json({"sod": {"mean_served": 8}}, js)
    assert '"mean_served": 8' in js.read_text()
