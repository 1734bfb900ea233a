"""Generalized cost and run metrics, with warm-up exclusion.

The generalized cost sums user time components (access, wait, ride) over
requests arriving after the warm-up cutoff and operator components (distance,
deployed vehicle-hours) accrued after the cutoff.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from .demand import RequestState


@dataclass
class RunMetrics:
    generated: int = 0
    served: int = 0
    rejected: int = 0
    pending: int = 0
    mean_access: float = 0.0
    mean_wait: float = 0.0
    mean_ride: float = 0.0
    total_access: float = 0.0
    total_wait: float = 0.0
    total_ride: float = 0.0
    vehicle_km: float = 0.0
    vehicle_hours: float = 0.0
    access_cost: float = 0.0
    wait_cost: float = 0.0
    ride_cost: float = 0.0
    distance_cost: float = 0.0
    vehicle_time_cost: float = 0.0
    total_cost: float = 0.0
    cost_per_passenger: float = math.nan   # NaN when nothing was served

    def components(self):
        return (self.access_cost, self.wait_cost, self.ride_cost,
                self.distance_cost, self.vehicle_time_cost)


def generalized_cost(world):
    """Compute run metrics for one finished simulation.

    Requests count when their request time is at or after the warm-up
    cutoff; vehicle distance and deployed time are the post-cutoff accruals
    kept by the simulation.
    """
    cutoff = world.params.warmup
    c = world.params.coeffs
    m = RunMetrics()
    for r in world.requests:
        if r.t_r < cutoff:
            continue
        m.generated += 1
        if r.state == RequestState.SERVED:
            m.served += 1
            wait = r.pickup_time - r.t_r
            ride = r.dropoff_time - r.pickup_time
            m.total_access += r.access_time
            m.total_wait += wait
            m.total_ride += ride
        elif r.state == RequestState.REJECTED:
            m.rejected += 1
        else:
            m.pending += 1

    km = sum(v.dist_metric for v in world.vehicles) / 1000.0
    hours = sum(v.deployed_metric for v in world.vehicles) / 3600.0
    m.vehicle_km = km
    m.vehicle_hours = hours

    m.access_cost = c.a_per_s * m.total_access
    m.wait_cost = c.w_per_s * m.total_wait
    m.ride_cost = c.t_per_s * m.total_ride
    m.distance_cost = c.gamma_o * km
    m.vehicle_time_cost = c.gamma_v * hours
    m.total_cost = sum(m.components())
    if m.served > 0:
        m.mean_access = m.total_access / m.served
        m.mean_wait = m.total_wait / m.served
        m.mean_ride = m.total_ride / m.served
        m.cost_per_passenger = m.total_cost / m.served
    return m


METRIC_FIELDS = [f for f in RunMetrics.__dataclass_fields__]
# the statistics ``aggregate`` gives each field, in column order; ``n`` is
# the number of runs the others cover
STATS = ("n", "mean", "q1", "median", "q3", "min", "max")


def aggregate(metrics_list):
    """Per-field run count, mean, quartiles, min and max across runs.  A
    NaN value, such as ``cost_per_passenger`` of a run that served nobody,
    is left out, and the field's ``n`` counts only the runs it keeps."""
    out = {}
    for name in METRIC_FIELDS:
        vals = sorted(v for v in (getattr(m, name) for m in metrics_list)
                      if not (isinstance(v, float) and math.isnan(v)))
        if not vals:
            out[name] = dict.fromkeys(STATS, math.nan) | {"n": 0}
            continue
        out[name] = {
            "n": len(vals),
            "mean": sum(vals) / len(vals),
            "q1": _quantile(vals, 0.25),
            "median": _quantile(vals, 0.5),
            "q3": _quantile(vals, 0.75),
            "min": vals[0],
            "max": vals[-1],
        }
    return out


def _quantile(sorted_vals, q):
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def write_table(path, header, rows):
    """Write a CSV table: the ``header`` row, then each of ``rows``.  Every
    table the program writes goes through here, so all share one format:
    the ``csv`` module's default dialect, whose lines end in ``\\r\\n``."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_metrics_csv(rows, path):
    """rows: list of (label dict, RunMetrics)."""
    if not rows:
        return
    label_keys = list(rows[0][0].keys())
    write_table(path, label_keys + METRIC_FIELDS,
                ([labels[k] for k in label_keys]
                 + [getattr(m, name) for name in METRIC_FIELDS]
                 for labels, m in rows))


def write_aggregate_csv(agg_by_label, path):
    """agg_by_label: {label: aggregate dict} -> long-format CSV."""
    write_table(path, ["label", "metric", *STATS],
                ([label, name] + [stats[k] for k in STATS]
                 for label, agg in agg_by_label.items()
                 for name, stats in agg.items()))


def write_summary_json(payload, path):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
