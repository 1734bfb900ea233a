"""Tour of the synthetic corridor and the seeded demand generator.

Builds the default ladder network, prints its geometry, and samples a demand
instance to show the feeder trip structure.
"""

from collections import Counter

from sodfeeder import DemandProfile, Segment, build_corridor, generate_instance
from sodfeeder.demand import forecast_demand, segment_shares

net = build_corridor()
print("corridor: %d nodes, %d mainline nodes, terminus at node %d"
      % (net.n_nodes, len(net.mainline_nodes), net.terminus))

for seg in Segment:
    nodes = [n for n, label in enumerate(net.labels) if label == seg]
    xs = [net.coords[n][0] for n in nodes]
    print("  %-6s %3d nodes, x in [%4.0f, %4.0f] m"
          % (seg.name, len(nodes), min(xs), max(xs)))

end = net.nearest_mainline_node(5600)
print("end-to-end drive: %.0f s over %.0f m"
      % (net.travel_time(0, end), net.travel_distance(0, end)))

profile = DemandProfile()
horizon = 10800.0
print("\ndemand: %.0f -> %.0f req/h over %.1f h, expected total %.1f"
      % (profile.base_rate, profile.end_rate, horizon / 3600,
         forecast_demand(profile, horizon, 0.0, horizon)))
shares = segment_shares(net, profile)
print("stationary endpoint shares:",
      {s.name: round(v, 3) for s, v in shares.items()})

requests = generate_instance(net, profile, horizon, seed=0)
print("\nseed 0 instance: %d requests" % len(requests))
outbound = sum(1 for r in requests if r.origin == net.terminus)
print("  %d depart the terminus, %d return to it"
      % (outbound, len(requests) - outbound))
by_seg = Counter(net.labels[r.destination if r.origin == net.terminus
                            else r.origin].name for r in requests)
print("  non-terminus endpoints:", dict(by_seg))
print("  first three:", [(r.id, round(r.t_r), r.origin, r.destination)
                         for r in requests[:3]])
