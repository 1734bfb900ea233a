"""Paired four-way comparison on shared held-out demand instances.

Expects a checkpoint from 03_train_policy.py (or `sodfeeder train`).  Every
policy sees the identical demand instances, so per-seed differences are
paired observations.
"""

import sys
from dataclasses import replace

import numpy as np

from sodfeeder import PolicyKind, Scenario, compare, load_checkpoint
from sodfeeder.experiments import paired_bootstrap_ge_zero

sc = Scenario()
checkpoint = sys.argv[1] if len(sys.argv) > 1 else "demo_policy.npz"
actor = load_checkpoint(checkpoint, sc)[0]
seeds = replace(sc.seeds, eval_count=20).eval_seeds()
policies = [PolicyKind.FIXED_ROUTE, PolicyKind.SOD,
            PolicyKind.NOMINAL_ZONAL, PolicyKind.RL_ZONAL]
results, info = compare(sc, policies, seeds, actor=actor, out_dir="demo_cmp")

print("%-14s %8s %8s %8s" % ("policy", "served", "rejected", "$/pax"))
for kind in policies:
    ms = results[kind]
    print("%-14s %8.1f %8.1f %8.2f"
          % (kind.value, np.mean([m.served for m in ms]),
             np.mean([m.rejected for m in ms]),
             np.nanmean([m.cost_per_passenger for m in ms])))

sod = np.array([m.served for m in results[PolicyKind.SOD]], dtype=float)
fix = np.array([m.served for m in results[PolicyKind.FIXED_ROUTE]],
               dtype=float)
diffs = sod - fix
print("\nSoD vs FixedRoute served: mean diff %+.1f, "
      "bootstrap P(mean >= 0) = %.3f"
      % (diffs.mean(), paired_bootstrap_ge_zero(diffs)))

dens = info["action_density"]
print("\nRL action density over the episode (first/middle/last step):")
for t in (0, len(dens) // 2, len(dens) - 1):
    print("  step %3d  regular %.2f  zone1 %.2f  zone2 %.2f  hold %.2f"
          % (t, *dens[t]))
print("\nfull outputs in demo_cmp/")
