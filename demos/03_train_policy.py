"""Train the zonal dispatch policy at demo scale and watch it improve.

Uses a reduced instance budget so the demo finishes in seconds; the
acceptance tests train on the full desk-scale budget of 1200 instances.  The
budget is the scenario's ``seeds.train_count``, so the reduced one is a
checked ``dataclasses.replace`` of the default scenario.
"""

from dataclasses import replace

import numpy as np

from sodfeeder import Scenario, train_rl

sc = Scenario()
sc = replace(sc, seeds=replace(sc.seeds, train_count=160))
trainer, stats = train_rl(sc, out_checkpoint="demo_policy.npz",
                          stats_path="demo_training_stats.csv", seed=0)

rewards = [row["mean_episode_reward"] for row in stats.rows]
print("updates: %d  (episodes: %d)"
      % (len(rewards), sc.ppo.n_envs * len(rewards)))
print("mean episode reward, 5-update windows:")
for i in range(0, len(rewards), 5):
    chunk = rewards[i:i + 5]
    bar = "#" * int(2 * (15 + np.mean(chunk)))
    print("  u%02d-%02d  %6.2f  %s" % (i, i + len(chunk) - 1,
                                       np.mean(chunk), bar))
print("value loss: %.3f -> %.3f"
      % (stats.rows[0]["value_loss"], stats.rows[-1]["value_loss"]))
print("checkpoint written to demo_policy.npz")
