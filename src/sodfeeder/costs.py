"""Cost coefficients and feasibility limits for matching and evaluation."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostCoefficients:
    """Monetary weights (US$).  Distance rates per km, time rates per hour;
    the request-satisfaction rewards are dimensionless 1e6 dominators."""

    gamma_o: float = 0.694       # $/vehicle-km
    gamma_t: float = 16.5        # $/ride-hour
    gamma_r: float = 1e6         # reward per satisfied request
    gamma_s: float = 1e6         # reward per request served at a fixed stop
    gamma_a: float = 33.0        # $/access-hour
    gamma_w: float = 24.75       # $/wait-hour
    gamma_v: float = 7.59        # $/vehicle-hour

    def validate(self):
        for name, v in vars(self).items():
            if v < 0:
                raise ValueError("%s must be non-negative" % name)

    # per-meter / per-second forms used internally
    @property
    def o_per_m(self):
        return self.gamma_o / 1000.0

    @property
    def t_per_s(self):
        return self.gamma_t / 3600.0

    @property
    def a_per_s(self):
        return self.gamma_a / 3600.0

    @property
    def w_per_s(self):
        return self.gamma_w / 3600.0

    @property
    def v_per_s(self):
        return self.gamma_v / 3600.0


@dataclass
class FeasibilityLimits:
    max_wait: float = 900.0       # s, pickup - request time
    detour_factor: float = 2.5    # ride time <= factor * direct + detour_slack
    detour_slack: float = 300.0   # s
    flex_window: float = 1200.0   # s reserved for the flexible-route portion

    def validate(self):
        if min(self.max_wait, self.detour_factor, self.detour_slack,
               self.flex_window) <= 0:
            raise ValueError("all feasibility limits must be positive")

    def max_ride(self, direct_time):
        return self.detour_factor * direct_time + self.detour_slack
