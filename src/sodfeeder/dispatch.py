"""The four control types: fixed route, SoD, nominal zonal and RL zonal.

Baseline policies dispatch on fixed headways.  Zonal policies keep a reserved
sub-fleet on regular all-zone cycles (the minimum-service override) while the
controllable sub-fleet is driven either by a fixed zone rotation (nominal) or
by an external action stream (RL).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .costs import check_types
from .fleet import _AT_TERMINUS, FleetClass


class PolicyKind(Enum):
    FIXED_ROUTE = "fixed_route"
    SOD = "sod"
    NOMINAL_ZONAL = "nominal_zonal"
    RL_ZONAL = "rl_zonal"

    @property
    def split_fleet(self):
        return self in (PolicyKind.NOMINAL_ZONAL, PolicyKind.RL_ZONAL)

    @property
    def fixed_only(self):
        return self is PolicyKind.FIXED_ROUTE


@dataclass(frozen=True)
class DispatchConfig:
    full_headway: float = 300.0       # FixedRoute / SoD departures
    reserved_headway: float = 600.0   # minimum-service override period
    nominal_period: float = 600.0     # controllable departures, NominalZonal
    nominal_offset: float = 300.0     # offset from the reserved departures

    def __post_init__(self):
        check_types(self, "dispatch.", positive=(
            "full_headway", "reserved_headway", "nominal_period"),
            non_negative=("nominal_offset",))


class DispatchController:
    """Per-run dispatch state for one world."""

    def __init__(self, world, kind, config):
        self.world = world
        self.kind = kind
        self.config = config
        self._full_due = 0.0
        self._reserved_due = 0.0
        self._nominal_due = self.config.nominal_offset
        self._nominal_next_zone = 1
        # resolved once, for the same reason: baseline_dispatch runs every
        # step
        self._headway_only = kind in (PolicyKind.FIXED_ROUTE, PolicyKind.SOD)
        self._nominal = kind is PolicyKind.NOMINAL_ZONAL
        self._rl = kind is PolicyKind.RL_ZONAL

    def _dispatch(self, fleet_class, z, source):
        """Send the first free vehicle of ``fleet_class`` (of any, when
        None) on a cycle with zone assignment z; False when none is free."""
        w = self.world
        for v in w.vehicles:
            if v.status is _AT_TERMINUS and (fleet_class is None
                                             or v.fleet_class is fleet_class):
                w.dispatch_vehicle(v.id, z)
                w.dispatch_log.append((w.step_k, v.id, source, z))
                return True
        return False

    def baseline_dispatch(self):
        """Run the headway-based departures due at the current time."""
        w = self.world
        if self._headway_only:
            while w.now >= self._full_due - 1e-9:
                if not self._dispatch(None, 0, "baseline"):
                    w.lateness_skips += 1
                self._full_due += self.config.full_headway
            return

        # zonal kinds: the reserved-fleet override
        while w.now >= self._reserved_due - 1e-9:
            if not self._dispatch(FleetClass.RESERVED, 0, "override"):
                w.lateness_skips += 1
            self._reserved_due += self.config.reserved_headway

        if self._nominal:
            while w.now >= self._nominal_due - 1e-9:
                if not self._dispatch(FleetClass.CONTROLLABLE,
                                      self._nominal_next_zone, "baseline"):
                    w.lateness_skips += 1
                self._nominal_next_zone = 3 - self._nominal_next_zone
                self._nominal_due += self.config.nominal_period

    def apply_action(self, action):
        """RL action: 0-2 dispatch a controllable vehicle with that zone
        semantics, 3 holds.  Degrades to a no-op when no vehicle is free.
        Every valid action, hold or not, is recorded in
        ``world.rl_actions``."""
        if not self._rl:
            raise ValueError("actions only apply to the RL zonal policy")
        if action not in (0, 1, 2, 3):
            raise ValueError("action must be in {0, 1, 2, 3}")
        self.world.rl_actions.append(action)
        return action != 3 and self._dispatch(FleetClass.CONTROLLABLE, action,
                                              "rl")
