"""Cost coefficients and feasibility limits for matching and evaluation,
and the checks that every config section runs when it is built."""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass

# s; the tolerance of every feasibility check: wait, ride, window and walk
EPS = 1e-6


def is_real(value):
    """A number for a ``float`` field: any real but a bool, since a YAML
    ``true`` in a number field is a slip, not 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# check_types keyword -> (the range's test, what a value outside it must do)
RANGES = {
    "positive": (lambda v: v > 0, "be positive"),
    "non_negative": (lambda v: v >= 0, "be non-negative"),
    "at_least_1": (lambda v: v >= 1, "be at least 1"),
    "closed_unit": (lambda v: 0 <= v <= 1, "lie in [0, 1]"),
    "half_open_unit": (lambda v: 0 <= v < 1, "lie in [0, 1)"),
    "open_unit": (lambda v: 0 < v < 1, "lie in (0, 1)"),
}


def check_types(config, prefix="", **ranges):
    """Check each field of ``config`` against its declared type and the
    range it is listed under, raising a ``ValueError`` that names it.

    An ``int`` field takes what ``operator.index`` accepts but a bool (numpy
    integers pass, 2.5 and True fail) and is stored as a plain int.  A
    ``float`` field takes a number but a bool (``is_real``), and a ``bool``
    field only True or False, not the truthy text ``"false"``.  Each keyword
    of ``ranges`` is a key of ``RANGES`` that lists the fields it holds, and
    NaN fails every range.  Last, a ``float`` field refuses +-inf.
    """
    floats = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("float", float):
            if not is_real(value):
                raise ValueError("%s%s must be a float, not %r"
                                 % (prefix, f.name, value))
            floats.append(f.name)
        if f.type in ("bool", bool) and not isinstance(value, bool):
            raise ValueError("%s%s must be a bool, not %r"
                             % (prefix, f.name, value))
        if f.type not in ("int", int):
            continue
        try:
            if isinstance(value, bool):
                raise TypeError
            object.__setattr__(config, f.name, operator.index(value))
        except TypeError:
            raise ValueError("%s%s must be an integer, not %r"
                             % (prefix, f.name, value)) from None
    for kind, names in ranges.items():
        test, must = RANGES[kind]
        for name in names:
            if not test(getattr(config, name)):
                raise ValueError("%s%s must %s" % (prefix, name, must))
    for name in floats:
        if math.isinf(getattr(config, name)):
            raise ValueError("%s%s must be finite, not %r"
                             % (prefix, name, getattr(config, name)))


@dataclass(frozen=True)
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

    def __post_init__(self):
        check_types(self, "coeffs.", non_negative=tuple(vars(self)))

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


@dataclass(frozen=True)
class FeasibilityLimits:
    max_wait: float = 900.0       # s, pickup - request time
    detour_factor: float = 2.5    # ride time <= factor * direct + detour_slack
    detour_slack: float = 300.0   # s
    flex_window: float = 1200.0   # s reserved for the flexible-route portion

    def __post_init__(self):
        check_types(self, "limits.", positive=tuple(vars(self)))

    def max_ride(self, direct_time):
        return self.detour_factor * direct_time + self.detour_slack
