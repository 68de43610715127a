"""First-order (RC + inlet) CPU temperature model and VM thermal classes.

Two modes are supported for the temperature formula:

* ``literal``: T = P*R + T_inlet + T_initial * exp(-R*C). The exponent is a
  fixed constant, so the decay term never changes over time. This
  fixed-exponent form is the default.
* ``time-dependent``: T = P*R + T_inlet + (T_start - P*R - T_inlet)
  * exp(-dt/(R*C)), the first-order step response from the interval's
  start temperature; converges to the steady state P*R + T_inlet as dt grows.

Both modes are affine in P, so the temperature change (delta-T) a VM of
power P_vm adds does not depend on the host's own draw: it is P_vm*R in
literal mode and P_vm*R * (1 - exp(-dt/(R*C))) in time-dependent mode.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, InvalidConfig

MODE_LITERAL = "literal"
MODE_TIME_DEPENDENT = "time-dependent"
MODES = (MODE_LITERAL, MODE_TIME_DEPENDENT)


class ThermalClass(str, Enum):
    HOT = "hot"
    WARM = "warm"
    COLD = "cold"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class ThermalParams:
    """Host thermal constants.

    Defaults: the 79/70/29 C threshold triple from the reference studies,
    host thresholds theta_cl/theta_ch at the normal/overheating
    temperatures, and R*C chosen so the literal mode's fixed exponent is
    e^-1.

    The engine classifies every VM with the cutoffs of the first host only
    (``SimulationState.thresholds``): its theta_vl_c/theta_vh_c and the raw
    pair from its t_over/t_danger/t_normal. Each host's own values still
    drive its eviction (t_over_c), headroom and queue preference.
    """

    r_kw: float = 0.5          # thermal resistance, K/W
    c_jk: float = 2.0          # heat capacity, J/K
    t_inlet_c: float = 25.0    # cooling-supply inlet temperature
    t_initial_c: float = 17.0  # initial CPU temperature
    t_over_c: float = 79.0     # overheated host
    t_danger_c: float = 70.0   # overheating host
    t_normal_c: float = 29.0   # normal host
    theta_cl_c: float = 29.0   # low host threshold (normal temperature)
    theta_ch_c: float = 70.0   # high host threshold (overheating temperature)
    # Optional overrides for the VM-class cutoffs. The derived low cutoff
    # sits below any reachable delta-T under the default constants, which
    # would leave the cold class unused; overriding restores a usable
    # three-way split.
    theta_vl_c: float | None = None
    theta_vh_c: float | None = None

    def __post_init__(self):
        if self.r_kw <= 0:
            raise InvalidConfig("r_kw", "must be > 0")
        if self.c_jk <= 0:
            raise InvalidConfig("c_jk", "must be > 0")
        # Both temperature formulas divide by R*C, which can underflow to 0.
        if not self.r_kw * self.c_jk > 0:
            raise InvalidConfig("c_jk", "r_kw * c_jk must be > 0")
        if not (self.t_normal_c < self.t_danger_c < self.t_over_c):
            raise InvalidConfig(
                "thermal", "requires t_normal < t_danger < t_over")
        if self.theta_cl_c > self.theta_ch_c:
            raise InvalidConfig("theta_cl_c", "must be <= theta_ch_c")


@dataclass(frozen=True)
class VmThresholds:
    """Thermal-class cutoffs for a VM's predicted temperature change.

    ``raw_high_c``/``raw_low_c`` are the unmodified difference formulas
    (T_over - T_danger and T_normal/2 - T_danger); theta_low/theta_high are
    their min/max so the classifier always partitions correctly even when
    the raw pair comes out inverted.
    """

    theta_low_c: float
    theta_high_c: float
    raw_high_c: float = None
    raw_low_c: float = None

    def __post_init__(self):
        if self.theta_low_c > self.theta_high_c:
            raise InvalidConfig("theta_low_c", "must be <= theta_high_c")


def cpu_temperature(p_watts, tp, mode=MODE_LITERAL, dt_s=None, t_start_c=None):
    """CPU temperature of a host drawing ``p_watts`` dynamic power, after an
    interval of ``dt_s`` seconds that starts at ``t_start_c`` (default
    ``tp.t_initial_c``). Literal mode ignores ``dt_s`` and ``t_start_c``."""
    if p_watts < 0:
        raise DomainError("power must be >= 0")
    if mode not in MODES:
        raise DomainError(f"unknown thermal mode {mode!r}")
    steady = p_watts * tp.r_kw + tp.t_inlet_c
    if mode == MODE_LITERAL:
        return steady + tp.t_initial_c * math.exp(-tp.r_kw * tp.c_jk)
    if dt_s is None or dt_s <= 0:
        raise DomainError("time-dependent mode needs dt_s > 0")
    start = tp.t_initial_c if t_start_c is None else t_start_c
    return steady + (start - steady) * math.exp(-dt_s / (tp.r_kw * tp.c_jk))


def vm_delta_temperature(vm_power_w, tp, mode=MODE_LITERAL, dt_s=None):
    """Temperature change a VM drawing ``vm_power_w`` adds to a host with
    constants ``tp``: P_vm*R, times 1 - exp(-dt/(R*C)) in time-dependent mode."""
    if vm_power_w < 0:
        raise DomainError("vm power must be >= 0")
    if mode not in MODES:
        raise DomainError(f"unknown thermal mode {mode!r}")
    if mode == MODE_LITERAL:
        return vm_power_w * tp.r_kw
    if dt_s is None or dt_s <= 0:
        raise DomainError("time-dependent mode needs dt_s > 0")
    return vm_power_w * tp.r_kw * (1 - math.exp(-dt_s / (tp.r_kw * tp.c_jk)))


def vm_thresholds(tp):
    """Class cutoffs from the host constants.

    raw high = T_over - T_danger, raw low = T_normal/2 - T_danger; the
    returned thresholds are the min/max of the pair, unless the config
    overrides them explicitly.
    """
    raw_high = tp.t_over_c - tp.t_danger_c
    raw_low = 0.5 * tp.t_normal_c - tp.t_danger_c
    low = tp.theta_vl_c if tp.theta_vl_c is not None else min(raw_low, raw_high)
    high = tp.theta_vh_c if tp.theta_vh_c is not None else max(raw_low, raw_high)
    return VmThresholds(
        theta_low_c=min(low, high),
        theta_high_c=max(low, high),
        raw_high_c=raw_high,
        raw_low_c=raw_low,
    )


def classify_vm(delta_t_c, th):
    """Hot above the high cutoff, cold below the low one, warm on or
    between the boundaries (the extreme branches use strict comparisons)."""
    if delta_t_c > th.theta_high_c:
        return ThermalClass.HOT
    if delta_t_c < th.theta_low_c:
        return ThermalClass.COLD
    return ThermalClass.WARM
