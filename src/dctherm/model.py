"""Domain types: hosts, VMs, workloads, datacenter configuration.

Spec objects (HostSpec, VmSpec, configs) are frozen value objects; the
mutable *State* companions exist only inside the engine's single-threaded
step loop. Time is integer seconds and the engine advances by whole
intervals, so step counts are exact integer divisions.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import sys
import types
import typing
from collections import namedtuple
from dataclasses import dataclass, field

from .energy import PowerParams
from .errors import InvalidConfig, IoError
from .scheduler import registered_policies
from .thermal import MODES, ThermalClass, ThermalParams


class UtilizationSnapshot(namedtuple(
        "UtilizationSnapshot", "resource memory_pct disk_pct network_pct")):
    """Point-in-time utilization of one VM.

    ``resource`` is a fraction in [0, 1]; the other three are percents in
    [0, 100]. Units are fixed per field to match the formulas that produce
    them, so conversions stay explicit. A checked tuple: the engine builds
    one per VM whose reservations changed, on every step.
    """

    __slots__ = ()

    def __new__(cls, resource=0.0, memory_pct=0.0, disk_pct=0.0,
                network_pct=0.0):
        if not 0.0 <= resource <= 1.0:
            raise InvalidConfig("resource", "fraction must be in [0, 1]")
        if not 0.0 <= memory_pct <= 100.0:
            raise InvalidConfig("memory_pct", "percent must be in [0, 100]")
        if not 0.0 <= disk_pct <= 100.0:
            raise InvalidConfig("disk_pct", "percent must be in [0, 100]")
        if not 0.0 <= network_pct <= 100.0:
            raise InvalidConfig("network_pct", "percent must be in [0, 100]")
        return tuple.__new__(cls, (resource, memory_pct, disk_pct, network_pct))


# Most cores a host may declare: well above any two-socket server, and low
# enough that the power phase's per-core sum stays small.
MAX_CORES = 4096


@dataclass(frozen=True)
class HostSpec:
    id: str
    cores: int = 4
    mips_per_core: float = 2000.0
    ram_mb: float = 8192.0
    bandwidth_bps: float = 1e9
    thermal: ThermalParams = field(default_factory=ThermalParams)
    power: PowerParams = field(default_factory=PowerParams)

    def __post_init__(self):
        if not 1 <= self.cores <= MAX_CORES:
            raise InvalidConfig("cores", f"must be in [1, {MAX_CORES}]")
        for name in ("mips_per_core", "ram_mb", "bandwidth_bps"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(name, "must be > 0")

    @property
    def total_mips(self):
        return self.cores * self.mips_per_core


@dataclass
class HostState:
    """Runtime view of one physical machine.

    The engine builds each host with ``dynamic_w`` at utilization 0; its
    power phase writes ``cpu_util``, ``reserved_mips`` and both draws
    together, for a host only when its VM list or one of its VMs' loads
    changed, so ``dynamic_w`` is always the dynamic draw at ``cpu_util``.
    The next step's VM refresh reads those two.
    """

    spec: HostSpec
    current_temp_c: float
    placed_vms: list = field(default_factory=list)
    power_w: float = 0.0          # total draw (all seven leaves)
    dynamic_w: float = 0.0        # dynamic processor draw, feeds the RC model
    cpu_util: float = 0.0         # CPU utilization both draws were taken at
    reserved_mips: float = 0.0    # its VMs' reserved MIPS, shared out by MIPS
    temp_inputs: tuple | None = None   # (dynamic_w, start temperature) and
    temp_result_c: float = 0.0    # the result of the last temperature step

    def __post_init__(self):
        self.id = self.spec.id    # a plain attribute: read without a call


@dataclass(frozen=True)
class VmSpec:
    id: str
    mips: float = 500.0
    ram_mb: float = 1024.0
    bandwidth_bps: float = 1e8
    host_id: str | None = None

    def __post_init__(self):
        for name in ("mips", "ram_mb", "bandwidth_bps"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(name, "must be > 0")


@dataclass
class VmState:
    """Runtime view of one virtual machine."""

    spec: VmSpec
    host_id: str | None = None
    util: UtilizationSnapshot = field(default_factory=UtilizationSnapshot)
    thermal_class: ThermalClass = ThermalClass.UNCLASSIFIED
    delta_t_c: float | None = None  # predicted host temperature change
    e_total_w: float = 0.0          # VM's share of host power, sort key
    walk_key: tuple | None = None   # mapper sort key + config index
    reserved_mips: float = 0.0
    reserved_ram_mb: float = 0.0
    reserved_bw_bps: float = 0.0
    paused_until_s: float = 0.0     # migration downtime window end

    def __post_init__(self):
        self.id = self.spec.id    # a plain attribute: read without a call


@dataclass(slots=True)
class Workload:
    """One submitted task (instruction length plus resource demands).
    Slotted: a run holds every pending and running task, so each is a
    compact record with no per-instance dict."""

    id: str
    length_mi: float
    mips_requested: float
    file_size_mb: float = 300.0
    output_size_mb: float = 300.0
    ram_mb: float = 256.0
    cost_cd: float = 4.0
    arrival_s: int = 0
    assigned_vm: str | None = None
    start_s: float | None = None
    finish_s: float | None = None
    remaining_mi: float = None

    def __post_init__(self):
        if self.length_mi <= 0:
            raise InvalidConfig("length_mi", "must be > 0")
        if self.mips_requested <= 0:
            raise InvalidConfig("mips_requested", "must be > 0")
        if self.arrival_s < 0:
            raise InvalidConfig("arrival_s", "must be >= 0")
        if self.remaining_mi is None:
            self.remaining_mi = self.length_mi

    @property
    def nominal_runtime_s(self):
        """Ideal runtime at fully granted requested MIPS."""
        return self.length_mi / self.mips_requested


@dataclass(frozen=True)
class WorkloadGenConfig:
    """Synthetic workload distribution (uniform draws over fixed ranges).

    ``count`` spreads that many arrivals over the horizon (the per-interval
    rate is count / step_count); ``lambda_per_interval`` sets the rate
    directly and wins when both are given.
    """

    count: int | None = None
    lambda_per_interval: float | None = None
    length_base_mi: float = 10000.0
    length_scale: tuple[float, float] = (1.10, 1.30)
    file_base_mb: float = 300.0
    file_scale: tuple[float, float] = (1.15, 1.40)
    output_base_mb: float = 300.0
    output_scale: tuple[float, float] = (1.15, 1.50)
    cost_range: tuple[float, float] = (3.0, 5.0)
    mips_range: tuple[float, float] = (100.0, 500.0)
    ram_range: tuple[float, float] = (100.0, 500.0)

    def __post_init__(self):
        if self.count is not None and self.count < 0:
            raise InvalidConfig("count", "must be >= 0")
        if self.lambda_per_interval is not None and self.lambda_per_interval < 0:
            raise InvalidConfig("lambda_per_interval", "must be >= 0")
        for name in ("length_scale", "file_scale", "output_scale",
                     "cost_range", "mips_range", "ram_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidConfig(name, "range must be (low, high)")
            if not float(hi) - float(lo) <= sys.float_info.max:
                raise InvalidConfig(name, "range width must be finite")
        # Every drawn task must be valid: a positive length and MIPS demand,
        # no negative RAM or file size.
        for name, low, reason in (
                ("length_base_mi", self.length_base_mi, "must be > 0"),
                ("length_scale", self.length_scale[0], "low end must be > 0"),
                ("mips_range", self.mips_range[0], "low end must be > 0")):
            if low <= 0:
                raise InvalidConfig(name, reason)
        for name, low, reason in (
                ("ram_range", self.ram_range[0], "low end must be >= 0"),
                ("file_base_mb", self.file_base_mb, "must be >= 0"),
                ("file_scale", self.file_scale[0], "low end must be >= 0"),
                ("output_base_mb", self.output_base_mb, "must be >= 0"),
                ("output_scale", self.output_scale[0], "low end must be >= 0")):
            if low < 0:
                raise InvalidConfig(name, reason)


@dataclass(frozen=True)
class DataCenterConfig:
    hosts: tuple[HostSpec, ...] = ()
    vms: tuple[VmSpec, ...] = ()
    interval_s: int = 300
    horizon_s: int = 172800
    seed: int = 1
    policy: str = "thermal"
    thermal_mode: str = "literal"
    sla_slack: float = 0.10
    replicates: int = 1
    workload: WorkloadGenConfig | None = None
    trace_dir: str | None = None   # per-VM CPU utilization traces drive load

    @property
    def step_count(self):
        return self.horizon_s // self.interval_s


# Largest arrival rate per interval the engine's Poisson draw can take: above
# it exp(-rate) underflows and the inversion walk cannot start.
MAX_ARRIVAL_RATE = 700


def derive_lambda(cfg):
    """Arrival rate per interval: explicit rate wins, else a configured
    total count spread evenly over the horizon's steps."""
    wl = cfg.workload
    if wl is None:
        return 0.0
    if wl.lambda_per_interval is not None:
        return wl.lambda_per_interval
    if wl.count is not None:
        return wl.count / cfg.step_count
    return 0.0


def validate_config(cfg):
    """Check every invariant and return the config (defaults are filled by
    construction). Raises InvalidConfig naming the offending field."""
    if int(cfg.interval_s) != cfg.interval_s or cfg.interval_s <= 0:
        raise InvalidConfig("interval_s", "must be a positive integer")
    if int(cfg.horizon_s) != cfg.horizon_s or cfg.horizon_s <= 0:
        raise InvalidConfig("horizon_s", "must be a positive integer")
    if cfg.horizon_s % cfg.interval_s != 0:
        raise InvalidConfig("horizon_s", "must be a multiple of interval_s")
    if not 0 <= cfg.seed < 2 ** 64:
        raise InvalidConfig("seed", "must be in [0, 2**64)")
    if cfg.thermal_mode not in MODES:
        raise InvalidConfig("thermal_mode", f"must be one of {MODES}")
    if cfg.policy not in registered_policies():
        raise InvalidConfig("policy", f"unknown policy {cfg.policy!r}; "
                                      f"known: {registered_policies()}")
    if cfg.sla_slack < 0:
        raise InvalidConfig("sla_slack", "must be >= 0")
    if cfg.replicates < 1:
        raise InvalidConfig("replicates", "must be >= 1")
    lam = derive_lambda(cfg)
    if lam > MAX_ARRIVAL_RATE:
        raise InvalidConfig("workload", f"arrival rate {lam:g} per interval "
                                        f"exceeds {MAX_ARRIVAL_RATE}")

    if not cfg.hosts:
        raise InvalidConfig("hosts", "at least one host is required")
    host_ids = [h.id for h in cfg.hosts]
    if len(set(host_ids)) != len(host_ids):
        raise InvalidConfig("hosts", "duplicate host ids")
    vm_ids = [v.id for v in cfg.vms]
    if len(set(vm_ids)) != len(vm_ids):
        raise InvalidConfig("vms", "duplicate vm ids")

    # The initial placement must fit as the scheduler's _fits would have
    # it: in MIPS and in RAM.
    mips = {h.id: 0.0 for h in cfg.hosts}
    ram = dict(mips)
    for vm in cfg.vms:
        if vm.host_id is None:
            continue
        if vm.host_id not in mips:
            raise InvalidConfig("vms", f"vm {vm.id} references unknown host {vm.host_id}")
        mips[vm.host_id] += vm.mips
        ram[vm.host_id] += vm.ram_mb
    for host in cfg.hosts:
        if mips[host.id] > host.total_mips:
            raise InvalidConfig(
                "vms", f"host {host.id} over-committed: "
                       f"{mips[host.id]} MIPS reserved > {host.total_mips}")
        if ram[host.id] > host.ram_mb:
            raise InvalidConfig(
                "vms", f"host {host.id} over-committed: "
                       f"{ram[host.id]} MB of RAM reserved > {host.ram_mb}")
    return cfg


def default_datacenter(n_hosts=4, n_vms=12, **overrides):
    """The reference small datacenter: hosts with 4 cores x 2000 MIPS, 8 GB
    and 1 Gbit/s; VMs with 500 MIPS, 1 GB and 100 Mbit/s, spread round-robin."""
    hosts = tuple(HostSpec(id=f"pm-{i}") for i in range(n_hosts))
    vms = tuple(
        VmSpec(id=f"vm-{i}", host_id=f"pm-{i % n_hosts}") for i in range(n_vms))
    return validate_config(DataCenterConfig(hosts=hosts, vms=vms, **overrides))


# ---------------------------------------------------------------------------
# JSON serialization. The dataclass annotations are the schema: one walk
# loads a config and its mirror writes it back.
# ---------------------------------------------------------------------------

@functools.cache
def _schema(cls):
    """{field: (type, required)}; cached, as resolving hints is slow."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def _from_json(tp, value, path):
    """Build a value of annotated type ``tp`` from parsed JSON. Unknown or
    missing keys, wrong JSON types and non-finite numbers raise
    InvalidConfig naming the path (``hosts[0].thermal.r_kw``)."""
    where = path or "config"
    if tp in (str, int, float):
        # An int stays an int (config_digest); NaN, inf, huge ints fail.
        if not (isinstance(value, (int, float) if tp is float else tp)
                and not isinstance(value, bool)
                and (tp is not float or abs(value) <= sys.float_info.max)):
            kind = {str: "a string", int: "an integer",
                    float: "a finite number"}[tp]
            raise InvalidConfig(where, f"expected {kind}, got {value!r:.40}")
        return value
    if dataclasses.is_dataclass(tp):
        if value == "default":     # the built-in parameter set
            value = {}
        if not isinstance(value, dict):
            raise InvalidConfig(where, "expected an object")
        schema = _schema(tp)
        unknown = value.keys() - schema.keys()
        if unknown:
            raise InvalidConfig(where, f"unknown keys {sorted(unknown)}")
        kwargs = {}
        for name, (sub_tp, required) in schema.items():
            sub = f"{path}.{name}" if path else name
            if name in value:
                kwargs[name] = _from_json(sub_tp, value[name], sub)
            elif required:
                raise InvalidConfig(sub, "required")
        try:
            return tp(**kwargs)
        except InvalidConfig as exc:
            at = f"{where}.{exc.field}" if exc.field in schema else where
            raise InvalidConfig(at, exc.reason) from exc
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:   # written X | None
        return None if value is None else _from_json(args[0], value, path)
    # tuple[X, ...] or tuple[X, Y]: the only annotation left.
    if not isinstance(value, (list, tuple)):
        raise InvalidConfig(where, "expected a list")
    item_types = args[:1] * len(value) if args[-1] is Ellipsis else args
    if len(value) != len(item_types):
        raise InvalidConfig(where, f"expected a list of {len(item_types)}")
    return tuple(_from_json(t, v, f"{path}[{i}]")
                 for i, (t, v) in enumerate(zip(item_types, value)))


def config_from_dict(data):
    """Validated DataCenterConfig from parsed JSON (README: Configuration
    file); any malformed value raises InvalidConfig naming its path."""
    return validate_config(_from_json(DataCenterConfig, data, ""))


@functools.cache
def _json_plan(cls):
    """A dataclass's field names in sorted order, one getter that reads
    them all (a tuple: every config class has two or more fields), and the
    positions of the fields that hold more than a leaf (a dataclass or a
    tuple); None for a class that is not a dataclass."""
    if not dataclasses.is_dataclass(cls):
        return None
    schema = _schema(cls)
    names = sorted(schema)
    leaves = (str, int, float, str | None, int | None, float | None)
    return names, operator.attrgetter(*names), [
        i for i, name in enumerate(names) if schema[name][0] not in leaves]


def _to_json(value):
    """A dataclass as a dict, keys in sorted order; a tuple as a list."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    plan = _json_plan(type(value))
    if plan is None:
        return value
    names, get, nested = plan
    values = list(get(value))
    for i in nested:
        values[i] = _to_json(values[i])
    return dict(zip(names, values))


def config_to_dict(cfg):
    out = _to_json(cfg)
    # Absent rather than null, so recorded config digests still match.
    if cfg.workload is None:
        del out["workload"]
    return out


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:       # not JSON, or not UTF-8
        raise InvalidConfig("json", str(exc)) from exc
    return config_from_dict(data)


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_digest(cfg):
    """Stable hash of the full configuration, for run provenance. The
    dicts' keys are in sorted order already, and a fresh tree of dicts and
    lists has no cycles: neither ``sort_keys`` nor the circular check."""
    canon = json.dumps(config_to_dict(cfg), separators=(",", ":"),
                       check_circular=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


__all__ = [
    "DataCenterConfig", "HostSpec", "HostState", "MAX_CORES",
    "UtilizationSnapshot", "VmSpec", "VmState", "Workload",
    "WorkloadGenConfig", "config_digest", "config_from_dict",
    "config_to_dict", "default_datacenter", "load_config", "save_config",
    "validate_config",
]
