"""Independent oracles for the library's procedures.

The scheduling interpreters are coded apart from the library
(comparator-driven insertion sort, literal queue lists) so the main
implementations are checked against a second reading of the same
pseudocode, not against themselves. The workload generator's oracle
draws each task's six uniforms one scalar call at a time; the raw draws'
oracle is one ``rng.uniform`` call over the six ranges' low and high ends.
The telemetry synthesizer's oracle makes one ``rng.uniform`` call per
quantity and works on numpy arrays, record by record.
The config digest's oracle walks the dataclasses field by field and lets
``json.dumps`` sort the keys. The delta-T
oracle takes the difference of two temperature evaluations. The engine's
VM views and host figures are recomputed from scratch for every VM and
host, as the engine's refresh and power phase did before they worked only
on what changed. The GRU oracles are a nine-tensor reference layer with
the original per-gate arithmetic, and central finite differences of the
network output.
"""

import dataclasses
import hashlib
import json
from functools import reduce
from operator import add

import numpy as np

from dctherm import energy
from dctherm.energy import dynamic_power
from dctherm.errors import DomainError
from dctherm.gru import PARAM_NAMES
from dctherm.model import DataCenterConfig, Workload
from dctherm.predictor import FanModel, TelemetryRecord, fan_rpm, fan_rpm_band
from dctherm.thermal import ThermalClass, ThermalParams, cpu_temperature


def oracle_generate_workloads(wgcfg, rng, count, arrival_s=0, id_offset=0):
    """Six scalar uniform draws per workload, in the documented order
    (length, mips, file, output, ram, cost)."""
    out = []
    for i in range(count):
        length = wgcfg.length_base_mi * rng.uniform(*wgcfg.length_scale)
        mips = rng.uniform(*wgcfg.mips_range)
        file_mb = wgcfg.file_base_mb * rng.uniform(*wgcfg.file_scale)
        output_mb = wgcfg.output_base_mb * rng.uniform(*wgcfg.output_scale)
        ram = rng.uniform(*wgcfg.ram_range)
        cost = rng.uniform(*wgcfg.cost_range)
        out.append(Workload(
            id=f"wl-{id_offset + i}", length_mi=length, mips_requested=mips,
            file_size_mb=file_mb, output_size_mb=output_mb, ram_mb=ram,
            cost_cd=cost, arrival_s=arrival_s))
    return out


def oracle_uniform_draws(wgcfg, rng, count):
    """``count`` rows of the six uniforms (length, mips, file, output, ram,
    cost) from one ``rng.uniform`` call, as lists of floats."""
    ranges = (wgcfg.length_scale, wgcfg.mips_range, wgcfg.file_scale,
              wgcfg.output_scale, wgcfg.ram_range, wgcfg.cost_range)
    return rng.uniform([lo for lo, _ in ranges], [hi for _, hi in ranges],
                       size=(count, len(ranges))).tolist()


def oracle_fan_speeds(rpm, band, rng):
    """Five independent uniform draws in [rpm - band/2, rpm + band/2]."""
    if band < 0:
        raise DomainError("band must be >= 0")
    return rng.uniform(rpm - band / 2.0, rpm + band / 2.0, 5)


def oracle_synthesize_telemetry(n_servers, records_per_server, rng,
                                thermal=ThermalParams(),
                                dyn=energy.DynamicEnergyParams(),
                                fan=FanModel()):
    """Per server a uniform start, then per record a utilization walk
    step, utilization noise, temperature jitter and five fan speeds, each
    one ``rng.uniform`` call."""
    records = []
    for s in range(n_servers):
        utils = rng.uniform(20.0, 80.0, 4)
        for t in range(records_per_server):
            utils = np.clip(utils + rng.uniform(-6.0, 6.0, 4), 0.0, 100.0)
            noisy = np.clip(utils + rng.uniform(-fan.d_util_pct, fan.d_util_pct, 4),
                            0.0, 100.0)
            power = dynamic_power(noisy[2] / 100.0, dyn)
            temp = cpu_temperature(power, thermal)
            temp += rng.uniform(-fan.d_temp_c, fan.d_temp_c)
            avg = float(np.mean(noisy))
            rpm = fan_rpm(avg, temp, fan)
            band = fan_rpm_band(avg, temp, fan)
            fans = tuple(float(f) for f in oracle_fan_speeds(rpm, band, rng))
            records.append(TelemetryRecord(
                server_id=f"srv-{s}", timestamp=str(t),
                fan_rpm=fans, system_pct=float(noisy[0]),
                memory_pct=float(noisy[1]), cpu_pct=float(noisy[2]),
                io_pct=float(noisy[3]), cpu_temp_c=float(temp)))
    return records


def oracle_config_dict(value):
    """A config as JSON data, field by field: a dataclass as a dict in
    field order, a tuple as a list; the top-level workload is left out
    when it is None."""
    if isinstance(value, tuple):
        return [oracle_config_dict(v) for v in value]
    if dataclasses.is_dataclass(value):
        out = {f.name: oracle_config_dict(getattr(value, f.name))
               for f in dataclasses.fields(value)}
        if isinstance(value, DataCenterConfig) and value.workload is None:
            del out["workload"]
        return out
    return value


def oracle_config_digest(cfg):
    """sha256 of the config's JSON with keys sorted by ``json.dumps``."""
    canon = json.dumps(oracle_config_dict(cfg), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def oracle_vm_delta_temperature(vm_power_w, host_power_w, tp, mode, dt_s):
    """Temperature with the VM's power added to the host's draw, minus the
    temperature without it."""
    with_vm = cpu_temperature(host_power_w + vm_power_w, tp, mode, dt_s)
    return with_vm - cpu_temperature(host_power_w, tp, mode, dt_s)


def oracle_vm_views(state):
    """Every VM's utilization (resource, memory, disk, network) and power
    share, recomputed from its reservations, its host and the hosts'
    figures of the last power phase: {vm id: (utilization, e_total_w)}."""
    fallback = min(state.hosts, key=lambda h: (h.cpu_util, h.id))
    views = {}
    for vm_id, vm in state.vms.items():
        spec = vm.spec
        trace = state.traces.get(vm_id)
        if trace is not None:
            resource = trace.samples[state.clock_s // trace.spacing_s
                                     % len(trace.samples)] / 100.0
        elif vm.reserved_mips:
            resource = min(1.0, max(0.0, vm.reserved_mips / spec.mips))
        else:
            resource = 0.0
        memory_pct = min(100.0, max(0.0, 100.0 * vm.reserved_ram_mb
                                    / spec.ram_mb)) \
            if vm.reserved_ram_mb else 0.0
        network_pct = min(100.0, max(0.0, 100.0 * vm.reserved_bw_bps
                                     / spec.bandwidth_bps)) \
            if vm.reserved_bw_bps else 0.0
        share = resource if vm.host_id else 1.0
        e_total_w = 0.0
        if share:
            host = state.host_by_id[vm.host_id] if vm.host_id else fallback
            u_share = spec.mips * share / host.spec.total_mips
            with_vm = energy.dynamic_power(
                min(1.0, host.cpu_util + u_share), host.spec.power.dyn)
            e_total_w = max(0.0, with_vm - host.dynamic_w)
        views[vm_id] = ((resource, memory_pct, vm.util.disk_pct,
                         network_pct), e_total_w)
    return views


def oracle_host_power_w(p, processor, busy, cores, u):
    """A host's total draw: the seven leaves, processor first and cooling
    last, added left to right, with the processor leaf added core by core.
    The processor works when ``processor`` is set, the other computing
    subsystems when ``busy`` is; an idle subsystem keeps its idle draw, or
    nothing."""
    if processor:
        core_w = dynamic_power(u, p.dyn) / cores
        for static_w in (p.short_circuit_w, p.leakage_w, p.idle_w):
            core_w += static_w
    else:
        core_w = p.idle_w
    s, m, n, e, c = p.storage, p.memory, p.network, p.extra, p.cooling
    terms = [
        [core_w] * cores,
        [s.read_w, s.write_w, s.idle_w] if busy else [s.idle_w],
        [m.sram_w, m.dram_w] if busy else [0.0],
        [n.router_w, n.gateway_w, n.lan_card_w, n.switch_w]
        if busy else [0.0],
        [e.motherboard_w, e.connector_w * e.ports] if busy else [0.0],
        [c.ac_w, c.compressor_w, c.fan_w],
    ]
    total = 0.0
    for leaf in terms:
        leaf_w = 0.0
        for term in leaf:
            leaf_w += term
        total += leaf_w
    return total


def oracle_host_figures(state, host):
    """One host's power-phase figures from its VMs as they stand:
    (CPU utilization, reserved MIPS, total draw, dynamic draw)."""
    vms = [state.vms[v] for v in host.placed_vms]
    # Left to right from the int 0, whatever the interpreter's sum() does.
    u = min(1.0, reduce(add, [vm.util.resource * vm.spec.mips for vm in vms],
                        0) / host.spec.total_mips)
    busy = any(vm.reserved_mips > 0 for vm in vms)
    return (u, reduce(add, [vm.reserved_mips for vm in vms], 0),
            oracle_host_power_w(host.spec.power, bool(vms), busy,
                                host.spec.cores, u),
            dynamic_power(u, host.spec.power.dyn))


def fits(task, residual):
    """A task fits a VM when every residual covers its demand."""
    mips, ram, bw = residual
    return (task.mips_requested <= mips and task.ram_mb <= ram
            and task.bandwidth_bps_required <= bw)


def oracle_sort(items, vm, decreasing):
    """VMs by their utilization snapshot (``.util``) after a stable sort by
    increasing energy; task views by their four demand fields."""
    lst = list(items)
    if vm:
        lst = sorted(lst, key=lambda it: it.e_total_w)

    def chain(it):
        d = it.util if vm else it
        return (d.resource, d.memory_pct, d.disk_pct, d.network_pct)

    def precedes(a, b):
        ka, kb = chain(a), chain(b)
        return ka > kb if decreasing else ka < kb

    out = []
    for item in lst:  # stable insertion sort driven by the comparator
        idx = len(out)
        while idx > 0 and precedes(item, out[idx - 1]):
            idx -= 1
        out.insert(idx, item)
    return out


def oracle_map(views, vms):
    ordered_tasks = oracle_sort(views, False, False)
    ordered_vms = oracle_sort(vms, True, True)
    residual = {vm.id: [vm.spec.mips - vm.reserved_mips,
                        vm.spec.ram_mb - vm.reserved_ram_mb,
                        vm.spec.bandwidth_bps - vm.reserved_bw_bps]
                for vm in vms}
    assigned, unassigned = [], []
    for t in ordered_tasks:
        for v in ordered_vms:
            if fits(t, residual[v.id]):
                residual[v.id][0] -= t.mips_requested
                residual[v.id][1] -= t.ram_mb
                residual[v.id][2] -= t.bandwidth_bps_required
                assigned.append((t.id, v.id))
                break
        else:
            unassigned.append(t.id)
    return assigned, unassigned


def oracle_round(hosts, vms, th, tie_break="id"):
    """Classification loop first, then the host-side selection branches
    with empty-queue fallbacks; one VM per host per pass."""
    q = {ThermalClass.HOT: [], ThermalClass.WARM: [], ThermalClass.COLD: []}
    for vm in vms:
        if vm.delta_t_c > th.theta_high_c:
            q[ThermalClass.HOT].append(vm)
        elif vm.delta_t_c < th.theta_low_c:
            q[ThermalClass.COLD].append(vm)
        else:
            q[ThermalClass.WARM].append(vm)
    eff = {h.id: h.current_temp_c for h in hosts}
    free = {h.id: [h.spec.total_mips, h.spec.ram_mb] for h in hosts}
    actions = []
    while q[ThermalClass.HOT] or q[ThermalClass.WARM] or q[ThermalClass.COLD]:
        progress = False
        order = sorted(hosts,
                       key=lambda h: (-(h.spec.thermal.t_over_c - eff[h.id]),
                                      h.id))
        for host in order:
            tp = host.spec.thermal
            if eff[host.id] > tp.theta_ch_c:
                pref = [ThermalClass.COLD, ThermalClass.WARM, ThermalClass.HOT]
            elif eff[host.id] < tp.theta_cl_c:
                pref = [ThermalClass.HOT, ThermalClass.WARM, ThermalClass.COLD]
            elif eff[host.id] >= (tp.theta_cl_c + tp.theta_ch_c) / 2:
                pref = [ThermalClass.WARM, ThermalClass.COLD, ThermalClass.HOT]
            else:
                pref = [ThermalClass.WARM, ThermalClass.HOT, ThermalClass.COLD]
            source = next((c for c in pref if q[c]), None)
            if source is None:
                continue
            pick = None
            for vm in q[source]:
                if (vm.spec.mips <= free[host.id][0]
                        and vm.spec.ram_mb <= free[host.id][1]):
                    pick = vm
                    break
            if pick is None:
                continue
            q[source].remove(pick)
            free[host.id][0] -= pick.spec.mips
            free[host.id][1] -= pick.spec.ram_mb
            eff[host.id] += pick.delta_t_c
            if pick.host_id is None:
                kind = "allocate"
            elif pick.host_id != host.id:
                kind = "migrate"
            else:
                kind = "none"
            actions.append((kind, pick.id, host.id))
            progress = True
        if not progress:
            break
    return actions


# ---------------------------------------------------------------------------
# GRU: nine-tensor reference layer and gradient oracles.
# ---------------------------------------------------------------------------

def reference_sigmoid(x):
    # Piecewise form avoids exp overflow for large negative inputs.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ReferenceGruLayer:
    """One gated recurrent layer with nine separate weight tensors and the
    per-gate arithmetic: the layer's original form, kept as the reference
    for the gate-stacked library layer. Copies the weights of ``layer``."""

    def __init__(self, layer):
        self.input_size = layer.input_size
        self.hidden_size = layer.hidden_size
        for name in PARAM_NAMES:
            setattr(self, name, np.array(getattr(layer, name)))

    def forward(self, xs, h0=None):
        T, batch, nin = xs.shape
        hs = np.empty((T + 1, batch, self.hidden_size))
        hs[0] = 0.0 if h0 is None else h0
        zs = np.empty((T, batch, self.hidden_size))
        rs = np.empty_like(zs)
        cs = np.empty_like(zs)
        ss = np.empty_like(zs)
        for t in range(T):
            x, h = xs[t], hs[t]
            zs[t] = reference_sigmoid(x @ self.w_z + h @ self.u_z + self.b_z)
            rs[t] = reference_sigmoid(x @ self.w_r + h @ self.u_r + self.b_r)
            ss[t] = rs[t] * h
            cs[t] = np.tanh(x @ self.w_c + ss[t] @ self.u_c + self.b_c)
            hs[t + 1] = (1.0 - zs[t]) * h + zs[t] * cs[t]
        cache = (xs, hs, zs, rs, cs, ss)
        return hs[1:], cache

    def backward(self, cache, grad_out):
        xs, hs, zs, rs, cs, ss = cache
        T = xs.shape[0]
        grads = {name: np.zeros_like(getattr(self, name)) for name in PARAM_NAMES}
        grad_xs = np.empty_like(xs)
        gh = np.zeros_like(hs[0])
        for t in range(T - 1, -1, -1):
            g = grad_out[t] + gh
            x, h, z, r, c, s = xs[t], hs[t], zs[t], rs[t], cs[t], ss[t]
            ga_c = g * z * (1.0 - c * c)
            gs = ga_c @ self.u_c.T
            ga_r = gs * h * r * (1.0 - r)
            ga_z = g * (c - h) * z * (1.0 - z)
            grads["w_z"] += x.T @ ga_z
            grads["u_z"] += h.T @ ga_z
            grads["b_z"] += ga_z.sum(axis=0)
            grads["w_r"] += x.T @ ga_r
            grads["u_r"] += h.T @ ga_r
            grads["b_r"] += ga_r.sum(axis=0)
            grads["w_c"] += x.T @ ga_c
            grads["u_c"] += s.T @ ga_c
            grads["b_c"] += ga_c.sum(axis=0)
            grad_xs[t] = ga_z @ self.w_z.T + ga_r @ self.w_r.T + ga_c @ self.w_c.T
            gh = (g * (1.0 - z) + gs * r
                  + ga_z @ self.u_z.T + ga_r @ self.u_r.T)
        return grads, grad_xs


def finite_difference_gradients(model, xs, step=1e-5):
    """Central finite differences of the summed normalized output with
    respect to every weight tensor. Slow; for verification only."""
    def objective():
        return float(np.sum(model.forward_normalized(xs)))

    out = {}
    for name, param in model.iter_params():
        if name == "b_out":
            model.b_out += step
            hi = objective()
            model.b_out -= 2 * step
            lo = objective()
            model.b_out += step
            out[name] = (hi - lo) / (2 * step)
            continue
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            hi = objective()
            param[idx] = orig - step
            lo = objective()
            param[idx] = orig
            grad[idx] = (hi - lo) / (2 * step)
            it.iternext()
        out[name] = grad
    return out


def analytic_gradients(model, xs):
    """Analytic counterpart of finite_difference_gradients (same keys)."""
    y, cache = model.forward_normalized(xs, keep_cache=True)
    grads = model.backward(cache, np.ones_like(y))
    return {name: g for (name, _), g in zip(model.iter_params(), grads)}
