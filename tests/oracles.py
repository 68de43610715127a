"""Independent oracles for the library's procedures.

The scheduling interpreters are coded apart from the library
(comparator-driven insertion sort, literal queue lists) so the main
implementations are checked against a second reading of the same
pseudocode, not against themselves. The GRU oracles are a nine-tensor
reference layer with the original per-gate arithmetic, and central finite
differences of the network output.
"""

import numpy as np

from dctherm.gru import PARAM_NAMES
from dctherm.thermal import ThermalClass


def fits(task, residual):
    """A task fits a VM when every residual covers its demand."""
    mips, ram, bw = residual
    return (task.mips_requested <= mips and task.ram_mb <= ram
            and task.bandwidth_bps_required <= bw)


def oracle_sort(items, vm, decreasing):
    lst = list(items)
    if vm:
        # stable sort by increasing energy, then recurse for the
        # utilization ordering (the recursive call keeps the direction)
        lst = sorted(lst, key=lambda it: it.e_total_w)
        return oracle_sort(lst, False, decreasing)

    def precedes(a, b):
        ka = (a.util.resource, a.util.memory_pct, a.util.disk_pct,
              a.util.network_pct)
        kb = (b.util.resource, b.util.memory_pct, b.util.disk_pct,
              b.util.network_pct)
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
