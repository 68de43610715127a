"""Independent line-by-line interpreters of the two scheduling procedures.

Deliberately coded apart from the library (comparator-driven insertion
sort, literal queue lists) so the main implementations are checked against
a second reading of the same pseudocode, not against themselves.
"""

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
