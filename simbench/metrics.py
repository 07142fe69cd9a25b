"""Metric arithmetic of the simulation benchmark.

Pure functions over the JSON records the compiled driver prints, so the
benchmark's own tests can pin every formula with fixed inputs.  run.py does
the process handling; everything it reports is computed here.
"""

import math
import re
from statistics import median, quantiles

# Metric names: a letter or digit first, then letters, digits, '_', '.', '-';
# at most 64 characters.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Units: at most 16 of letters, digits, '_', '/', '%', '.', '-'.
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

OP_BYTES = 16  # sizeof(ascoma::Op): one kind byte, padding, a 64-bit arg

# Seconds simbench_driver's calibration loop (400k probes of a cache model,
# rep.cc) took on the 4-core Xeon host the benchmark was defined on, when
# that host was quiet (lower quartile of 48 timings).
CALIB_REF_S = 0.0162

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_rate_mcps", "Mcycle/s"),
    ("access_rate_maps", "access/us"),
    ("peak_rss_mb", "MiB"),
]

# End-to-end metrics that are rates: their fast end is the high one.
RATES = {"sim_rate_mcps", "access_rate_maps"}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("workload.ops", "count"),
    ("workload.stream_bytes", "B"),
    ("workload.gen_ns_per_op", "ns"),
    ("workload.est_share", "ratio"),
    ("net.messages", "count"),
    ("net.messages_per_access", "ratio"),
    ("net.deliver_ns", "ns"),
    ("net.est_share", "ratio"),
    ("proto.remote_fetches", "count"),
    ("proto.invalidations", "count"),
    ("proto.forwards", "count"),
    ("proto.writebacks", "count"),
    ("proto.dir_ns", "ns"),
    ("proto.access_ns", "ns"),
    ("proto.est_share", "ratio"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.rac_hits", "count"),
    ("mem.local_misses", "count"),
    ("mem.l1_ns", "ns"),
    ("mem.rac_ns", "ns"),
    ("mem.dram_ns", "ns"),
    ("mem.bus_ns", "ns"),
    ("mem.est_share", "ratio"),
    ("vm.page_faults", "count"),
    ("vm.upgrades", "count"),
    ("vm.downgrades", "count"),
    ("vm.lines_flushed", "count"),
    ("vm.daemon_runs", "count"),
    ("vm.reclaim_useful", "ratio"),
    ("vm.page_cache_ns", "ns"),
    ("vm.daemon_ns_per_page", "ns"),
    ("vm.k_overhd_share", "ratio"),
    ("vm.est_share", "ratio"),
    ("arch.threshold_raises", "count"),
    ("arch.remaps_suppressed", "count"),
    ("arch.relocation_useful", "ratio"),
    ("arch.policy_ns", "ns"),
    ("arch.est_share", "ratio"),
    ("sim.lock_acquisitions", "count"),
    ("sim.barrier_episodes", "count"),
    ("sim.pick_ns", "ns"),
    ("sim.sync_share", "ratio"),
    ("sim.est_share", "ratio"),
    ("core.run_ns_per_access", "ns"),
    ("core.loop_share", "ratio"),
    ("core.sweep_busy_ratio", "ratio"),
    ("model.ascoma_rel_cc_max", "ratio"),
    ("model.ascoma_rel_best_gmean", "ratio"),
    ("trace.overhead_s", "s"),
]

LAYERS = ["workload", "net", "proto", "mem", "vm", "arch", "sim"]


def valid_name(name):
    return bool(_NAME.fullmatch(name))


def valid_unit(unit):
    return bool(_UNIT.fullmatch(unit))


def ratio(num, den):
    """num / den, or 0 when the base is 0 (no work is not an error)."""
    return num / den if den else 0.0


def gmean(values):
    """Geometric mean of positive values; 0 for an empty list."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean of a value <= 0")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def est_share(count, ns_per_op, run_s):
    """Share of simulation host time a layer accounts for: `count` calls
    at `ns_per_op` each, over `run_s` seconds of Machine::run."""
    return ratio(count * ns_per_op * 1e-9, run_s)


def host_speed(rep):
    """How fast the host ran during a repetition, relative to the host the
    benchmark was defined on: CALIB_REF_S over the repetition's own timing
    of the same calibration loop.  Below 1 on a slowed or shared host."""
    return CALIB_REF_S / rep["calib_s"]


def rep_end_to_end(rep):
    """End-to-end values of one repetition record.  Host times are scaled
    by host_speed, to the seconds they would take at the reference speed,
    so a host that slows down for a while does not move them."""
    accesses = rep["counts"]["accesses"]
    speed = host_speed(rep)
    run_s = rep["run_s"] * speed
    return {
        "wall_s": rep["wall_s"] * speed,
        "setup_s": rep["setup_s"] * speed,
        "sim_rate_mcps": ratio(rep["cycles"], run_s) / 1e6,
        "access_rate_maps": ratio(accesses, run_s) / 1e6,
        "peak_rss_mb": rep["peak_rss_bytes"] / (1 << 20),
    }


def fast_quartile(values, rate=False):
    """The quartile of `values` at the fast end: the lower quartile of a
    time, the upper one of a rate.  Other tenants of a shared host slow a
    repetition in episodes of a second or so that come and go within a run;
    the median moves with how many episodes a run happened to catch, the
    fast quartile only once they cover three quarters of it."""
    if len(values) < 2:
        return values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 if rate else q1


def end_to_end(reps):
    """Every end-to-end metric over repetitions: the fast quartile of each
    host time and rate, the median of peak RSS."""
    per_rep = [rep_end_to_end(r) for r in reps]
    out = {}
    for name, _ in END_TO_END:
        values = [p[name] for p in per_rep]
        out[name] = (median(values) if name == "peak_rss_mb"
                     else fast_quartile(values, name in RATES))
    return out


def _ccnuma_base(points):
    return {p["program"]: p["cycles"] for p in points if p["arch"] == "CCNUMA"}


def ascoma_rel_cc_max(points):
    """Max over (program, pressure) of AS-COMA cycles / CC-NUMA cycles of the
    same program (CC-NUMA runs once: it is pressure-independent).  0 when no
    AS-COMA point has a CC-NUMA base."""
    base = _ccnuma_base(points)
    rel = [ratio(p["cycles"], base[p["program"]]) for p in points
           if p["arch"] == "ASCOMA" and p["program"] in base]
    return max(rel, default=0.0)


def ascoma_rel_best_gmean(points):
    """Geometric mean over (program, pressure) of AS-COMA cycles / the fewest
    cycles any other architecture took there (CC-NUMA counts at every
    pressure).  0 when no AS-COMA point has anything to compare with."""
    base = _ccnuma_base(points)
    best = {}
    for p in points:
        if p["arch"] in ("ASCOMA", "CCNUMA"):
            continue
        key = (p["program"], p["pressure"])
        best[key] = min(best.get(key, math.inf), p["cycles"])
    rel = []
    for p in points:
        if p["arch"] != "ASCOMA":
            continue
        other = min(best.get((p["program"], p["pressure"]), math.inf),
                    base.get(p["program"], math.inf))
        if math.isfinite(other) and other > 0:
            rel.append(p["cycles"] / other)
    return gmean(rel)


def layer_counts(counts, job_ops):
    """Calls into each layer during one repetition, as derived from the
    simulated counters (the layer's est_share multiplies these by the
    drive's ns per call).  `job_ops` is the op count summed over jobs."""
    c = counts
    return {
        "workload": job_ops,
        "net": c["net_messages"],
        "l1": c["accesses"],
        # Every L1 miss to a remote CC-NUMA page probes the RAC.
        "rac": c["rac_hits"] + c["remote_misses"],
        # Every miss the RAC does not satisfy reads some node's DRAM, and
        # every writeback writes one.
        "dram": c["misses"] - c["rac_hits"] + c["writebacks"],
        "bus": c["misses"] + c["upgrades_issued"] + c["writebacks"],
        "page_cache": c["scoma_allocs"] + c["upgrades"] + c["downgrades"],
        "daemon": c["daemon_pages_scanned"],
        "policy": (c["page_faults"] + c["scoma_hits"] + c["refetch_misses"]
                   + c["downgrades"] + c["daemon_runs"]),
        "pick": job_ops,
        "access": c["accesses"],
    }


def est_shares(counts, job_ops, ns, run_s):
    """Estimated share of simulation host time per layer.  proto is a self
    share: CoherentMemory::access time minus the net and mem time inside
    it, so the shares do not double-count."""
    n = layer_counts(counts, job_ops)
    s = {
        "workload": est_share(n["workload"], ns["gen_ns_per_op"], run_s),
        "net": est_share(n["net"], ns["deliver_ns"], run_s),
        "mem": (est_share(n["l1"], ns["l1_ns"], run_s)
                + est_share(n["rac"], ns["rac_ns"], run_s)
                + est_share(n["dram"], ns["dram_ns"], run_s)
                + est_share(n["bus"], ns["bus_ns"], run_s)),
        "vm": (est_share(n["page_cache"], ns["page_cache_ns"], run_s)
               + est_share(n["daemon"], ns["daemon_ns_per_page"], run_s)),
        "arch": est_share(n["policy"], ns["policy_ns"], run_s),
        "sim": est_share(n["pick"], ns["pick_ns"], run_s),
    }
    s["proto"] = (est_share(n["access"], ns["access_ns"], run_s)
                  - s["net"] - s["mem"])
    return s


def busy_ratio(rep):
    """Summed job host time over (workers x wall): 1 = no worker idled."""
    return ratio(rep["busy_s"], rep["workers"] * rep["wall_s"])


def per_layer(reps, traced_reps, drive):
    """Every per-layer metric.  `reps` are the untraced repetition records
    (their counts repeat exactly; host times enter as medians), `traced_reps`
    the traced ones, `drive` the drive record."""
    rep = reps[0]
    run_s = median([r["run_s"] for r in reps])
    wall_s = median([r["wall_s"] for r in reps])
    traced_wall_s = median([r["wall_s"] for r in traced_reps])
    c = rep["counts"]
    ns = drive["ns_per_op"]
    job_ops = drive["job_ops"]
    shares = est_shares(c, job_ops, ns, run_s)
    accesses = c["accesses"]
    m = {
        "workload.ops": job_ops,
        "workload.stream_bytes": job_ops * OP_BYTES,
        "workload.gen_ns_per_op": ns["gen_ns_per_op"],
        "net.messages": c["net_messages"],
        "net.messages_per_access": ratio(c["net_messages"], accesses),
        "net.deliver_ns": ns["deliver_ns"],
        "proto.remote_fetches": c["remote_misses"],
        "proto.invalidations": c["invalidations"],
        "proto.forwards": c["forwards"],
        "proto.writebacks": c["writebacks"],
        "proto.dir_ns": ns["dir_ns"],
        "proto.access_ns": ns["access_ns"],
        "mem.l1_hit_ratio": ratio(c["l1_hits"], accesses),
        "mem.rac_hits": c["rac_hits"],
        "mem.local_misses": c["local_misses"],
        "mem.l1_ns": ns["l1_ns"],
        "mem.rac_ns": ns["rac_ns"],
        "mem.dram_ns": ns["dram_ns"],
        "mem.bus_ns": ns["bus_ns"],
        "vm.page_faults": c["page_faults"],
        "vm.upgrades": c["upgrades"],
        "vm.downgrades": c["downgrades"],
        "vm.lines_flushed": c["lines_flushed"],
        "vm.daemon_runs": c["daemon_runs"],
        "vm.reclaim_useful": ratio(c["daemon_pages_reclaimed"],
                                   c["daemon_pages_scanned"]),
        "vm.page_cache_ns": ns["page_cache_ns"],
        "vm.daemon_ns_per_page": ns["daemon_ns_per_page"],
        "vm.k_overhd_share": ratio(c["sim_time_kernel_ovhd"],
                                   c["sim_time_total"]),
        "arch.threshold_raises": c["threshold_raises"],
        "arch.remaps_suppressed": c["remap_suppressed"],
        "arch.relocation_useful": ratio(c["upgrades"],
                                        c["relocation_interrupts"]),
        "arch.policy_ns": ns["policy_ns"],
        "sim.lock_acquisitions": c["lock_acquisitions"],
        "sim.barrier_episodes": c["barrier_episodes"],
        "sim.pick_ns": ns["pick_ns"],
        "sim.sync_share": ratio(c["sim_time_sync"], c["sim_time_total"]),
        "core.run_ns_per_access": ratio(run_s * 1e9, accesses),
        "core.loop_share": 1.0 - sum(shares.values()),
        "core.sweep_busy_ratio": median([busy_ratio(r) for r in reps]),
        "model.ascoma_rel_cc_max": ascoma_rel_cc_max(rep["points"]),
        "model.ascoma_rel_best_gmean": ascoma_rel_best_gmean(rep["points"]),
        "trace.overhead_s": traced_wall_s - wall_s,
    }
    for layer in LAYERS:
        m[layer + ".est_share"] = shares[layer]
    return {name: m[name] for name, _ in PER_LAYER}


def span_table(span_lists):
    """Merges the span roll-ups of several traced processes: per span name,
    count, total seconds and self seconds, in order of first appearance."""
    out = {}
    for spans in span_lists:
        for s in spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["count"] += s["count"]
            row["total_s"] += s["total_s"]
            row["self_s"] += s["self_s"]
    return out
