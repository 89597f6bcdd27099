//! The benchmark's vocabulary: the six workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics. `BENCHMARK.json`
//! at the repo root lists the same names (a unit test compares them), and
//! `README.md` says which end-to-end metric each layer metric should move.

use std::collections::BTreeMap;

/// Metric values by name. Counts are stored as `f64` too: every count the
/// benchmark sees is far below 2^53, so they stay exact.
pub type Values = BTreeMap<String, f64>;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the simulator process: noisy, bounded by a share.
    Host,
    /// Virtual cycles/µs of the modelled hardware, or an exact count:
    /// repeats exactly for a given seed.
    Sim,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Clock.
    pub clock: Clock,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse (0 for per-layer metrics, which have none).
    pub bound: f64,
}

/// Short names of the six paper apps, in `AppKind::all()` order.
pub const APPS: [&str; 6] = ["json", "intcode", "tree", "smith", "regex", "bloom"];

/// The workloads and why each exists (one line; `README.md` has more).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "apps_f1",
        "Fig. 7: the six paper apps at their F1 PU counts; PU evaluation (isim lanes, compiler exec) does almost all the work",
    ),
    (
        "mem_read",
        "Sec. 7.3 input controller: drop-all PUs make PU evaluation trivial, so memctl/axi time dominates and a lane-eval win must not move it",
    ),
    (
        "mem_readwrite",
        "Sec. 7.3 read+write: identity PUs drive the output controller, write queue and bus turnaround, so a read-path gain that costs writes shows",
    ),
    (
        "serve_jobs",
        "one-shot serving end to end (queue, predictor, EDF pack, per-batch engine build, run, drain, report); many small batches expose per-batch overhead",
    ),
    (
        "session_stream",
        "the engine used incrementally (OpenRun append/advance, eviction, re-admission); an optimisation that assumes whole streams up front pays here",
    ),
    (
        "cluster_model",
        "Backend::Model bypasses the engine: routing, queues, pack, predictor, autoscaler and failover do all the work, so engine changes must not move it",
    ),
];

use Clock::{Host, Sim};

fn metric(name: &str, unit: &'static str, higher_is_better: bool, clock: Clock) -> Metric {
    Metric { name: name.to_string(), unit, higher_is_better, clock, bound: 0.0 }
}

/// The end-to-end metrics, every one reported by every workload.
///
/// The bounds come from A/A data taken on a quiet two-core box: `repeat
/// --sets 2` on seeds 100–109 and one more set on seeds 1–10 through the
/// driver's command. Host clock: the widest ten-seed spread of a rate was
/// 4.1 % (`serve_jobs`, where batch make-up follows the seed; 3.7 % on
/// `cluster_model`, 0.6–1.6 % on the others) and the two A/A sets' medians
/// differed by at most 2.7 %, so the rates get the 10 % the issue asked
/// for; `peak_rss_mb` spread 10.3 % on `cluster_model` (13 MB, of which the
/// backlog of the seed's rush window is a visible part; it repeats exactly
/// per seed) and at most 5.3 % elsewhere, so it gets twice that; `setup_s`
/// gets the contract's widest. Under neighbour load the same code has
/// spread the rates by 25–40 %: `repeat` then reports them as unresolved,
/// and the bounds stay.
///
/// A sim metric repeats exactly for one seed — `sim-stats` enforces that,
/// against the stored `sim_stats.json` — so its bound only has to cover
/// its spread across seeds, three times over as the contract wants:
/// `model_gbps` and `virt_goodput_jobs_per_s` up to 2.8 %, `virt_p99_us`
/// up to 10.9 % (all three widest on `serve_jobs`).
pub fn end_to_end() -> Vec<Metric> {
    [
        ("sim_kcycles_per_wall_s", "kcycles/s", true, Host, 0.1),
        ("input_mb_per_wall_s", "MB/s", true, Host, 0.1),
        ("jobs_per_wall_s", "jobs/s", true, Host, 0.1),
        ("setup_s", "s", false, Host, 0.25),
        ("peak_rss_mb", "MB", false, Host, 0.2),
        ("model_gbps", "GB/s", true, Sim, 0.1),
        ("virt_p99_us", "us", false, Sim, 0.25),
        ("virt_goodput_jobs_per_s", "jobs/s", true, Sim, 0.1),
    ]
    .into_iter()
    .map(|(name, unit, up, clock, bound)| Metric { bound, ..metric(name, unit, up, clock) })
    .collect()
}

/// The per-layer metrics (layer = crate; the prefix is the crate name
/// without `fleet-`), every one printed by every traced run. A workload
/// reports 0 for a layer that is not on its path.
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit, up, clock| out.push(metric(name, unit, up, clock));
    // Front end: fleet-lang, fleet-compiler, fleet-apps.
    add("lang.spec_build_us", "us", false, Host);
    add("compiler.compile_us", "us", false, Host);
    add("apps.gen_stream_mb_per_s", "MB/s", true, Host);
    add("apps.golden_mb_per_s", "MB/s", true, Host);
    // fleet-isim.
    for app in APPS {
        add(&format!("isim.eval_lanes64_ns_per_lane.{app}"), "ns", false, Host);
    }
    add("isim.interp_mb_per_s", "MB/s", true, Host);
    // fleet-axi.
    add("axi.dram_tick_ns", "ns", false, Host);
    add("axi.row_hit_share", "ratio", true, Sim);
    add("axi.turnaround_cycles", "count", false, Sim);
    add("axi.refresh_stall_cycles", "count", false, Sim);
    add("axi.bus_utilization", "ratio", true, Sim);
    // fleet-memctl.
    add("memctl.run_channel_s", "s", false, Host);
    add("memctl.ns_per_cycle", "ns", false, Host);
    add("memctl.ns_per_pu_cycle", "ns", false, Host);
    add("memctl.fixed_ns_per_cycle", "ns", false, Host);
    add("memctl.sim_cycles", "count", false, Sim);
    add("memctl.cycles_skipped_share", "ratio", true, Sim);
    for app in APPS {
        add(&format!("memctl.kcycles_per_s.{app}"), "kcycles/s", true, Host);
    }
    add("memctl.pu_busy_share", "ratio", true, Sim);
    add("memctl.pu_stall_in_share", "ratio", false, Sim);
    add("memctl.pu_stall_out_share", "ratio", false, Sim);
    // fleet-system.
    add("system.build_engines_s", "s", false, Host);
    add("system.collect_output_s", "s", false, Host);
    add("system.batch_overhead_us", "us", false, Host);
    add("system.max_units_us", "us", false, Host);
    add("system.open_advance_us", "us", false, Host);
    // fleet-host.
    add("host.queue_op_ns", "ns", false, Host);
    add("host.pack_batch_us", "us", false, Host);
    add("host.predict_ns", "ns", false, Host);
    add("host.report_json_ms", "ms", false, Host);
    add("host.serve_s", "s", false, Host);
    add("host.wall_us_per_batch", "us", false, Host);
    add("host.batches_packed", "count", false, Sim);
    add("host.slot_fill", "ratio", true, Sim);
    add("host.jobs_per_batch", "jobs", true, Sim);
    add("host.shed_predicted", "count", false, Sim);
    add("host.deadline_misses", "count", false, Sim);
    add("host.virt_queue_p99_us", "us", false, Sim);
    add("host.virt_run_p99_us", "us", false, Sim);
    // fleet-session.
    add("session.append_ns", "ns", false, Host);
    add("session.service_us", "us", false, Host);
    add("session.appends", "count", true, Sim);
    add("session.advances", "count", false, Sim);
    add("session.backpressure", "count", false, Sim);
    add("session.evictions", "count", false, Sim);
    add("session.readmissions", "count", false, Sim);
    // fleet-cluster, fleet-fault.
    add("cluster.run_s", "s", false, Host);
    add("cluster.ns_per_job", "ns", false, Host);
    add("cluster.report_json_ms", "ms", false, Host);
    add("cluster.engine_vs_model_ratio", "ratio", false, Host);
    add("cluster.warm_hit_share", "ratio", true, Sim);
    add("cluster.reroutes", "count", false, Sim);
    add("cluster.scale_ups", "count", false, Sim);
    add("cluster.peak_instances", "count", false, Sim);
    add("cluster.slot_fill", "ratio", true, Sim);
    add("fault.injected", "count", false, Sim);
    add("fault.retries", "count", false, Sim);
    add("fault.quarantines", "count", false, Sim);
    // fleet-trace, and the benchmark's own tracing.
    add("trace.counter_sink_overhead", "ratio", false, Host);
    add("bench.trace_overhead_share", "ratio", false, Host);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` under `key` in the text of `BENCHMARK.json`
    /// (a flat scan: the file's shape is fixed by the contract).
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\": [")).expect("key present");
        let end = start + json[start..].find(']').expect("list closes");
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = |ms: Vec<Metric>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(names_under(&json, "end_to_end"), names(end_to_end()));
        assert_eq!(names_under(&json, "per_layer"), names(per_layer()));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(names_under(&json, "workloads"), workloads);
        for m in end_to_end() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.higher_is_better { "higher" } else { "lower" },
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(ok_name(&m.name), "bad name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
        }
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(end_to_end().iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && why.len() <= 200 && seen.insert(name.to_string()));
        }
    }
}
