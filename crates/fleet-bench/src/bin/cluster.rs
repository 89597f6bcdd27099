//! cluster — the fleet-of-fleets experiment: availability and
//! utilization of a multi-host cluster under zone-sized fault bursts.
//!
//! A `Cluster` of 8 hosts × 8 instances serves a million-job arrival
//! stream through the model backend (the control plane — routing,
//! prediction, autoscaling, quarantine/failover — is identical to
//! engine mode; only batch data-plane timing is modelled, so
//! million-job horizons run in seconds). Two bursts wedge every batch
//! on a two-host zone for 5% of the horizon each: affected instances
//! quarantine, their queues drain to siblings, the siblings scale up
//! against the vu9p power model, and replacement boards restore the
//! zone after the swap delay.
//!
//! Determinism gates run before any numbers are reported: a bounded
//! engine-backend serve and the full model-backend serve must each be
//! byte-identical run to run. (The JSON key
//! `engine_thread_determinism_fingerprint` keeps its historical name;
//! its value is the engine serve's fingerprint, unchanged.) The headline asserts — job conservation and
//! availability ≥ 0.999 through both bursts — are the acceptance
//! criteria the artifact records.
//!
//! ```text
//! cargo run -p fleet-bench --bin cluster --release
//! cargo run -p fleet-bench --bin cluster --release -- --smoke
//! ```

use std::sync::Arc;

use fleet_apps::{App, AppKind};
use fleet_bench::workload::fingerprint;
use fleet_bench::{print_table, write_bench_json};
use fleet_cluster::{Backend, Cluster, ClusterConfig, FaultBurst, JobSource, VecSource};
use fleet_host::Job;
use fleet_lang::UnitSpec;
use fleet_system::FaultPlan;

#[derive(Debug, Clone)]
struct Args {
    jobs: u64,
    hosts: usize,
    instances: usize,
    seed: u64,
    fault_seed: u64,
    min_bytes: usize,
    max_bytes: usize,
    /// Shrinks the horizon for CI; same topology and burst shape.
    smoke: bool,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            jobs: 1_000_000,
            hosts: 8,
            instances: 8,
            seed: 42,
            fault_seed: 7,
            min_bytes: 2048,
            max_bytes: 8192,
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |what: &str| -> String {
                it.next().unwrap_or_else(|| panic!("{flag} needs a {what}"))
            };
            match flag.as_str() {
                "--jobs" => a.jobs = val("count").parse().expect("--jobs"),
                "--hosts" => a.hosts = val("count").parse().expect("--hosts"),
                "--instances" => a.instances = val("count").parse().expect("--instances"),
                "--seed" => a.seed = val("u64").parse().expect("--seed"),
                "--fault-seed" => a.fault_seed = val("u64").parse().expect("--fault-seed"),
                "--min-bytes" => a.min_bytes = val("bytes").parse().expect("--min-bytes"),
                "--max-bytes" => a.max_bytes = val("bytes").parse().expect("--max-bytes"),
                "--smoke" => a.smoke = true,
                other => panic!("unknown flag {other}"),
            }
        }
        if a.smoke {
            a.jobs = a.jobs.min(50_000);
        }
        assert!(a.jobs > 0 && a.hosts > 0 && a.instances > 0, "counts must be positive");
        assert!(a.min_bytes <= a.max_bytes, "--min-bytes above --max-bytes");
        a
    }
}

/// Splitmix-style hash (same finalizer the fault plans use), local so
/// the generator is self-contained.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Lazy arrival stream: ~1M jobs per virtual second across a mixed
/// spec population, with hash-derived gaps, lengths, and tenants — a
/// million jobs never materialize in memory (the cluster's bounded
/// queues hold at most a few thousand at a time). Jobs in the rush
/// window (40–55% of the stream) carry 4× payloads, pushing offered
/// byte volume past baseline capacity so the autoscaler has real
/// pressure to absorb.
struct OpenLoopSource {
    specs: Vec<(Arc<UnitSpec>, usize)>,
    seed: u64,
    jobs: u64,
    next: u64,
    t_us: u64,
    min_bytes: usize,
    max_bytes: usize,
}

impl OpenLoopSource {
    fn new(args: &Args) -> OpenLoopSource {
        let specs = [AppKind::Bloom, AppKind::Regex, AppKind::Json]
            .iter()
            .map(|&k| {
                let spec = Arc::new(App::new(k).spec());
                let tok = (spec.input_token_bits as usize).div_ceil(8);
                (spec, tok)
            })
            .collect();
        OpenLoopSource {
            specs,
            seed: args.seed,
            jobs: args.jobs,
            next: 0,
            t_us: 0,
            min_bytes: args.min_bytes,
            max_bytes: args.max_bytes,
        }
    }
}

impl JobSource for OpenLoopSource {
    fn next_job(&mut self) -> Option<(u64, Job)> {
        if self.next == self.jobs {
            return None;
        }
        let id = self.next;
        self.next += 1;
        let h = mix(self.seed ^ id);
        // Gaps of 0–2 µs (mean 1) → ~1M jobs per virtual second.
        self.t_us += h % 3;
        let (spec, tok) = &self.specs[(mix(h ^ 0x5bec) % self.specs.len() as u64) as usize];
        let rush = id * 20 >= self.jobs * 8 && id * 20 < self.jobs * 11;
        let scale = if rush { 4 } else { 1 };
        let span = (self.max_bytes - self.min_bytes + 1) as u64;
        let raw = scale * (self.min_bytes + (mix(h ^ 0x1e9) % span) as usize);
        let len = raw.div_ceil(*tok).max(1) * tok;
        let tenant = (h >> 32) as u32 % 6;
        let job = Job::new(id, tenant, spec.clone(), vec![vec![0u8; len]]);
        Some((self.t_us, job))
    }
}

/// The cluster under test: zone bursts at 20% and 60% of the horizon,
/// each wedging every batch on a two-host zone for 5% of it.
fn config(args: &Args, horizon_us: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(args.hosts, args.instances);
    cfg.backend = Backend::Model { seed: args.seed };
    // Small batches bound head-of-line blocking (and per-instance
    // throughput), so the rush phase genuinely outruns the baseline
    // provisioning instead of vanishing into 16-deep packing.
    cfg.max_jobs_per_batch = 4;
    cfg.max_instances_per_host = args.instances + 8;
    cfg.min_instances_per_host = args.instances / 2;
    cfg.queue_capacity = 2048;
    // A tight watchdog keeps wedged batches from stalling a zone for
    // whole milliseconds (same window the chaos bench uses).
    cfg.system.watchdog_cycles = 50_000;
    cfg.retry_limit = 4;
    cfg.retry_backoff_us = 100;
    cfg.quarantine_after = 2;
    cfg.replace_after_us = (horizon_us / 40).max(10_000);
    // Sensitive scaler: zone wedges stall a host for ~1 ms before
    // quarantine (two watchdog windows per instance), and that stall
    // must register as sustained pressure within a burst.
    cfg.scale_eval_period_us = 250;
    cfg.scale_up_queue = 4;
    cfg.scale_up_streak = 2;
    cfg.scale_down_streak = 40;
    // Room for the full scale-out (64 extra boards) at vu9p package
    // power; the budget still gates each individual provisioning step.
    cfg.power_budget_mw = 2_000_000;
    let zone = |frac_start: u64, lo: usize, seed: u64| FaultBurst {
        start_us: horizon_us * frac_start / 100,
        end_us: horizon_us * (frac_start + 5) / 100,
        host_lo: lo,
        host_hi: lo + 1,
        plan: FaultPlan::with_seed(seed).wedges(1_000_000, 64),
    };
    cfg.bursts = vec![
        zone(20, 0, args.fault_seed),
        zone(60, 4, args.fault_seed.wrapping_add(1)),
    ];
    cfg
}

/// Engine-backend determinism gate: a bounded faulted serve must be
/// byte-identical run to run.
fn engine_gate(args: &Args) -> u64 {
    let app = App::new(AppKind::Bloom);
    let spec = Arc::new(app.spec());
    let jobs: Vec<(u64, Job)> = (0..120u64)
        .map(|i| {
            let stream = app.gen_stream(args.seed ^ i, 512 + (mix(i) % 1024) as usize);
            (i * 30, Job::new(i, (i % 4) as u32, spec.clone(), vec![stream]))
        })
        .collect();
    let serve = || {
        let mut cfg = ClusterConfig::new(2, 2);
        cfg.backend = Backend::Engine;
        cfg.system.watchdog_cycles = 50_000;
        cfg.fault = FaultPlan::with_seed(args.fault_seed).wedges(100_000, 64);
        let mut source = VecSource::new(jobs.clone());
        Cluster::new(cfg).run(&mut source).to_json()
    };
    let one = serve();
    assert_eq!(one, serve(), "engine-backend cluster reports diverged run to run");
    println!(
        "determinism: engine backend identical on a rerun (fingerprint {:016x})",
        fingerprint(&one)
    );
    fingerprint(&one)
}

fn main() {
    let args = Args::parse();
    // Mean inter-arrival gap is 1 µs (see OpenLoopSource).
    let horizon_us = args.jobs;
    println!(
        "# cluster: {} hosts × {} instances, {} jobs, seed {}, fault seed {}\n",
        args.hosts, args.instances, args.jobs, args.seed, args.fault_seed
    );

    let engine_fp = engine_gate(&args);

    // Model-backend determinism gate: the full serve, twice.
    let serve = || {
        let mut source = OpenLoopSource::new(&args);
        Cluster::new(config(&args, horizon_us)).run(&mut source)
    };
    let report = serve();
    let json = report.to_json();
    let again = serve().to_json();
    assert_eq!(json, again, "cluster reports diverged run to run");
    let model_fp = fingerprint(&json);
    println!("determinism: model backend identical run to run (fingerprint {model_fp:016x})\n");

    let availability = report.availability();
    let c = &report.cluster;
    let p50 = report.latency.p50();
    let p99 = report.latency.p99();
    print_table(
        &["Metric", "Value"],
        &[
            vec!["jobs offered".into(), report.offered.to_string()],
            vec![
                "completed / failed / rejected".into(),
                format!("{} / {} / {}", report.completed, report.failed, report.rejected),
            ],
            vec!["availability".into(), format!("{availability:.6}")],
            vec!["utilization".into(), format!("{:.4}", report.utilization())],
            vec!["virtual time (s)".into(), format!("{:.3}", report.virtual_us as f64 / 1e6)],
            vec!["latency p50 / p99 (µs)".into(), format!("{p50} / {p99}")],
            vec![
                "scale up / down (peak inst)".into(),
                format!("{} / {} ({})", c.scale_ups, c.scale_downs, c.peak_instances),
            ],
            vec![
                "reroutes / drained / host quarantines".into(),
                format!("{} / {} / {}", c.reroutes, c.drained_jobs, c.host_quarantines),
            ],
            vec![
                "instance quarantines / replacements".into(),
                format!("{} / {}", report.sched.quarantines, c.replacements),
            ],
            vec![
                "warm-hit rate".into(),
                format!("{:.4}", c.warm_hits as f64 / c.routed.max(1) as f64),
            ],
            vec!["retries (host-level)".into(), report.sched.retries.to_string()],
        ],
    );

    // Acceptance: every job ends exactly once, and the service rides
    // through both zone failures above three nines.
    assert_eq!(
        report.completed + report.failed + report.rejected,
        report.offered,
        "job leaked cluster-wide"
    );
    assert!(
        availability >= 0.999,
        "availability {availability:.6} under two zone bursts (floor 0.999)"
    );
    assert!(report.cluster.scale_ups > 0, "burst pressure must scale instances up");
    assert!(report.sched.quarantines > 0, "zone wedges must quarantine instances");
    assert!(report.cluster.reroutes > 0, "failed work must reroute to siblings");


    write_bench_json(
        "cluster",
        &format!(
            "{{\n  \"hosts\": {},\n  \"instances_per_host\": {},\n  \"jobs\": {},\n  \
             \"seed\": {},\n  \"fault_seed\": {},\n  \"bursts\": 2,\n  \
             \"availability\": {:.6},\n  \"utilization\": {:.4},\n  \
             \"p50_us\": {},\n  \"p99_us\": {},\n  \
             \"engine_thread_determinism_fingerprint\": \"{:016x}\",\n  \
             \"model_rerun_determinism_fingerprint\": \"{:016x}\",\n  \
             \"report\": {}\n}}\n",
            args.hosts,
            args.instances,
            args.jobs,
            args.seed,
            args.fault_seed,
            availability,
            report.utilization(),
            p50,
            p99,
            engine_fp,
            model_fp,
            json,
        ),
    );
}
