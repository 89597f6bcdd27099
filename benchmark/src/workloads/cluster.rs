//! `cluster_model`: the control plane with the engine bypassed. The
//! `cluster` experiment's topology (8 hosts × 8 instances, two zone-wedge
//! bursts) serves a lazily generated job stream through `Backend::Model`,
//! so routing, queues, first-fit pack, predictor, autoscaler,
//! quarantine/failover and report emission do all the work.

use std::sync::Arc;
use std::time::Instant;

use fleet_apps::{App, AppKind};
use fleet_cluster::{Backend, Cluster, ClusterConfig, FaultBurst, JobSource, VecSource};
use fleet_host::Job;
use fleet_lang::UnitSpec;
use fleet_system::FaultPlan;

use super::{f1_serial, mix, put, Rep, Workload, CYCLES_PER_US};
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::sample_median;

/// Half the experiment's million: a pass stays near 1.3 s, so a run
/// holds enough passes for a steady median. The per-job cost is the same.
const JOBS: u64 = 500_000;
const HOSTS: usize = 8;
const INSTANCES: usize = 8;
const MIN_BYTES: usize = 2048;
const MAX_BYTES: usize = 8192;
/// Seeds of the modelled system itself — the model backend's hidden
/// per-spec slowdowns and the wedge pattern of the two fault bursts. They
/// are part of the configuration under test, not of the input, so they do
/// not follow `--seed`: only the arrival stream does.
const MODEL_SEED: u64 = 42;
const FAULT_SEEDS: [u64; 2] = [7, 8];

/// The `cluster` experiment's lazy arrival stream: about a million jobs
/// per virtual second over three specs, with hash-derived gaps, lengths
/// and tenants, and 4× payloads in a rush window (40–55 % of the stream)
/// that outruns baseline provisioning. Jobs never materialise at once.
struct OpenLoopSource {
    specs: Vec<(Arc<UnitSpec>, usize)>,
    seed: u64,
    jobs: u64,
    next: u64,
    t_us: u64,
    /// Stream bytes handed out so far.
    bytes: u64,
}

impl OpenLoopSource {
    fn new(specs: &[(Arc<UnitSpec>, usize)], seed: u64, jobs: u64) -> OpenLoopSource {
        OpenLoopSource { specs: specs.to_vec(), seed, jobs, next: 0, t_us: 0, bytes: 0 }
    }
}

impl JobSource for OpenLoopSource {
    fn next_job(&mut self) -> Option<(u64, Job)> {
        if self.next == self.jobs {
            return None;
        }
        let id = self.next;
        self.next += 1;
        let h = mix(self.seed, id);
        // Gaps of 0–2 µs (mean 1): about 1M jobs per virtual second.
        self.t_us += h % 3;
        let (spec, token) = &self.specs[(mix(h, 0x5bec) % self.specs.len() as u64) as usize];
        let rush = id * 20 >= self.jobs * 8 && id * 20 < self.jobs * 11;
        let span = (MAX_BYTES - MIN_BYTES + 1) as u64;
        let raw = if rush { 4 } else { 1 } * (MIN_BYTES + (mix(h, 0x1e9) % span) as usize);
        let len = raw.div_ceil(*token).max(1) * token;
        self.bytes += len as u64;
        let tenant = (h >> 32) as u32 % 6;
        Some((self.t_us, Job::new(id, tenant, spec.clone(), vec![vec![0u8; len]])))
    }
}

/// The cluster under test: zone bursts at 20 % and 60 % of the horizon,
/// each wedging every batch on a two-host zone for 5 % of it. Knobs as in
/// the `cluster` experiment binary.
fn config(horizon_us: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(HOSTS, INSTANCES);
    cfg.backend = Backend::Model { seed: MODEL_SEED };
    cfg.system = f1_serial(cfg.system.out_capacity);
    cfg.max_jobs_per_batch = 4;
    cfg.max_instances_per_host = INSTANCES + 8;
    cfg.min_instances_per_host = INSTANCES / 2;
    cfg.queue_capacity = 2048;
    cfg.system.watchdog_cycles = 50_000;
    cfg.retry_limit = 4;
    cfg.retry_backoff_us = 100;
    cfg.quarantine_after = 2;
    cfg.replace_after_us = (horizon_us / 40).max(10_000);
    cfg.scale_eval_period_us = 250;
    cfg.scale_up_queue = 4;
    cfg.scale_up_streak = 2;
    cfg.scale_down_streak = 40;
    cfg.power_budget_mw = 2_000_000;
    let zone = |start_pct: u64, host_lo: usize, fault_seed: u64| FaultBurst {
        start_us: horizon_us * start_pct / 100,
        end_us: horizon_us * (start_pct + 5) / 100,
        host_lo,
        host_hi: host_lo + 1,
        plan: FaultPlan::with_seed(fault_seed).wedges(1_000_000, 64),
    };
    cfg.bursts = vec![zone(20, 0, FAULT_SEEDS[0]), zone(60, 4, FAULT_SEEDS[1])];
    cfg
}

/// The `cluster_model` workload.
pub struct ClusterModel {
    seed: u64,
    specs: Vec<(Arc<UnitSpec>, usize)>,
}

impl ClusterModel {
    /// Builds the spec population; jobs are generated lazily per pass.
    pub fn new(seed: u64, rec: &mut Recorder) -> ClusterModel {
        let specs = [AppKind::Bloom, AppKind::Regex, AppKind::Json]
            .into_iter()
            .map(|kind| {
                let spec = Arc::new(rec.span("lang.spec_build", "", |_| App::new(kind).spec()));
                let token = (spec.input_token_bits as usize).div_ceil(8);
                (spec, token)
            })
            .collect();
        ClusterModel { seed, specs }
    }
}

impl Workload for ClusterModel {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut source = OpenLoopSource::new(&self.specs, self.seed, JOBS);
        // Mean inter-arrival gap is 1 µs.
        let cfg = config(JOBS);
        let started = Instant::now();
        let cluster = rec.span("cluster.new", "", |_| Cluster::new(cfg));
        let report = rec.span("cluster.run", "", |_| cluster.run(&mut source));
        let json = rec.span("cluster.report_json", "", |_| report.to_json());
        let wall_s = started.elapsed().as_secs_f64();

        // The model backend produces no output bytes to compare; the
        // check is that every generated job ends in exactly one state.
        let resolved = report.completed + report.failed + report.rejected;
        let leaked = JOBS.abs_diff(report.offered) + report.offered.abs_diff(resolved);
        let failed = report.failed + report.rejected + leaked;

        let virtual_s = report.virtual_us as f64 / 1e6;
        let (c, s) = (&report.cluster, &report.sched);
        let mut sim = Values::new();
        put(&mut sim, "model_gbps", source.bytes as f64 / virtual_s / 1e9);
        put(&mut sim, "virt_p99_us", report.latency.p99() as f64);
        put(&mut sim, "virt_goodput_jobs_per_s", report.completed as f64 / virtual_s);
        put(&mut sim, "cluster.warm_hit_share", c.warm_hits as f64 / c.routed.max(1) as f64);
        put(&mut sim, "cluster.reroutes", c.reroutes as f64);
        put(&mut sim, "cluster.scale_ups", c.scale_ups as f64);
        put(&mut sim, "cluster.peak_instances", c.peak_instances as f64);
        put(&mut sim, "cluster.slot_fill", s.slot_fill());
        put(&mut sim, "fault.injected", s.faults_injected as f64);
        put(&mut sim, "fault.retries", s.retries as f64);
        put(&mut sim, "fault.quarantines", s.quarantines as f64);
        // No channel engine ever ticks under the model backend.
        put(&mut sim, "memctl.sim_cycles", 0.0);
        std::hint::black_box(json);

        let cycles = (report.busy_instance_us as f64 * CYCLES_PER_US) as u64;
        Rep { wall_s, cycles, input_bytes: source.bytes, attempted: JOBS, failed, sim }
    }

    fn layers(&mut self, rec: &mut Recorder, traced_reps: usize, budget_s: f64, out: &mut Values) {
        let reps = traced_reps.max(1) as f64;
        let run_s = rec.total_s("cluster.run", None) / reps;
        put(out, "cluster.run_s", run_s);
        put(out, "cluster.ns_per_job", run_s * 1e9 / JOBS as f64);
        put(out, "cluster.report_json_ms", rec.total_s("cluster.report_json", None) / reps * 1e3);

        // What the model backend saves: one small job stream through the
        // cycle-accurate engine backend and through the model.
        let app = App::new(AppKind::Bloom);
        let spec = self.specs[0].0.clone();
        let jobs: Vec<(u64, Job)> = (0..400u64)
            .map(|i| {
                let stream = app.gen_stream(mix(self.seed, i), MIN_BYTES);
                (i * 30, Job::new(i, (i % 4) as u32, spec.clone(), vec![stream]))
            })
            .collect();
        let mut time = |backend: Backend, name: &'static str| {
            sample_median(budget_s / 4.0, || {
                let mut cfg = ClusterConfig::new(2, 2);
                cfg.backend = backend;
                cfg.system = f1_serial(cfg.system.out_capacity);
                let mut source = VecSource::new(jobs.clone());
                let t = Instant::now();
                let report = rec.span(name, "", |_| Cluster::new(cfg).run(&mut source));
                assert_eq!(report.completed, jobs.len() as u64, "fault-free stream completes");
                t.elapsed().as_secs_f64()
            })
        };
        let engine_s = time(Backend::Engine, "cluster.run_engine_backend");
        let model_s = time(Backend::Model { seed: MODEL_SEED }, "cluster.run_model_backend");
        put(out, "cluster.engine_vs_model_ratio", engine_s / model_s);
    }
}
