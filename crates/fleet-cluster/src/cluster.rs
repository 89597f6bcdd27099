//! The fleet-of-fleets: N hosts behind one router, on one virtual
//! clock.
//!
//! A [`Cluster`] owns a set of host states — each a bounded
//! [`SubmitQueue`], an online [`Predictor`], and a pool of instance
//! slots — and drives them as a discrete-event simulation in virtual
//! microseconds. Every decision (routing, dispatch, autoscaling,
//! failover) happens at an event time and iterates hosts and instances
//! in `(virtual time, host id, instance id)` order, so the whole serve
//! is a pure function of the configuration and arrival stream: reports
//! are byte-identical across reruns.
//!
//! **Routing.** Arrivals go to the healthy host minimizing predicted
//! pressure — the queue's predicted backlog (each queued job's
//! predicted run time, maintained incrementally) plus the remaining
//! run time of in-flight batches, normalized by healthy instance
//! count — plus a cold-spec penalty when the host has never run the
//! job's spec (spec-affinity placement: warm hosts win by a
//! configurable margin).
//!
//! **Autoscaling.** A periodic evaluator adds an instance to a host
//! whose queue has stayed deep for several consecutive ticks
//! (hysteresis), costed against the vu9p area model: the new board's
//! package power at the spec's area-fitted PU count must fit the
//! cluster power budget. Sustained idleness retires instances back to
//! the floor.
//!
//! **Failover.** Batch failures quarantine instances exactly like the
//! single-host scheduler; when a host loses its last healthy instance
//! the router drains its queue and replays every job on siblings, and
//! a quarantined instance is replaced (modelling a board swap) after a
//! configurable delay.
//!
//! Two execution backends share all of that control logic:
//! [`Backend::Engine`] runs every batch through the cycle-accurate
//! [`fleet_system::Instance`] (fidelity), while [`Backend::Model`] derives batch run
//! times from the structural predictor seed, a hidden per-spec
//! slowdown, and pure-hash fault decisions — fast enough for
//! million-job benches while exercising the identical
//! router/autoscaler/failover paths.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fleet_compiler::CompiledUnit;
use fleet_fault::{mix64, FaultPlan};
use fleet_host::{pack_batch, Job, PackedBatch, Predictor, SubmitQueue};
use fleet_system::{design_area, max_units, Instance, SystemConfig};
use fleet_trace::{ClusterCounters, LatencyStats, SchedCounters};

use crate::report::{ClusterReport, HostSummary};

/// How the cluster executes a launched batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Run every batch through the cycle-accurate system simulator.
    /// Exact but expensive — suited to thousands of jobs, not
    /// millions.
    Engine,
    /// Derive run times from the structural predictor seed, a hidden
    /// per-spec slowdown, and per-batch jitter, all pure hashes of
    /// `seed` — the control plane (routing, scaling, failover,
    /// prediction) is identical to engine mode, only the data plane is
    /// modelled.
    Model {
        /// Seed for the hidden slowdown and jitter hashes.
        seed: u64,
    },
}

/// A window during which a contiguous range of hosts runs under an
/// elevated fault plan — the "zone failure" the availability benches
/// inject.
#[derive(Debug, Clone, Copy)]
pub struct FaultBurst {
    /// Burst start on the virtual clock, inclusive, in µs.
    pub start_us: u64,
    /// Burst end on the virtual clock, exclusive, in µs.
    pub end_us: u64,
    /// First affected host id.
    pub host_lo: usize,
    /// Last affected host id, inclusive.
    pub host_hi: usize,
    /// The plan affected hosts derive batch faults from while the
    /// burst is active (replaces the host's base plan).
    pub plan: FaultPlan,
}

impl FaultBurst {
    fn covers(&self, host: usize, now_us: u64) -> bool {
        (self.host_lo..=self.host_hi).contains(&host)
            && (self.start_us..self.end_us).contains(&now_us)
    }
}

/// Cluster topology, scheduling, autoscaling, and failover knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Instances each host starts with.
    pub instances_per_host: usize,
    /// Autoscaler ceiling per host.
    pub max_instances_per_host: usize,
    /// Autoscaler floor per host.
    pub min_instances_per_host: usize,
    /// Per-host submission-queue bound.
    pub queue_capacity: usize,
    /// Most jobs one batch may carry.
    pub max_jobs_per_batch: usize,
    /// Cap on area-fitted PU slots per instance.
    pub pu_slot_cap: usize,
    /// Platform/controller model shared by every instance. Engine mode
    /// also takes `watchdog_cycles` from here.
    pub system: SystemConfig,
    /// Execution backend for launched batches.
    pub backend: Backend,
    /// Base fault plan; each host derives an independent child, each
    /// batch a grandchild, so two hosts never fault identical sites.
    pub fault: FaultPlan,
    /// Zone-sized fault windows layered over the base plan.
    pub bursts: Vec<FaultBurst>,
    /// Failed-batch retries per job before it fails terminally.
    pub retry_limit: u32,
    /// Base retry backoff in virtual µs (doubles per attempt, capped
    /// at 8×).
    pub retry_backoff_us: u64,
    /// Consecutive batch failures that quarantine an instance
    /// (0 disables quarantine).
    pub quarantine_after: u32,
    /// Virtual µs after which a quarantined instance is replaced by a
    /// fresh board (0 disables replacement).
    pub replace_after_us: u64,
    /// Autoscaler evaluation period in virtual µs.
    pub scale_eval_period_us: u64,
    /// Queue depth that counts as scale-up pressure.
    pub scale_up_queue: usize,
    /// Consecutive pressured evaluations before adding an instance.
    pub scale_up_streak: u32,
    /// Consecutive idle evaluations before retiring an instance.
    pub scale_down_streak: u32,
    /// Cluster-wide power budget in milliwatts for provisioned boards,
    /// costed from the vu9p area model (0 = unlimited).
    pub power_budget_mw: u64,
    /// Routing penalty in pressure-µs for placing a spec on a host
    /// that has never run it (spec-affinity strength).
    pub affinity_penalty_us: u64,
}

impl ClusterConfig {
    /// A cluster of `hosts` × `instances_per_host` with the defaults
    /// the tests and benches start from: modest queues, first-fit
    /// packing, quarantine after 2 consecutive failures, replacement
    /// after 50 ms, and an unlimited power budget.
    pub fn new(hosts: usize, instances_per_host: usize) -> ClusterConfig {
        ClusterConfig {
            hosts: hosts.max(1),
            instances_per_host: instances_per_host.max(1),
            max_instances_per_host: (2 * instances_per_host).max(1),
            min_instances_per_host: 1,
            queue_capacity: 256,
            max_jobs_per_batch: 16,
            pu_slot_cap: 16,
            system: SystemConfig::f1(1 << 16),
            backend: Backend::Model { seed: 1 },
            fault: FaultPlan::none(),
            bursts: Vec::new(),
            retry_limit: 3,
            retry_backoff_us: 200,
            quarantine_after: 2,
            replace_after_us: 50_000,
            scale_eval_period_us: 1_000,
            scale_up_queue: 8,
            scale_up_streak: 3,
            scale_down_streak: 10,
            power_budget_mw: 0,
            affinity_penalty_us: 500,
        }
    }
}

/// A (virtual time, job) arrival stream in nondecreasing time order,
/// pulled lazily so million-job workloads never materialize in memory.
pub trait JobSource {
    /// The next arrival, or `None` when the stream is exhausted.
    /// Returned times must be nondecreasing.
    fn next_job(&mut self) -> Option<(u64, Job)>;
}

/// A [`JobSource`] over a pre-built vector (sorted on construction).
#[derive(Debug)]
pub struct VecSource {
    jobs: std::vec::IntoIter<(u64, Job)>,
}

impl VecSource {
    /// Wraps `jobs`, sorting by `(arrival time, job id)` so the stream
    /// order is deterministic regardless of construction order.
    pub fn new(mut jobs: Vec<(u64, Job)>) -> VecSource {
        jobs.sort_by_key(|(at, j)| (*at, j.id));
        VecSource { jobs: jobs.into_iter() }
    }
}

impl JobSource for VecSource {
    fn next_job(&mut self) -> Option<(u64, Job)> {
        self.jobs.next()
    }
}

/// How a launched batch will end (decided at launch; surfaced at its
/// completion event).
#[derive(Debug, Clone)]
enum Outcome {
    /// The run finishes cleanly, producing `out_bytes`.
    Done { out_bytes: u64, faults: u64 },
    /// The run wedges/fails; every member job retries or fails.
    Failed { faults: u64 },
}

#[derive(Debug)]
struct RunningBatch {
    batch: PackedBatch,
    run_us: u64,
    outcome: Outcome,
}

#[derive(Debug, Default)]
struct InstanceState {
    busy_until: Option<u64>,
    running: Option<RunningBatch>,
    quarantined_at: Option<u64>,
    consec_failures: u32,
    retired: bool,
    /// Board power this instance was costed at when provisioned, mW.
    mw: u64,
}

impl InstanceState {
    fn healthy(&self) -> bool {
        !self.retired && self.quarantined_at.is_none()
    }

    fn provisioned(&self) -> bool {
        !self.retired
    }
}

struct HostState {
    queue: SubmitQueue,
    predictor: Predictor,
    instances: Vec<InstanceState>,
    /// Engine-mode simulators, index-parallel with `instances`.
    engines: Vec<Instance>,
    compiled: BTreeMap<Arc<str>, CompiledUnit>,
    /// Specs this host has run — the warm set spec-affinity routing
    /// steers toward.
    warm: BTreeSet<Arc<str>>,
    /// Predicted run µs of each queued job, keyed by job id, so the
    /// backlog gauge updates in O(log n) on every queue transition.
    pending_pred: BTreeMap<u64, u64>,
    backlog_us: u64,
    sched: SchedCounters,
    fault: FaultPlan,
    batch_uid: u64,
    up_streak: u32,
    down_streak: u32,
}

impl HostState {
    fn healthy_instances(&self) -> usize {
        self.instances.iter().filter(|i| i.healthy()).count()
    }

    fn provisioned_instances(&self) -> usize {
        self.instances.iter().filter(|i| i.provisioned()).count()
    }

    fn note_queued(&mut self, job_id: u64, pred_us: u64) {
        self.pending_pred.insert(job_id, pred_us);
        self.backlog_us += pred_us;
    }

    fn note_dequeued(&mut self, job_id: u64) {
        if let Some(p) = self.pending_pred.remove(&job_id) {
            self.backlog_us -= p;
        }
    }
}

/// Why a job is being (re)placed — controls which router counters the
/// placement bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Fresh arrival from the source.
    Arrival,
    /// Replay after a failed batch (the avoided host failed it).
    Retry,
    /// Replay of a job drained out of a dead host's queue.
    Drain,
}

/// FNV-flavoured hash of a spec key for the model backend's hidden
/// per-spec slowdown (pure, deterministic, allocation-free).
fn key_hash(key: &str) -> u64 {
    key.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| mix64(h ^ b as u64))
}

/// The fleet-of-fleets: hosts behind a pressure/affinity router with
/// autoscaling and cross-host failover. See the module docs for the
/// model; construct with [`Cluster::new`] and drive a whole arrival
/// stream with [`Cluster::run`].
pub struct Cluster {
    cfg: ClusterConfig,
    clock_hz: u64,
    hosts: Vec<HostState>,
    /// Area-fitted PU slots per spec, memoized cluster-wide.
    spec_slots: BTreeMap<Arc<str>, usize>,
    /// Board power per spec (package + DRAM) in mW, memoized.
    spec_mw: BTreeMap<Arc<str>, u64>,
    cluster: ClusterCounters,
    latency: LatencyStats,
    offered: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    /// Pending retries: `(ready_us, seq) -> (host that failed it, job)`.
    retries: BTreeMap<(u64, u64), (usize, Job)>,
    retry_seq: u64,
    busy_us: u128,
    provisioned_us: u128,
    now: u64,
}

impl Cluster {
    /// Builds the cluster: every host starts with
    /// `cfg.instances_per_host` healthy instances, a fresh predictor
    /// seeded from the platform clock, and a fault plan derived from
    /// the base plan by host id.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let clock_hz = (cfg.system.platform.clock_hz as u64).max(1);
        let hosts = (0..cfg.hosts)
            .map(|h| {
                let instances =
                    (0..cfg.instances_per_host).map(|_| InstanceState::default()).collect();
                let engines = match cfg.backend {
                    Backend::Engine => (0..cfg.instances_per_host)
                        .map(|i| Instance::new(h * 1000 + i, cfg.system))
                        .collect(),
                    Backend::Model { .. } => Vec::new(),
                };
                HostState {
                    queue: SubmitQueue::new(cfg.queue_capacity),
                    predictor: Predictor::new(clock_hz),
                    instances,
                    engines,
                    compiled: BTreeMap::new(),
                    warm: BTreeSet::new(),
                    pending_pred: BTreeMap::new(),
                    backlog_us: 0,
                    sched: SchedCounters::default(),
                    fault: cfg.fault.derive(h as u64),
                    batch_uid: 0,
                    up_streak: 0,
                    down_streak: 0,
                }
            })
            .collect();
        let mut cluster = Cluster {
            clock_hz,
            hosts,
            spec_slots: BTreeMap::new(),
            spec_mw: BTreeMap::new(),
            cluster: ClusterCounters::default(),
            latency: LatencyStats::new(),
            offered: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            retries: BTreeMap::new(),
            retry_seq: 0,
            busy_us: 0,
            provisioned_us: 0,
            now: 0,
            cfg,
        };
        cluster.cluster.peak_instances = cluster.provisioned_total() as u64;
        cluster
    }

    fn provisioned_total(&self) -> usize {
        self.hosts.iter().map(|h| h.provisioned_instances()).sum()
    }

    fn provisioned_mw(&self) -> u64 {
        self.hosts
            .iter()
            .flat_map(|h| h.instances.iter())
            .filter(|i| i.provisioned())
            .map(|i| i.mw)
            .sum()
    }

    /// Virtual µs the engine watchdog burns before declaring a wedged
    /// run dead — what a model-mode failed batch occupies its instance
    /// for on top of the run itself.
    fn watchdog_us(&self) -> u64 {
        let cycles = self.cfg.system.watchdog_cycles;
        if cycles == 0 {
            return 1_000;
        }
        (cycles * 1_000_000).div_ceil(self.clock_hz).max(1)
    }

    /// Routing score for placing `job` on host `h` — lower is better.
    /// Pressure (predicted backlog + in-flight remaining, per healthy
    /// instance) plus the cold-spec affinity penalty and a small
    /// queue-depth term.
    fn score(&self, h: usize, job: &Job) -> u64 {
        let host = &self.hosts[h];
        let healthy = host.healthy_instances() as u64;
        let inflight: u64 = host
            .instances
            .iter()
            .filter(|i| i.healthy())
            .filter_map(|i| i.busy_until)
            .map(|u| u.saturating_sub(self.now))
            .sum();
        let pressure = (host.backlog_us + inflight) / healthy.max(1);
        let cold = if host.warm.contains(&job.spec_key) {
            0
        } else {
            self.cfg.affinity_penalty_us
        };
        pressure + cold + host.queue.len() as u64 * 10
    }

    /// Places `job` on the best-scoring healthy host with queue room,
    /// in `(score, host id)` order; `avoid` deprioritizes (but does not
    /// forbid) the host a failed run came from. Jobs no host can take
    /// — or that fail validation — are terminally rejected. Returns
    /// the chosen host, if any.
    fn place(&mut self, job: Job, kind: Place, avoid: Option<usize>) -> Option<usize> {
        if job.validate().is_err() {
            self.rejected += 1;
            return None;
        }
        let mut order: Vec<(u64, usize)> = (0..self.hosts.len())
            .filter(|&h| {
                self.hosts[h].healthy_instances() > 0
                    && self.hosts[h].queue.len() < self.cfg.queue_capacity
            })
            .map(|h| {
                let bias = if avoid == Some(h) { 1u64 << 40 } else { 0 };
                (self.score(h, &job).saturating_add(bias), h)
            })
            .collect();
        order.sort_unstable();
        let Some(&(_, h)) = order.first() else {
            self.rejected += 1;
            return None;
        };
        let max_bytes = job.streams.iter().map(|s| s.len() as u64).max().unwrap_or(1);
        let pred_us =
            self.hosts[h].predictor.predict_run_us(&job.spec_key, &job.spec, max_bytes);
        match kind {
            Place::Arrival => {
                self.cluster.routed += 1;
                if self.hosts[h].warm.contains(&job.spec_key) {
                    self.cluster.warm_hits += 1;
                }
            }
            Place::Retry => {
                if avoid != Some(h) {
                    self.cluster.reroutes += 1;
                }
            }
            Place::Drain => {
                self.cluster.reroutes += 1;
            }
        }
        let id = job.id;
        let host = &mut self.hosts[h];
        host.sched.submitted += 1;
        host.queue
            .submit(job, self.now)
            .expect("validated job submitted below the checked capacity");
        host.sched.admitted += 1;
        host.note_queued(id, pred_us);
        Some(h)
    }

    /// The fault plan a batch launched on host `h` right now derives
    /// from: an active burst's plan if one covers the host, else the
    /// host's base plan.
    fn active_plan(&self, h: usize) -> FaultPlan {
        for b in &self.cfg.bursts {
            if b.covers(h, self.now) {
                return b.plan.derive(h as u64);
            }
        }
        self.hosts[h].fault
    }

    /// Dispatches queued work on host `h`: packs a batch per idle
    /// healthy instance (lowest index first) until the queue empties
    /// or instances run out.
    fn dispatch_host(&mut self, h: usize) {
        loop {
            if self.hosts[h].queue.is_empty() {
                return;
            }
            let Some(i) = self.hosts[h]
                .instances
                .iter()
                .position(|inst| inst.healthy() && inst.busy_until.is_none())
            else {
                return;
            };
            // Split borrows: the pack closure memoizes area fits in
            // `spec_slots` while the queue and counters live in the
            // host — all distinct fields of `self`.
            let Cluster { hosts, spec_slots, cfg, .. } = self;
            let host = &mut hosts[h];
            let mut slots_for = |j: &Job| -> usize {
                if let Some(&s) = spec_slots.get(&j.spec_key) {
                    return s;
                }
                let fit = max_units(&j.spec, &cfg.system.platform, &cfg.system.memctl);
                let s = (fit as usize).clamp(1, cfg.pu_slot_cap.max(1));
                spec_slots.insert(j.spec_key.clone(), s);
                s
            };
            let mut pack_rejected = Vec::new();
            let batch = pack_batch(
                &mut host.queue,
                self.now,
                &mut slots_for,
                cfg.max_jobs_per_batch,
                &mut host.sched,
                &mut pack_rejected,
            );
            for r in &pack_rejected {
                host.note_dequeued(r.id);
            }
            self.rejected += pack_rejected.len() as u64;
            let Some(batch) = batch else { return };
            for job in &batch.jobs {
                self.hosts[h].note_dequeued(job.id);
            }
            self.launch(h, i, batch);
        }
    }

    /// Launches `batch` on `(h, i)`: decides the run's duration and
    /// outcome via the configured backend and occupies the instance
    /// until the completion event.
    fn launch(&mut self, h: usize, i: usize, batch: PackedBatch) {
        let uid = self.hosts[h].batch_uid;
        self.hosts[h].batch_uid += 1;
        self.hosts[h].warm.insert(batch.spec_key.clone());
        let plan = self.active_plan(h).derive(uid);
        let (run_us, outcome) = match self.cfg.backend {
            Backend::Model { seed } => self.model_run(h, uid, &batch, plan, seed),
            Backend::Engine => self.engine_run(h, i, &batch, plan),
        };
        let inst = &mut self.hosts[h].instances[i];
        inst.busy_until = Some(self.now + run_us.max(1));
        inst.running = Some(RunningBatch { batch, run_us, outcome });
    }

    /// Model-backend batch timing: structural seed × hidden per-spec
    /// slowdown (1–2×) × per-batch jitter (±6%), with wedge decisions
    /// from the pure-hash fault plan. Entirely independent of the
    /// (learning) predictor, so predictions converge toward this
    /// ground truth rather than echoing it.
    fn model_run(
        &self,
        h: usize,
        uid: u64,
        batch: &PackedBatch,
        plan: FaultPlan,
        seed: u64,
    ) -> (u64, Outcome) {
        let max_bytes =
            batch.jobs.iter().flat_map(|j| j.streams.iter()).map(|s| s.len() as u64).max();
        let max_bytes = max_bytes.unwrap_or(1).max(1);
        let base = Predictor::new(self.clock_hz).seed(&batch.spec).run_us(max_bytes);
        let kh = key_hash(&batch.spec_key);
        let slow_x1024 = 1024 + mix64(seed ^ kh) % 1024;
        let jit_x1024 = 960 + mix64(seed ^ kh ^ ((h as u64) << 40) ^ uid) % 129;
        let run_us = (base * slow_x1024 / 1024 * jit_x1024 / 1024).max(1);
        let wedged = (0..batch.slots_used as u64)
            .filter(|&s| plan.wedge_threshold(s).is_some())
            .count() as u64;
        if wedged > 0 {
            (run_us + self.watchdog_us(), Outcome::Failed { faults: wedged })
        } else {
            let in_bytes = batch.input_bytes();
            (run_us, Outcome::Done { out_bytes: in_bytes, faults: 0 })
        }
    }

    /// Engine-backend batch timing: compile (cached per host), run the
    /// cycle-accurate instance under the derived fault plan, and
    /// convert cycles to virtual µs in integer math.
    fn engine_run(
        &mut self,
        h: usize,
        i: usize,
        batch: &PackedBatch,
        plan: FaultPlan,
    ) -> (u64, Outcome) {
        let clock_hz = self.clock_hz;
        let host = &mut self.hosts[h];
        let compiled = host
            .compiled
            .entry(batch.spec_key.clone())
            .or_insert_with(|| CompiledUnit::from_arc(batch.spec.clone()));
        let streams = batch.stream_refs();
        let result =
            host.engines[i].run_compiled_faulted(compiled, &streams, batch.out_capacity, plan);
        match result {
            Ok(report) => {
                let run_us = (report.cycles * 1_000_000).div_ceil(clock_hz).max(1);
                (run_us, Outcome::Done {
                    out_bytes: report.output_bytes,
                    faults: report.faults_injected,
                })
            }
            Err(failure) => {
                let run_us = (failure.cycles * 1_000_000).div_ceil(clock_hz).max(1);
                (run_us, Outcome::Failed { faults: failure.faults_injected })
            }
        }
    }

    /// Processes the completion event of `(h, i)`: completes or
    /// retries member jobs, feeds the predictor, and runs the
    /// quarantine / drain-to-sibling failover path.
    fn complete(&mut self, h: usize, i: usize) {
        let inst = &mut self.hosts[h].instances[i];
        inst.busy_until = None;
        let Some(run) = inst.running.take() else { return };
        let RunningBatch { batch, run_us, outcome } = run;
        match outcome {
            Outcome::Done { out_bytes, faults } => {
                let host = &mut self.hosts[h];
                host.instances[i].consec_failures = 0;
                host.sched.faults_injected += faults;
                let max_bytes = batch
                    .jobs
                    .iter()
                    .flat_map(|j| j.streams.iter())
                    .map(|s| s.len() as u64)
                    .max()
                    .unwrap_or(1);
                let in_bytes = batch.input_bytes();
                host.predictor.observe(
                    self.now,
                    i,
                    &batch.spec_key,
                    &batch.spec,
                    max_bytes,
                    run_us,
                    in_bytes,
                    out_bytes,
                );
                for job in &batch.jobs {
                    host.sched.completed += 1;
                    if job.deadline_us.is_some_and(|d| d < self.now) {
                        host.sched.deadline_misses += 1;
                    }
                    self.completed += 1;
                    self.latency.record(self.now.saturating_sub(job.arrival_us));
                }
            }
            Outcome::Failed { faults } => {
                let cfg_quarantine = self.cfg.quarantine_after;
                let retry_limit = self.cfg.retry_limit;
                let backoff_base = self.cfg.retry_backoff_us;
                let host = &mut self.hosts[h];
                host.sched.faults_injected += faults;
                host.instances[i].consec_failures += 1;
                let quarantine = cfg_quarantine > 0
                    && host.instances[i].consec_failures >= cfg_quarantine;
                if quarantine {
                    host.instances[i].quarantined_at = Some(self.now);
                    host.sched.quarantines += 1;
                }
                for mut job in batch.jobs {
                    job.attempts += 1;
                    if job.attempts <= retry_limit {
                        self.hosts[h].sched.retries += 1;
                        let shift = (job.attempts - 1).min(3);
                        let ready = self.now + (backoff_base << shift).max(1);
                        let seq = self.retry_seq;
                        self.retry_seq += 1;
                        self.retries.insert((ready, seq), (h, job));
                    } else {
                        self.hosts[h].sched.failed += 1;
                        self.failed += 1;
                    }
                }
                if quarantine && self.hosts[h].healthy_instances() == 0 {
                    self.cluster.host_quarantines += 1;
                    self.drain_host(h);
                }
            }
        }
    }

    /// Drains every queued job off dead host `h` and replays each on a
    /// sibling — jobs come back in id order, so the replay sequence is
    /// deterministic.
    fn drain_host(&mut self, h: usize) {
        let drained = self.hosts[h].queue.drain_all();
        for job in drained {
            self.hosts[h].note_dequeued(job.id);
            self.cluster.drained_jobs += 1;
            self.place(job, Place::Drain, Some(h));
        }
    }

    /// One autoscaler evaluation: board replacements first, then
    /// hysteresis scale-up/down, host by host in id order.
    fn tick(&mut self) {
        for h in 0..self.hosts.len() {
            // Replacements: a quarantined board past the swap delay
            // comes back fresh.
            if self.cfg.replace_after_us > 0 {
                for i in 0..self.hosts[h].instances.len() {
                    let due = {
                        let inst = &self.hosts[h].instances[i];
                        !inst.retired
                            && inst
                                .quarantined_at
                                .is_some_and(|t| t + self.cfg.replace_after_us <= self.now)
                    };
                    if due {
                        let inst = &mut self.hosts[h].instances[i];
                        inst.quarantined_at = None;
                        inst.consec_failures = 0;
                        if matches!(self.cfg.backend, Backend::Engine) {
                            self.hosts[h].engines[i] =
                                Instance::new(h * 1000 + i, self.cfg.system);
                        }
                        self.cluster.replacements += 1;
                    }
                }
            }

            // Hysteresis: streaks of pressured / idle evaluations.
            let (deep, idle) = {
                let host = &self.hosts[h];
                let deep = host.queue.len() >= self.cfg.scale_up_queue.max(1);
                let idle = host.queue.is_empty()
                    && host
                        .instances
                        .iter()
                        .filter(|x| x.healthy())
                        .all(|x| x.busy_until.is_none());
                (deep, idle)
            };
            if deep {
                self.hosts[h].up_streak += 1;
                self.hosts[h].down_streak = 0;
            } else if idle {
                self.hosts[h].down_streak += 1;
                self.hosts[h].up_streak = 0;
            } else {
                self.hosts[h].up_streak = 0;
                self.hosts[h].down_streak = 0;
            }

            if self.hosts[h].up_streak >= self.cfg.scale_up_streak.max(1)
                && self.hosts[h].provisioned_instances() < self.cfg.max_instances_per_host
            {
                self.scale_up(h);
            } else if self.hosts[h].down_streak >= self.cfg.scale_down_streak.max(1)
                && self.hosts[h].provisioned_instances() > self.cfg.min_instances_per_host
            {
                self.scale_down(h);
            }
        }
    }

    /// Adds one instance to host `h` if the new board's area-model
    /// power cost fits the cluster budget. Costed from the spec at the
    /// host's queue head (the work the board is being added for).
    fn scale_up(&mut self, h: usize) {
        let mw = {
            let Cluster { hosts, spec_slots, spec_mw, cfg, .. } = self;
            let Some(head) = hosts[h].queue.peek(None) else { return };
            if let Some(&mw) = spec_mw.get(&head.spec_key) {
                mw
            } else {
                let fit = spec_slots.entry(head.spec_key.clone()).or_insert_with(|| {
                    let n = max_units(&head.spec, &cfg.system.platform, &cfg.system.memctl);
                    (n as usize).clamp(1, cfg.pu_slot_cap.max(1))
                });
                let area =
                    design_area(&head.spec, *fit, &cfg.system.platform, &cfg.system.memctl);
                let watts =
                    cfg.system.platform.package_watts(area) + cfg.system.platform.dram_watts;
                let mw = ((watts * 1000.0).round() as u64).max(1);
                spec_mw.insert(head.spec_key.clone(), mw);
                mw
            }
        };
        if self.cfg.power_budget_mw > 0
            && self.provisioned_mw() + mw > self.cfg.power_budget_mw
        {
            return;
        }
        // Reuse the highest retired slot (keeps `engines` index-
        // parallel) or append a new one.
        let host = &mut self.hosts[h];
        if let Some(i) = host.instances.iter().rposition(|x| x.retired) {
            host.instances[i] = InstanceState { mw, ..InstanceState::default() };
            if matches!(self.cfg.backend, Backend::Engine) {
                host.engines[i] = Instance::new(h * 1000 + i, self.cfg.system);
            }
        } else {
            let i = host.instances.len();
            host.instances.push(InstanceState { mw, ..InstanceState::default() });
            if matches!(self.cfg.backend, Backend::Engine) {
                host.engines.push(Instance::new(h * 1000 + i, self.cfg.system));
            }
        }
        host.up_streak = 0;
        self.cluster.scale_ups += 1;
        self.cluster.peak_instances =
            self.cluster.peak_instances.max(self.provisioned_total() as u64);
    }

    /// Retires the highest-index idle healthy instance of host `h`.
    fn scale_down(&mut self, h: usize) {
        let host = &mut self.hosts[h];
        let Some(i) = host
            .instances
            .iter()
            .rposition(|x| x.healthy() && x.busy_until.is_none())
        else {
            return;
        };
        host.instances[i].retired = true;
        host.down_streak = 0;
        self.cluster.scale_downs += 1;
    }

    /// Whether any work is still in flight or waiting anywhere.
    fn outstanding(&self) -> bool {
        !self.retries.is_empty()
            || self.hosts.iter().any(|host| {
                !host.queue.is_empty()
                    || host.instances.iter().any(|i| i.busy_until.is_some())
            })
    }

    /// Serves the whole arrival stream to completion and builds the
    /// report. Consumes the cluster: a serve is one-shot, like
    /// [`fleet_host::Host::serve_arrivals`].
    pub fn run(mut self, source: &mut dyn JobSource) -> ClusterReport {
        let period = self.cfg.scale_eval_period_us.max(1);
        let mut next_arrival = source.next_job();
        let mut next_tick = period;
        loop {
            // Next event: the earliest of arrival, retry readiness,
            // batch completion, and (while work is outstanding) the
            // autoscaler tick.
            let mut t = u64::MAX;
            if let Some((at, _)) = &next_arrival {
                t = t.min(*at);
            }
            if let Some(((ready, _), _)) = self.retries.iter().next() {
                t = t.min(*ready);
            }
            for host in &self.hosts {
                for inst in &host.instances {
                    if let Some(u) = inst.busy_until {
                        t = t.min(u);
                    }
                }
            }
            if (next_arrival.is_some() || self.outstanding()) && t != u64::MAX {
                t = t.min(next_tick.max(self.now));
            }
            if t == u64::MAX {
                break;
            }

            // Advance the clock, integrating utilization over the gap.
            let dt = t.saturating_sub(self.now) as u128;
            if dt > 0 {
                let mut busy = 0u128;
                let mut prov = 0u128;
                for host in &self.hosts {
                    for inst in &host.instances {
                        if inst.provisioned() {
                            prov += 1;
                            if inst.busy_until.is_some() {
                                busy += 1;
                            }
                        }
                    }
                }
                self.busy_us += busy * dt;
                self.provisioned_us += prov * dt;
            }
            self.now = t;

            // 1. Completions, in (host, instance) order.
            for h in 0..self.hosts.len() {
                for i in 0..self.hosts[h].instances.len() {
                    if self.hosts[h].instances[i].busy_until.is_some_and(|u| u <= self.now) {
                        self.complete(h, i);
                    }
                }
            }

            // 2. Learning becomes visible at its virtual time.
            for host in &mut self.hosts {
                host.predictor.apply_due(self.now);
            }

            // 3. Autoscaler / replacement ticks.
            while next_tick <= self.now {
                self.tick();
                next_tick += period;
            }

            // 4. Retries whose backoff expired, in (ready, seq) order.
            while let Some(entry) = self.retries.first_entry_key_value() {
                if entry.0 > self.now {
                    break;
                }
                let (key, (from, job)) = self.retries.pop_first().expect("peeked entry pops");
                debug_assert!(key.0 <= self.now);
                self.place(job, Place::Retry, Some(from));
            }

            // 5. Arrivals due now, in source order.
            while let Some((at, mut job)) = next_arrival.take() {
                if at > self.now {
                    next_arrival = Some((at, job));
                    break;
                }
                job.arrival_us = at;
                self.offered += 1;
                self.place(job, Place::Arrival, None);
                next_arrival = source.next_job();
            }

            // 6. Dispatch freed/filled capacity, host by host.
            for h in 0..self.hosts.len() {
                self.dispatch_host(h);
            }
        }

        self.build_report()
    }

    fn build_report(self) -> ClusterReport {
        let mut sched = SchedCounters::default();
        let mut per_host = Vec::with_capacity(self.hosts.len());
        for (h, host) in self.hosts.iter().enumerate() {
            sched.merge(&host.sched);
            per_host.push(HostSummary {
                host: h,
                instances: host.provisioned_instances(),
                quarantined: host
                    .instances
                    .iter()
                    .filter(|i| !i.retired && i.quarantined_at.is_some())
                    .count(),
                sched: host.sched,
            });
        }
        ClusterReport {
            hosts: self.cfg.hosts,
            offered: self.offered,
            completed: self.completed,
            failed: self.failed,
            rejected: self.rejected,
            virtual_us: self.now,
            busy_instance_us: self.busy_us,
            provisioned_instance_us: self.provisioned_us,
            latency: self.latency,
            cluster: self.cluster,
            sched,
            per_host,
        }
    }
}

/// `BTreeMap::first_key_value` adapter returning just the key — kept
/// separate so the retry loop reads naturally.
trait FirstEntry<K: Clone, V> {
    fn first_entry_key_value(&self) -> Option<K>;
}

impl<K: Ord + Clone, V> FirstEntry<K, V> for BTreeMap<K, V> {
    fn first_entry_key_value(&self) -> Option<K> {
        self.keys().next().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_lang::{UnitBuilder, UnitSpec};

    fn byte_spec() -> Arc<UnitSpec> {
        let mut u = UnitBuilder::new("Byte", 8, 8);
        let acc = u.reg("acc", 8, 0);
        let inp = u.input();
        u.set(acc, acc ^ inp);
        Arc::new(u.build().unwrap())
    }

    fn wide_spec() -> Arc<UnitSpec> {
        let mut u = UnitBuilder::new("Wide", 32, 32);
        let acc = u.reg("acc", 32, 0);
        let inp = u.input();
        u.set(acc, acc ^ inp);
        Arc::new(u.build().unwrap())
    }

    fn workload(n: u64, spec: &Arc<UnitSpec>, gap_us: u64, bytes: usize) -> Vec<(u64, Job)> {
        (0..n)
            .map(|i| {
                let job =
                    Job::new(i, (i % 3) as u32, spec.clone(), vec![vec![0u8; bytes]]);
                (i * gap_us, job)
            })
            .collect()
    }

    fn model_cfg(hosts: usize, instances: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(hosts, instances);
        cfg.backend = Backend::Model { seed: 42 };
        cfg.pu_slot_cap = 4;
        cfg
    }

    #[test]
    fn fault_free_model_serve_completes_everything() {
        let spec = byte_spec();
        let cfg = model_cfg(2, 2);
        let mut source = VecSource::new(workload(100, &spec, 20, 1024));
        let report = Cluster::new(cfg).run(&mut source);
        assert_eq!(report.offered, 100);
        assert_eq!(report.completed, 100);
        assert_eq!(report.failed, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.cluster.routed, 100);
        assert!(report.latency.count() == 100);
        assert!(report.virtual_us > 0);
    }

    #[test]
    fn conservation_holds_under_wedges() {
        let spec = byte_spec();
        let mut cfg = model_cfg(3, 2);
        cfg.fault = FaultPlan::with_seed(7).wedges(60_000, 64);
        cfg.retry_limit = 2;
        let n = 400;
        let mut source = VecSource::new(workload(n, &spec, 10, 2048));
        let report = Cluster::new(cfg).run(&mut source);
        assert_eq!(report.offered, n);
        assert_eq!(
            report.completed + report.failed + report.rejected,
            n,
            "every job must end exactly once: {report:?}",
        );
        assert!(report.sched.faults_injected > 0, "wedge plan must actually fire");
    }

    #[test]
    fn model_serves_are_byte_identical_across_reruns() {
        let spec = byte_spec();
        let build = || {
            let mut cfg = model_cfg(4, 2);
            cfg.fault = FaultPlan::with_seed(9).wedges(30_000, 64);
            cfg.bursts = vec![FaultBurst {
                start_us: 500,
                end_us: 2_000,
                host_lo: 0,
                host_hi: 1,
                plan: FaultPlan::with_seed(77).wedges(400_000, 64),
            }];
            let mut source = VecSource::new(workload(300, &spec, 15, 1024));
            Cluster::new(cfg).run(&mut source).to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn warm_hosts_attract_their_spec() {
        let byte = byte_spec();
        let wide = wide_spec();
        let mut cfg = model_cfg(2, 2);
        cfg.affinity_penalty_us = 10_000;
        // Alternate specs; affinity should segregate them onto the
        // host that first ran each, yielding a high warm-hit rate.
        let mut jobs = Vec::new();
        for i in 0..200u64 {
            let spec = if i % 2 == 0 { &byte } else { &wide };
            jobs.push((i * 30, Job::new(i, 0, spec.clone(), vec![vec![0u8; 1024]])));
        }
        let mut source = VecSource::new(jobs);
        let report = Cluster::new(cfg).run(&mut source);
        assert_eq!(report.completed, 200);
        assert!(
            report.cluster.warm_hits > 150,
            "affinity routing should land most jobs warm: {}",
            report.cluster.warm_hits
        );
    }

    #[test]
    fn sustained_pressure_scales_up_and_idle_scales_down() {
        let spec = byte_spec();
        let mut cfg = model_cfg(1, 1);
        cfg.max_instances_per_host = 4;
        cfg.scale_up_queue = 4;
        cfg.scale_up_streak = 2;
        cfg.scale_down_streak = 3;
        cfg.scale_eval_period_us = 100;
        // A burst of work far beyond one instance, then a long tail of
        // trickle arrivals to give the scaler idle ticks.
        let mut jobs = workload(150, &spec, 2, 4096);
        for i in 0..5u64 {
            jobs.push((
                200_000 + i * 20_000,
                Job::new(1_000 + i, 0, spec.clone(), vec![vec![0u8; 256]]),
            ));
        }
        let mut source = VecSource::new(jobs);
        let report = Cluster::new(cfg).run(&mut source);
        assert_eq!(report.completed, 155);
        assert!(report.cluster.scale_ups > 0, "deep queue must add instances");
        assert!(report.cluster.scale_downs > 0, "idle tail must retire instances");
        assert!(report.cluster.peak_instances > 1);
    }

    #[test]
    fn dead_host_drains_to_siblings_and_recovers_by_replacement() {
        let spec = byte_spec();
        let mut cfg = model_cfg(2, 1);
        cfg.quarantine_after = 1;
        cfg.retry_limit = 4;
        cfg.replace_after_us = 5_000;
        // Host 0 wedges everything during the burst; host 1 is clean.
        cfg.bursts = vec![FaultBurst {
            start_us: 0,
            end_us: 40_000,
            host_lo: 0,
            host_hi: 0,
            plan: FaultPlan::with_seed(5).wedges(1_000_000, 16),
        }];
        let mut jobs = workload(120, &spec, 25, 1024);
        // A tail arrival keeps the virtual clock (and scaler ticks)
        // running past host 0's board-swap delay.
        jobs.push((60_000, Job::new(5_000, 0, spec.clone(), vec![vec![0u8; 512]])));
        let mut source = VecSource::new(jobs);
        let report = Cluster::new(cfg).run(&mut source);
        assert_eq!(report.offered, 121);
        assert_eq!(
            report.completed + report.failed + report.rejected,
            121,
            "conservation through quarantine/drain/replacement"
        );
        assert!(report.sched.quarantines > 0, "host 0 must quarantine");
        assert!(
            report.cluster.reroutes > 0,
            "failed work must replay on the healthy sibling"
        );
        assert!(report.cluster.replacements > 0, "board swap must restore host 0");
        assert!(report.availability() > 0.9, "got {}", report.availability());
    }

    #[test]
    fn engine_backend_runs_real_instances() {
        let spec = byte_spec();
        let mut cfg = ClusterConfig::new(2, 1);
        cfg.backend = Backend::Engine;
        cfg.pu_slot_cap = 4;
        cfg.system.max_cycles = 50_000_000;
        let mut source = VecSource::new(workload(12, &spec, 50, 512));
        let report = Cluster::new(cfg).run(&mut source);
        assert_eq!(report.completed, 12);
        assert_eq!(report.failed + report.rejected, 0);
        assert!(report.sched.batches_packed > 0);
    }

    #[test]
    fn power_budget_caps_scale_up() {
        let spec = byte_spec();
        let mut cfg = model_cfg(1, 1);
        cfg.max_instances_per_host = 8;
        cfg.scale_up_queue = 2;
        cfg.scale_up_streak = 1;
        cfg.scale_eval_period_us = 50;
        // Budget for roughly the one provisioned board (whose mw is 0:
        // seed instances are free) plus one more board — the second
        // scale-up must be refused.
        cfg.power_budget_mw = 25_000;
        let mut source = VecSource::new(workload(300, &spec, 1, 4096));
        let report = Cluster::new(cfg).run(&mut source);
        assert_eq!(report.completed + report.failed + report.rejected, 300);
        assert!(
            report.cluster.scale_ups <= 1,
            "budget must cap provisioning: {} scale-ups",
            report.cluster.scale_ups
        );
    }
}
