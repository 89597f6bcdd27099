//! The serving runtime: an event-driven virtual-time scheduler over a
//! pool of simulated F1 instances.
//!
//! Time is *virtual*: arrivals carry virtual timestamps, instance runs
//! advance the clock by their simulated platform seconds, and the
//! host-side pack/drain costs come from a simple linear model. The
//! whole serve is therefore bit-for-bit deterministic for a fixed job
//! set — wall-clock thread scheduling never leaks into the results,
//! even though busy instances really do simulate concurrently on a
//! `std::thread::scope` worker pool.
//!
//! The loop: admit arrivals due now into the bounded WFQ queue → pack
//! one batch per idle instance → run all launched batches in parallel →
//! stamp completions (drains serialize per instance, in completion
//! order) → advance the clock to the next arrival or batch completion.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use fleet_compiler::CompiledUnit;
use fleet_fault::FaultPlan;
use fleet_session::{Session, SessionId, SessionRecord, SessionState};
use fleet_system::{
    max_units, Instance, RunFailure, RunReport, SimPool, SystemConfig, SystemError,
};
use fleet_trace::SchedCounters;

use crate::arrival::{Arrival, ArrivalSource, VecArrivals};
use crate::job::{CompletedJob, FailedJob, Job, JobLatency, RejectedJob, TenantId};
use crate::pack::{pack_batch_policy, top_up_batch, PackedBatch};
use crate::policy::{CostModel, PackPolicy, PolicyKind};
use crate::predict::Predictor;
use crate::queue::SubmitQueue;
use crate::report::ServiceReport;

/// Serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Simulated F1 instances in the pool.
    pub instances: usize,
    /// Submission-queue bound (admission control backpressures past
    /// this).
    pub queue_capacity: usize,
    /// Most jobs one batch may carry.
    pub max_jobs_per_batch: usize,
    /// Cap on the area-fitted PU slots per instance (the fit for small
    /// units runs to the hundreds; simulation cost scales with it).
    pub pu_slot_cap: usize,
    /// Per-instance platform and controller model. The out-capacity
    /// field is overridden per batch.
    pub system: SystemConfig,
    /// Host-side packing cost: fixed per batch, in virtual µs.
    pub pack_us_fixed: u64,
    /// Host-side packing cost per packed stream, in virtual µs.
    pub pack_us_per_stream: u64,
    /// Host-side drain cost per KiB of output, in virtual µs.
    pub drain_us_per_kib: u64,
    /// Per-tenant WFQ weights; unlisted tenants weigh 1.
    pub weights: Vec<(TenantId, u32)>,
    /// Per-job service budget on the virtual clock: a job still waiting
    /// (queued or in retry backoff) this long after its arrival fails
    /// with a timeout instead of waiting forever. `None` disables.
    pub job_timeout_us: Option<u64>,
    /// Times a job whose batch failed retryably is re-queued before the
    /// host gives up on it (the retry budget).
    pub retry_limit: u32,
    /// Base backoff before a retried job re-enters the queue, in
    /// virtual µs; doubles per attempt up to
    /// [`HostConfig::retry_backoff_cap_us`].
    pub retry_backoff_us: u64,
    /// Cap on the exponential retry backoff, in virtual µs.
    pub retry_backoff_cap_us: u64,
    /// Consecutive batch failures on one instance before it is pulled
    /// from the pool (quarantined) and its work re-queued onto healthy
    /// instances. 0 disables quarantine.
    pub quarantine_after: u32,
    /// Virtual µs a resident session may sit with nothing staged before
    /// its slot residency is evicted (the engine state is kept; the
    /// session re-admits when its next chunk arrives). 0 disables
    /// idle eviction.
    pub session_idle_evict_us: u64,
    /// Fault-injection plan. Each launched batch runs under a plan
    /// derived from this one by a deterministic batch counter, so a
    /// serve is reproducible for a fixed seed no matter how batches
    /// land on instances. The default ([`FaultPlan::none`]) injects
    /// nothing and leaves the simulation bit-identical to a host
    /// without fault support.
    pub fault: FaultPlan,
    /// The pack policy: release order, batch-close deferral, and
    /// proactive shedding. The default ([`PolicyKind::FirstFit`])
    /// reproduces the pre-policy host byte-for-byte.
    pub policy: PolicyKind,
    /// Longest a deferring policy may hold an under-filled batch past
    /// its oldest member's arrival, in virtual µs (see
    /// [`crate::policy::DeferFill`]).
    pub defer_cap_us: u64,
}

impl HostConfig {
    /// Defaults sized for simulation-scale serving: bounded queue of
    /// 1024 jobs, up to 32 jobs per batch, at most 64 PU slots per
    /// instance, and µs-scale host overheads.
    pub fn new(instances: usize) -> HostConfig {
        HostConfig {
            instances: instances.max(1),
            queue_capacity: 1024,
            max_jobs_per_batch: 32,
            pu_slot_cap: 64,
            system: SystemConfig::f1(4096),
            pack_us_fixed: 5,
            pack_us_per_stream: 1,
            drain_us_per_kib: 1,
            weights: Vec::new(),
            job_timeout_us: None,
            retry_limit: 2,
            retry_backoff_us: 200,
            retry_backoff_cap_us: 10_000,
            quarantine_after: 3,
            session_idle_evict_us: 10_000,
            fault: FaultPlan::none(),
            policy: PolicyKind::FirstFit,
            defer_cap_us: 300,
        }
    }
}

/// Whether a failed batch is worth retrying. Output overflow is a
/// property of the job itself (its capacity ask), so re-running can
/// only reproduce it; everything else — wedge, stall, cycle timeout,
/// worker panic — may be fault-induced and transient.
fn retryable(error: &SystemError) -> bool {
    !matches!(error, SystemError::OutputOverflow { .. })
}

/// The multi-tenant job scheduler and its instance pool.
#[derive(Debug)]
pub struct Host {
    cfg: HostConfig,
    /// The instantiated pack policy (from [`HostConfig::policy`]).
    policy: Box<dyn PackPolicy>,
    /// Per-spec online run-time models feeding the policy's
    /// predictions; mutates only in virtual-clock order.
    predictor: Predictor,
    /// Area-fit results per spec key (compiling a unit for the area
    /// model is expensive; every batch of the same spec reuses it).
    slot_cache: BTreeMap<Arc<str>, usize>,
    /// Compiled programs per spec key: validation and SSA lowering run
    /// once per spec on the scheduler thread, and every batch replicates
    /// executors from the shared program instead of recompiling.
    compiled_cache: BTreeMap<Arc<str>, CompiledUnit>,
    /// One process-wide simulation worker pool, sized by
    /// [`SystemConfig::sim_threads`] and shared by every instance: the
    /// per-batch scoped coordinators submit their PU-evaluation shards
    /// here, so concurrent batches never stack nested compute threads
    /// and the evaluation work in flight is bounded by the pool no
    /// matter how many instances run at once.
    pool: Arc<SimPool>,
}

impl Host {
    /// Creates a host with the given configuration.
    pub fn new(cfg: HostConfig) -> Host {
        let pool = Arc::new(SimPool::new(cfg.system.sim_threads));
        let policy = cfg.policy.build();
        let predictor = Predictor::new(cfg.system.platform.clock_hz as u64);
        Host {
            cfg,
            policy,
            predictor,
            slot_cache: BTreeMap::new(),
            compiled_cache: BTreeMap::new(),
            pool,
        }
    }

    /// Predicted run time of a job on this host's current models, in
    /// virtual µs (the quantity predictive policies schedule on).
    pub fn predict_run_us(&self, job: &Job) -> u64 {
        let max_bytes = job.streams.iter().map(|s| s.len() as u64).max().unwrap_or(0);
        self.predictor.predict_run_us(&job.spec_key, &job.spec, max_bytes)
    }

    /// The configuration the host was built with.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// PU slots one instance offers for a job's spec: the area-fitted
    /// unit count, capped by [`HostConfig::pu_slot_cap`], memoized per
    /// spec key.
    fn slots_for(
        cache: &mut BTreeMap<Arc<str>, usize>,
        cfg: &HostConfig,
        job: &Job,
    ) -> usize {
        if let Some(&slots) = cache.get(&job.spec_key) {
            return slots;
        }
        let fit = max_units(&job.spec, &cfg.system.platform, &cfg.system.memctl) as usize;
        let slots = fit.clamp(1, cfg.pu_slot_cap.max(1));
        cache.insert(job.spec_key.clone(), slots);
        slots
    }

    /// Serves a complete workload: every job is admitted at its virtual
    /// arrival time, scheduled, run, and drained (or rejected), and the
    /// full service report comes back once the system is empty.
    ///
    /// Deterministic: the same job set (same ids, arrivals, streams)
    /// produces an identical report, regardless of how the worker
    /// threads interleave in wall time.
    ///
    /// Equivalent to [`Host::serve_arrivals`] over a [`VecArrivals`]
    /// timeline.
    pub fn serve(&mut self, jobs: Vec<Job>) -> ServiceReport {
        self.serve_arrivals(VecArrivals::new(jobs))
    }

    /// Serves an arbitrary arrival timeline: one-shot jobs interleaved
    /// with long-lived session opens, chunk appends, and closes.
    ///
    /// Jobs follow the batch path exactly as in [`Host::serve`].
    /// Sessions coexist by time-sharing: each loop iteration an idle,
    /// healthy instance either advances one ready resident session
    /// (earliest `(ready_since, id)` wins) or packs one job batch.
    /// Sessions hold slot residency (their stream count, bounded by
    /// [`HostConfig::pu_slot_cap`] per instance); idle residents are
    /// evicted after [`HostConfig::session_idle_evict_us`] and
    /// re-admitted when their next chunk arrives. Once the timeline is
    /// exhausted, sessions the client never closed are force-closed so
    /// the serve terminates with every session in exactly one reported
    /// state.
    pub fn serve_arrivals<S: ArrivalSource>(&mut self, mut source: S) -> ServiceReport {
        let first_arrival = source.peek_us().unwrap_or(0);

        let mut queue = SubmitQueue::new(self.cfg.queue_capacity);
        for &(tenant, weight) in &self.cfg.weights {
            queue.set_weight(tenant, weight);
        }

        let mut counters = SchedCounters::default();
        let mut completed: Vec<CompletedJob> = Vec::new();
        let mut rejected: Vec<RejectedJob> = Vec::new();
        let mut failed: Vec<FailedJob> = Vec::new();

        let mut instances: Vec<Instance> = (0..self.cfg.instances)
            .map(|i| Instance::new(i, self.cfg.system).with_pool(self.pool.clone()))
            .collect();
        let n = instances.len();
        let mut busy_until: Vec<Option<u64>> = vec![None; n];
        let mut quarantined: Vec<bool> = vec![false; n];
        let mut consec_failures: Vec<u32> = vec![0; n];
        // Failed jobs waiting out their retry backoff, as
        // (ready_at_us, job), kept sorted by (ready_at_us, id).
        let mut retries: Vec<(u64, Job)> = Vec::new();
        // Deterministic per-batch fault-plan derivation counter: batches
        // are numbered in (loop-iteration, instance-index) order at
        // *launch*, which never depends on wall-clock thread
        // interleaving (a deferred batch draws its plan when it finally
        // launches, like any other).
        let mut batch_uid: u64 = 0;
        // Under-filled batches a deferring policy is holding open, as
        // (batch, hold-deadline) per instance. The instance stays
        // reserved; the batch is topped up with compatible arrivals and
        // launches when full or when the hold expires.
        let mut held: Vec<Option<(PackedBatch, u64)>> = (0..n).map(|_| None).collect();

        // Live sessions and their scheduling state. Residency is the
        // stream count a session reserves on its instance; sessions
        // waiting for a residency slot queue in `pending_admit` (FIFO,
        // mirrored by `pending_set` for O(log n) membership tests).
        let mut sessions: BTreeMap<SessionId, Session> = BTreeMap::new();
        let mut session_records: Vec<SessionRecord> = Vec::new();
        let mut resident_on: BTreeMap<SessionId, usize> = BTreeMap::new();
        let mut resident_streams: Vec<usize> = vec![0; n];
        let mut pending_admit: VecDeque<SessionId> = VecDeque::new();
        let mut pending_set: BTreeSet<SessionId> = BTreeSet::new();
        let mut open_now: u64 = 0;
        let mut force_closed_all = false;

        let mut now = first_arrival;

        loop {
            // Admit everything that has arrived by now, in arrival
            // order; the job queue backpressures past its bound, and
            // session appends backpressure past their credit.
            while source.peek_us().is_some_and(|t| t <= now) {
                match source.next_arrival().expect("peeked arrival") {
                    Arrival::Job(job) => {
                        counters.submitted += 1;
                        match queue.submit(job, now) {
                            Ok(()) => counters.admitted += 1,
                            Err(r) => {
                                match r.reason {
                                    crate::job::RejectReason::QueueFull => {
                                        counters.rejected_queue_full += 1;
                                    }
                                    _ => counters.rejected_malformed += 1,
                                }
                                rejected.push(r);
                            }
                        }
                    }
                    Arrival::Open(o) => {
                        counters.sessions.opened += 1;
                        let tok = (o.spec.input_token_bits as usize / 8).max(1);
                        let malformed = if o.cfg.streams == 0 {
                            Some("no streams")
                        } else if o.cfg.streams > self.cfg.pu_slot_cap.max(1) {
                            Some("streams exceed instance slot capacity")
                        } else if o.cfg.stream_capacity % tok != 0 {
                            Some("stream capacity is not a whole number of tokens")
                        } else {
                            None
                        };
                        if let Some(why) = malformed {
                            counters.sessions.failed += 1;
                            session_records.push(SessionRecord {
                                id: o.id,
                                tenant: o.tenant,
                                opened_us: o.at_us,
                                finished_us: o.at_us,
                                outcome: format!("failed: rejected at open: {why}"),
                                ..SessionRecord::default()
                            });
                        } else {
                            let s = Session::new(o.id, o.tenant, o.spec, o.cfg, o.at_us);
                            open_now += 1;
                            counters.sessions.peak_open =
                                counters.sessions.peak_open.max(open_now);
                            sessions.insert(o.id, s);
                            if pending_set.insert(o.id) {
                                pending_admit.push_back(o.id);
                            }
                        }
                    }
                    Arrival::Append { session, stream, bytes, at_us } => {
                        if let Some(s) = sessions.get_mut(&session) {
                            if stream >= s.config().streams {
                                continue;
                            }
                            let len = bytes.len() as u64;
                            match s.append(stream, bytes, at_us) {
                                Ok(()) => {
                                    counters.sessions.appends += 1;
                                    counters.sessions.append_bytes += len;
                                    if !resident_on.contains_key(&session)
                                        && pending_set.insert(session)
                                    {
                                        pending_admit.push_back(session);
                                    }
                                }
                                Err(fleet_session::AppendError::Closed) => {}
                                Err(_) => counters.sessions.backpressure += 1,
                            }
                        }
                    }
                    Arrival::Close { session, at_us } => {
                        if let Some(s) = sessions.get_mut(&session) {
                            if s.state() == SessionState::Open {
                                counters.sessions.closes += 1;
                                s.request_close(at_us);
                                if !resident_on.contains_key(&session)
                                    && pending_set.insert(session)
                                {
                                    pending_admit.push_back(session);
                                }
                            }
                        }
                    }
                }
            }

            // The timeline is exhausted: no session can ever receive
            // another chunk, so close whatever the clients left open
            // (once — no new sessions can appear after this).
            if !force_closed_all && source.peek_us().is_none() {
                force_closed_all = true;
                for (&sid, s) in sessions.iter_mut() {
                    if s.state() == SessionState::Open {
                        counters.sessions.force_closed += 1;
                        s.force_closed = true;
                        s.request_close(now);
                        if !resident_on.contains_key(&sid) && pending_set.insert(sid) {
                            pending_admit.push_back(sid);
                        }
                    }
                }
            }

            // Evict residents that have sat idle past the budget: the
            // reservation frees (and can be reused this very iteration),
            // the engine state stays with the session.
            if self.cfg.session_idle_evict_us > 0 {
                let evicted: Vec<(SessionId, usize)> = resident_on
                    .iter()
                    .filter(|(sid, _)| {
                        let s = &sessions[sid];
                        !s.ready()
                            && !s.finished()
                            && s.last_event_us + self.cfg.session_idle_evict_us <= now
                    })
                    .map(|(&sid, &i)| (sid, i))
                    .collect();
                for (sid, i) in evicted {
                    resident_on.remove(&sid);
                    let s = sessions.get_mut(&sid).expect("evicting a live session");
                    resident_streams[i] -= s.config().streams;
                    s.evictions += 1;
                    counters.sessions.evictions += 1;
                }
            }

            // Admit pending sessions (FIFO) onto the least-loaded
            // healthy instance with residency to spare. First admission
            // builds and binds the resumable engine run; later ones are
            // re-admissions of an evicted session whose state is kept.
            let mut still_pending: VecDeque<SessionId> = VecDeque::new();
            while let Some(sid) = pending_admit.pop_front() {
                let Some(s) = sessions.get_mut(&sid) else {
                    pending_set.remove(&sid);
                    continue;
                };
                let streams = s.config().streams;
                let slot = (0..n)
                    .filter(|&i| {
                        !quarantined[i]
                            && resident_streams[i] + streams <= self.cfg.pu_slot_cap.max(1)
                    })
                    .min_by_key(|&i| (resident_streams[i], i));
                match slot {
                    Some(i) => {
                        pending_set.remove(&sid);
                        resident_streams[i] += streams;
                        resident_on.insert(sid, i);
                        if s.has_run() {
                            counters.sessions.readmissions += 1;
                        } else {
                            let unit = self
                                .compiled_cache
                                .entry(s.spec_key.clone())
                                .or_insert_with(|| CompiledUnit::from_arc(s.spec.clone()));
                            let caps = vec![s.config().stream_capacity; streams];
                            s.bind(instances[i].open_run(unit, &caps, s.config().out_capacity));
                        }
                    }
                    None => still_pending.push_back(sid),
                }
            }
            pending_admit = still_pending;

            // Release retried jobs whose backoff has elapsed back into
            // the queue (no re-count of submitted/admitted — a retry is
            // the same job, and every job resolves exactly once).
            let mut i = 0;
            while i < retries.len() {
                if retries[i].0 <= now {
                    let (_, job) = retries.remove(i);
                    if let Err(r) = queue.submit(job, now) {
                        counters.failed += 1;
                        failed.push(FailedJob {
                            id: r.id,
                            tenant: r.tenant,
                            error: "retry dropped: submission queue full".to_string(),
                        });
                    }
                } else {
                    i += 1;
                }
            }

            // Enforce the per-job service budget: jobs that have waited
            // past it fail with a timeout instead of queuing forever.
            if let Some(to) = self.cfg.job_timeout_us {
                for job in
                    queue.drain_matching(&mut |j| j.arrival_us.saturating_add(to) <= now)
                {
                    counters.timeouts += 1;
                    counters.failed += 1;
                    failed.push(FailedJob {
                        id: job.id,
                        tenant: job.tenant,
                        error: format!("timed out after {to} µs without service"),
                    });
                }
            }

            // Time-sharing: each idle, healthy instance either advances
            // one ready resident session this busy period or packs one
            // job batch. Among an instance's ready residents, the one
            // waiting longest (earliest `(ready_since, id)`) wins.
            let mut session_for: Vec<Option<((u64, SessionId), SessionId)>> = vec![None; n];
            for (&sid, &i) in &resident_on {
                if busy_until[i].is_some() || quarantined[i] || held[i].is_some() {
                    continue;
                }
                let s = &sessions[&sid];
                if !s.ready() {
                    continue;
                }
                let key = (s.ready_since.unwrap_or(0), sid);
                if session_for[i].is_none_or(|(best, _)| key < best) {
                    session_for[i] = Some((key, sid));
                }
            }

            // Absorb completed-run observations the virtual clock has
            // reached, so this iteration's predictions (and every
            // policy decision built on them) see exactly the history a
            // real host would at this instant.
            self.predictor.apply_due(now);

            // One batch per idle, healthy instance not already claimed
            // by a session. A policy may defer an under-filled batch —
            // the instance holds it, tops it up with compatible
            // arrivals, and launches when full or when the hold
            // expires. Each launched batch draws a fault plan derived
            // from the deterministic batch counter.
            let model = CostModel {
                pack_us_fixed: self.cfg.pack_us_fixed,
                pack_us_per_stream: self.cfg.pack_us_per_stream,
                drain_us_per_kib: self.cfg.drain_us_per_kib,
                defer_cap_us: self.cfg.defer_cap_us,
            };
            let mut batch_for: Vec<Option<(PackedBatch, FaultPlan)>> =
                (0..n).map(|_| None).collect();
            for (i, slot) in batch_for.iter_mut().enumerate() {
                if busy_until[i].is_some() || quarantined[i] || session_for[i].is_some() {
                    continue;
                }
                let cache = &mut self.slot_cache;
                let cfg = &self.cfg;
                let policy = &*self.policy;
                let pred = &self.predictor;
                if let Some((mut batch, hold)) = held[i].take() {
                    // Top up the held batch, then launch it if it is
                    // now full or its hold has run out; the hold never
                    // extends (new members can only tighten it).
                    top_up_batch(
                        &mut queue,
                        now,
                        &mut batch,
                        cfg.max_jobs_per_batch,
                        policy,
                        pred,
                        &model,
                        &mut counters,
                        &mut rejected,
                    );
                    let full = batch.slots_used >= batch.slots
                        || batch.jobs.len() >= cfg.max_jobs_per_batch.max(1);
                    let keep = (!full && hold > now)
                        .then(|| policy.hold_until(&batch, pred, now, &model))
                        .flatten()
                        .filter(|&h| h > now)
                        .map(|h| h.min(hold));
                    match keep {
                        Some(h) => held[i] = Some((batch, h)),
                        None => {
                            *slot = Some((batch, cfg.fault.derive(batch_uid)));
                            batch_uid += 1;
                        }
                    }
                } else if let Some(batch) = pack_batch_policy(
                    &mut queue,
                    now,
                    &mut |job| Host::slots_for(cache, cfg, job),
                    cfg.max_jobs_per_batch,
                    policy,
                    pred,
                    &model,
                    &mut counters,
                    &mut rejected,
                ) {
                    let under_filled = batch.slots_used < batch.slots
                        && batch.jobs.len() < cfg.max_jobs_per_batch.max(1);
                    let hold = under_filled
                        .then(|| policy.hold_until(&batch, pred, now, &model))
                        .flatten()
                        .filter(|&h| h > now);
                    match hold {
                        Some(h) => {
                            counters.deferred += 1;
                            held[i] = Some((batch, h));
                        }
                        None => {
                            *slot = Some((batch, cfg.fault.derive(batch_uid)));
                            batch_uid += 1;
                        }
                    }
                }
            }

            // Compile each launched spec once on the scheduler thread;
            // workers replicate executors from the shared program.
            for (batch, _) in batch_for.iter().flatten() {
                self.compiled_cache
                    .entry(batch.spec_key.clone())
                    .or_insert_with(|| CompiledUnit::from_arc(batch.spec.clone()));
            }
            let compiled = &self.compiled_cache;

            // Run every launched batch concurrently on the worker pool.
            // Results come back keyed by instance index, so wall-clock
            // completion order cannot perturb the virtual timeline.
            let launched: Vec<(usize, PackedBatch, Result<RunReport, Box<RunFailure>>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = instances
                        .iter_mut()
                        .zip(batch_for.iter_mut())
                        .enumerate()
                        .filter_map(|(i, (inst, slot))| {
                            slot.take().map(|(b, plan)| (i, inst, b, plan))
                        })
                        .map(|(i, inst, batch, plan)| {
                            scope.spawn(move || {
                                let res = {
                                    let unit = &compiled[&batch.spec_key];
                                    let streams = batch.stream_refs();
                                    inst.run_compiled_faulted(
                                        unit,
                                        &streams,
                                        batch.out_capacity,
                                        plan,
                                    )
                                };
                                (i, batch, res)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("host worker thread panicked"))
                        .collect()
                });

            for (i, batch, result) in launched {
                let pack_us = self.cfg.pack_us_fixed
                    + self.cfg.pack_us_per_stream * batch.slots_used as u64;
                let (seconds, faults_injected) = match &result {
                    Ok(report) => (report.seconds, report.faults_injected),
                    Err(failure) => (failure.seconds, failure.faults_injected),
                };
                counters.faults_injected += faults_injected;
                let run_us = (seconds * 1e6).ceil() as u64;
                let batch_done = now + pack_us + run_us;
                // Outputs drain job by job over the host link, so
                // completion times serialize within the batch — that
                // order is the completion order.
                let mut t = batch_done;
                let drain_us_per_kib = self.cfg.drain_us_per_kib;
                let mut complete = |job: &Job, outputs: Vec<Vec<u8>>| {
                    let output_bytes: u64 = outputs.iter().map(|o| o.len() as u64).sum();
                    t += 1 + output_bytes.div_ceil(1024) * drain_us_per_kib;
                    let deadline_met = job.deadline_us.map(|d| t <= d);
                    if deadline_met == Some(false) {
                        counters.deadline_misses += 1;
                    }
                    counters.completed += 1;
                    completed.push(CompletedJob {
                        id: job.id,
                        tenant: job.tenant,
                        instance: i,
                        arrival_us: job.arrival_us,
                        started_us: now,
                        completed_us: t,
                        latency: JobLatency {
                            queue_us: now - job.arrival_us,
                            pack_us,
                            run_us,
                            // The drain phase includes waiting behind
                            // earlier jobs' drains, so per-job phases
                            // always sum to arrival→completion.
                            drain_us: t - batch_done,
                        },
                        input_bytes: job.input_bytes(),
                        output_bytes,
                        outputs,
                        deadline_met,
                    });
                };
                match result {
                    Ok(report) => {
                        consec_failures[i] = 0;
                        // Feed the predictor: the observation becomes
                        // visible to scheduling once the virtual clock
                        // reaches the batch's completion, never before.
                        let max_bytes = batch
                            .jobs
                            .iter()
                            .flat_map(|j| j.streams.iter().map(|s| s.len() as u64))
                            .max()
                            .unwrap_or(0);
                        self.predictor.observe(
                            batch_done,
                            i,
                            &batch.spec_key,
                            &batch.spec,
                            max_bytes,
                            run_us,
                            report.input_bytes,
                            report.output_bytes,
                        );
                        let mut off = 0usize;
                        for job in &batch.jobs {
                            let outs = &report.outputs[off..off + job.streams.len()];
                            off += job.streams.len();
                            complete(job, outs.to_vec());
                        }
                        busy_until[i] = Some(t);
                    }
                    Err(failure) => {
                        // The batch died (overflow, wedge, stall, cycle
                        // timeout, or a poisoned channel thread surfaced
                        // as WorkerPanic). Jobs whose streams all
                        // finished before the failure are salvaged as
                        // completions; the rest retry with backoff if
                        // the cause may be transient, or fail with the
                        // rendered cause. The instance stays occupied
                        // for the cycles the failed run actually burned.
                        let RunFailure { error, partial_outputs, .. } = *failure;
                        let message = error.to_string();
                        let can_retry = retryable(&error);

                        let mut off = 0usize;
                        for job in &batch.jobs {
                            let parts = &partial_outputs[off..off + job.streams.len()];
                            off += job.streams.len();

                            // Salvaged: every stream of this job
                            // finished and drained; it completes with
                            // normal timing despite the batch failure.
                            if parts.iter().all(Option::is_some) {
                                complete(job, parts.iter().flatten().cloned().collect());
                                continue;
                            }

                            let attempts = job.attempts + 1;
                            if can_retry && attempts <= self.cfg.retry_limit {
                                let backoff = self
                                    .cfg
                                    .retry_backoff_us
                                    .saturating_mul(1u64 << (attempts - 1).min(32))
                                    .min(self.cfg.retry_backoff_cap_us);
                                let ready =
                                    now.saturating_add(pack_us).saturating_add(backoff);
                                let overruns_budget =
                                    self.cfg.job_timeout_us.is_some_and(|to| {
                                        job.arrival_us.saturating_add(to) <= ready
                                    });
                                if !overruns_budget {
                                    counters.retries += 1;
                                    let mut retry = job.clone();
                                    retry.attempts = attempts;
                                    retries.push((ready, retry));
                                    continue;
                                }
                                counters.timeouts += 1;
                                counters.failed += 1;
                                failed.push(FailedJob {
                                    id: job.id,
                                    tenant: job.tenant,
                                    error: format!(
                                        "{message}; retry backoff would overrun the job timeout"
                                    ),
                                });
                                continue;
                            }

                            counters.failed += 1;
                            let error = if can_retry {
                                format!("{message} (after {attempts} attempts)")
                            } else {
                                message.clone()
                            };
                            failed.push(FailedJob { id: job.id, tenant: job.tenant, error });
                        }

                        busy_until[i] = Some(t);
                        consec_failures[i] += 1;
                        if self.cfg.quarantine_after > 0
                            && consec_failures[i] >= self.cfg.quarantine_after
                            && !quarantined[i]
                        {
                            quarantined[i] = true;
                            counters.quarantines += 1;
                        }
                    }
                }
            }
            retries.sort_by_key(|(ready, job)| (*ready, job.id));

            // Advance the chosen sessions, serially on the scheduler
            // thread (each engine still shards its PU evaluation across
            // the shared pool). A quantum costs pack (ingest setup) +
            // simulated run + output drain on the virtual clock, like a
            // batch of the same shape.
            for i in 0..n {
                let Some((_, sid)) = session_for[i] else { continue };
                let s = sessions.get_mut(&sid).expect("servicing a resident session");
                counters.sessions.advances += 1;
                let pack_us = self.cfg.pack_us_fixed
                    + self.cfg.pack_us_per_stream * s.config().streams as u64;
                let done = match s.service(now + pack_us, self.cfg.drain_us_per_kib) {
                    Ok(step) => {
                        busy_until[i] = Some(now + pack_us + step.run_us + step.drain_us);
                        step.done
                    }
                    Err(_) => {
                        busy_until[i] = Some(now + pack_us);
                        true
                    }
                };
                if done {
                    if let Some(run) = s.run() {
                        instances[i].record_open_run(run, s.state() == SessionState::Failed);
                    }
                    if s.state() == SessionState::Failed {
                        counters.sessions.failed += 1;
                    } else {
                        counters.sessions.completed += 1;
                    }
                    open_now -= 1;
                    resident_streams[i] -= s.config().streams;
                    resident_on.remove(&sid);
                    session_records.push(s.record());
                    sessions.remove(&sid);
                }
            }

            // No healthy capacity left: every instance is quarantined,
            // so nothing queued, backing off, or yet to arrive can ever
            // run. Fail it all explicitly — graceful degradation means
            // every job still ends in exactly one reported state — and
            // stop instead of spinning on a clock with no events.
            if quarantined.iter().all(|&q| q) {
                const REASON: &str = "all instances quarantined";
                let mut fail_all = |jobs: &mut dyn Iterator<Item = Job>| {
                    for job in jobs {
                        counters.failed += 1;
                        failed.push(FailedJob {
                            id: job.id,
                            tenant: job.tenant,
                            error: REASON.to_string(),
                        });
                    }
                };
                // Held batches can only sit on healthy instances, so
                // this is normally empty — but fail their members too
                // rather than ever losing a job.
                fail_all(&mut held.iter_mut().filter_map(Option::take).flat_map(|(b, _)| b.jobs));
                fail_all(&mut queue.drain_matching(&mut |_| true).into_iter());
                fail_all(&mut retries.drain(..).map(|(_, job)| job));
                while let Some(arrival) = source.next_arrival() {
                    match arrival {
                        Arrival::Job(job) => {
                            counters.submitted += 1;
                            fail_all(&mut std::iter::once(job));
                        }
                        Arrival::Open(o) => {
                            counters.sessions.opened += 1;
                            counters.sessions.failed += 1;
                            session_records.push(SessionRecord {
                                id: o.id,
                                tenant: o.tenant,
                                opened_us: o.at_us,
                                finished_us: o.at_us,
                                outcome: format!("failed: {REASON}"),
                                ..SessionRecord::default()
                            });
                        }
                        Arrival::Append { .. } | Arrival::Close { .. } => {}
                    }
                }
                for (&sid, s) in sessions.iter_mut() {
                    s.fail_external(now, REASON);
                    if let (Some(run), Some(&i)) = (s.run(), resident_on.get(&sid)) {
                        instances[i].record_open_run(run, true);
                    }
                    counters.sessions.failed += 1;
                    session_records.push(s.record());
                }
                sessions.clear();
                break;
            }

            // Advance the virtual clock to the next event: an arrival,
            // a batch or session quantum completing, a retry backoff
            // expiring, a held batch's launch deadline, or an idle
            // session's eviction deadline.
            let next_arrival = source.peek_us();
            let next_done = busy_until.iter().flatten().min().copied();
            let next_retry = retries.first().map(|(ready, _)| *ready);
            let next_hold = held.iter().flatten().map(|(_, h)| *h).min();
            let next_evict = if self.cfg.session_idle_evict_us > 0 {
                resident_on
                    .keys()
                    .filter_map(|sid| {
                        let s = &sessions[sid];
                        (!s.ready() && !s.finished())
                            .then(|| s.last_event_us + self.cfg.session_idle_evict_us)
                    })
                    .min()
            } else {
                None
            };
            let Some(next) = [next_arrival, next_done, next_retry, next_hold, next_evict]
                .into_iter()
                .flatten()
                .min()
            else {
                debug_assert!(queue.is_empty(), "idle host with a non-empty queue");
                debug_assert!(sessions.is_empty(), "idle host with live sessions");
                debug_assert!(
                    held.iter().all(|h| h.is_none()),
                    "idle host with a held batch"
                );
                break;
            };
            now = next;
            for b in busy_until.iter_mut() {
                if b.is_some_and(|t| t <= now) {
                    *b = None;
                }
            }
        }

        completed.sort_by_key(|a| (a.completed_us, a.id));
        session_records.sort_by_key(|r| (r.finished_us, r.id));
        ServiceReport::build(
            counters,
            completed,
            rejected,
            failed,
            session_records,
            instances.iter().map(|i| i.stats()).collect(),
            first_arrival,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_lang::{UnitBuilder, UnitSpec};
    use std::sync::Arc;

    fn identity_spec() -> Arc<UnitSpec> {
        let mut u = UnitBuilder::new("Identity", 8, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        Arc::new(u.build().unwrap())
    }

    fn workload(spec: &Arc<UnitSpec>, jobs: usize, tenants: u32) -> Vec<Job> {
        (0..jobs)
            .map(|i| {
                let len = 64 + (i % 7) * 64;
                Job::new(
                    i as u64,
                    i as u32 % tenants,
                    spec.clone(),
                    vec![vec![(i % 251) as u8; len], vec![(i % 13) as u8; 128]],
                )
                .with_arrival(i as u64 * 3)
            })
            .collect()
    }

    #[test]
    fn serve_completes_everything_and_echoes_outputs() {
        let spec = identity_spec();
        let mut host = Host::new(HostConfig::new(2));
        let jobs = workload(&spec, 20, 4);
        let inputs: BTreeMap<u64, Vec<Vec<u8>>> =
            jobs.iter().map(|j| (j.id, j.streams.clone())).collect();

        let report = host.serve(jobs);
        assert_eq!(report.completed.len(), 20);
        assert!(report.rejected.is_empty());
        assert!(report.failed.is_empty());
        assert_eq!(report.counters.completed, 20);
        for done in &report.completed {
            assert_eq!(&done.outputs, &inputs[&done.id], "job {} echoes", done.id);
            assert!(done.completed_us > done.arrival_us);
            assert_eq!(
                done.latency.total_us(),
                done.completed_us - done.arrival_us,
                "latency phases cover arrival→completion for job {}",
                done.id
            );
        }
        // Completion order is sorted.
        for w in report.completed.windows(2) {
            assert!(w[0].completed_us <= w[1].completed_us);
        }
    }

    #[test]
    fn serve_is_bit_identical_across_sim_thread_counts() {
        // The shared shard pool must never leak wall-clock scheduling
        // into the report: any thread budget gives the same bytes.
        let spec = identity_spec();
        let serve_with = |threads| {
            let mut cfg = HostConfig::new(2);
            cfg.system.sim_threads = fleet_system::SimThreads::Fixed(threads);
            let mut host = Host::new(cfg);
            host.serve(workload(&spec, 16, 3))
        };
        let one = serve_with(1);
        for threads in [2usize, 4] {
            assert_eq!(
                one.to_json(),
                serve_with(threads).to_json(),
                "{threads}-thread serve diverged from serial"
            );
        }
    }

    #[test]
    fn serve_is_deterministic() {
        let spec = identity_spec();
        let run = || {
            let mut host = Host::new(HostConfig::new(2));
            host.serve(workload(&spec, 24, 3))
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn two_instances_beat_one_on_a_backlogged_workload() {
        let spec = identity_spec();
        // Everything arrives at t=0: a pure capacity test. Small batch
        // caps force several batches, so a second instance has work to
        // steal.
        let jobs: Vec<Job> = (0..32)
            .map(|i| {
                Job::new(i, (i % 4) as u32, spec.clone(), vec![vec![i as u8; 4096]])
            })
            .collect();
        let serve_with = |instances| {
            let mut cfg = HostConfig::new(instances);
            cfg.pu_slot_cap = 8;
            cfg.max_jobs_per_batch = 8;
            let mut host = Host::new(cfg);
            host.serve(jobs.clone())
        };
        let one = serve_with(1);
        let two = serve_with(2);
        assert_eq!(one.completed.len(), 32);
        assert_eq!(two.completed.len(), 32);
        let speedup = two.jobs_per_sec() / one.jobs_per_sec();
        assert!(speedup >= 1.7, "2-instance speedup only {speedup:.2}×");
    }

    #[test]
    fn deadline_jobs_reject_or_flag() {
        let spec = identity_spec();
        let mut jobs = vec![
            // Hopeless: deadline before anything can finish.
            Job::new(0, 0, spec.clone(), vec![vec![1u8; 4096]]).with_deadline(1),
            // Comfortable deadline.
            Job::new(1, 1, spec.clone(), vec![vec![2u8; 256]]).with_deadline(10_000_000),
        ];
        // Backlog so job 0's deadline passes while it queues.
        for i in 2..8 {
            jobs.push(Job::new(i, 2, spec.clone(), vec![vec![i as u8; 4096]]));
        }
        let mut host = Host::new(HostConfig::new(1));
        let report = host.serve(jobs);
        let r0 = report.rejected.iter().find(|r| r.id == 0);
        let c0 = report.completed.iter().find(|c| c.id == 0);
        // Job 0 either got rejected at pack time or completed late and
        // was flagged — it must not count as an on-time success.
        match (r0, c0) {
            (Some(r), None) => {
                assert_eq!(r.reason, crate::job::RejectReason::DeadlineExpired)
            }
            (None, Some(c)) => assert_eq!(c.deadline_met, Some(false)),
            other => panic!("job 0 neither rejected nor completed: {other:?}"),
        }
        let c1 = report.completed.iter().find(|c| c.id == 1).expect("job 1 completes");
        assert_eq!(c1.deadline_met, Some(true));
    }

    #[test]
    fn bounded_queue_rejects_burst_overflow() {
        let spec = identity_spec();
        let mut cfg = HostConfig::new(1);
        cfg.queue_capacity = 4;
        // 12 jobs all arrive at once; at most 4 queue, the rest bounce.
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job::new(i, 0, spec.clone(), vec![vec![3u8; 2048]]))
            .collect();
        let mut host = Host::new(cfg);
        let report = host.serve(jobs);
        assert!(report.counters.rejected_queue_full > 0);
        assert_eq!(
            report.counters.rejected_queue_full as usize
                + report.completed.len(),
            12
        );
    }

    #[test]
    fn faulty_serve_retries_and_never_loses_a_job() {
        let spec = identity_spec();
        let base = || {
            let mut cfg = HostConfig::new(2);
            cfg.system.watchdog_cycles = 20_000;
            cfg.fault = FaultPlan::with_seed(7).wedges(250_000, 8);
            cfg.max_jobs_per_batch = 4;
            cfg
        };
        let mut host = Host::new(base());
        let report = host.serve(workload(&spec, 16, 3));
        let accounted =
            report.completed.len() + report.rejected.len() + report.failed.len();
        assert_eq!(
            accounted as u64, report.counters.submitted,
            "every job must end in exactly one reported state"
        );
        assert!(report.counters.faults_injected > 0, "plan injected nothing");
        assert!(report.counters.retries > 0, "wedges should trigger retries");
        assert!(!report.completed.is_empty(), "healthy work still completes");
        for done in &report.completed {
            let inputs: u64 = done.input_bytes;
            assert_eq!(done.output_bytes, inputs, "identity outputs stay intact");
        }
        // Identical faults, identical report — at any sim-thread count.
        let serve_with = |threads| {
            let mut cfg = base();
            cfg.system.sim_threads = fleet_system::SimThreads::Fixed(threads);
            Host::new(cfg).serve(workload(&spec, 16, 3))
        };
        assert_eq!(serve_with(1).to_json(), serve_with(8).to_json());
    }

    #[test]
    fn queued_jobs_time_out_instead_of_waiting_forever() {
        let spec = identity_spec();
        let mut cfg = HostConfig::new(1);
        cfg.max_jobs_per_batch = 1;
        cfg.job_timeout_us = Some(20);
        let jobs = vec![
            Job::new(0, 0, spec.clone(), vec![vec![1u8; 16384]]),
            Job::new(1, 1, spec.clone(), vec![vec![2u8; 16384]]),
        ];
        let mut host = Host::new(cfg);
        let report = host.serve(jobs);
        // Job 0 runs; job 1 waits behind it past its 20 µs budget.
        assert!(report.completed.iter().any(|c| c.id == 0));
        assert_eq!(report.counters.timeouts, 1);
        let f = report.failed.iter().find(|f| f.id == 1).expect("job 1 times out");
        assert!(f.error.contains("timed out"), "{}", f.error);
    }

    #[test]
    fn always_wedging_pool_quarantines_and_terminates() {
        let spec = identity_spec();
        let mut cfg = HostConfig::new(1);
        cfg.system.watchdog_cycles = 10_000;
        cfg.fault = FaultPlan::with_seed(3).wedges(1_000_000, 4);
        cfg.retry_limit = 1;
        cfg.quarantine_after = 2;
        let mut host = Host::new(cfg);
        // Every batch wedges: the lone instance must be quarantined and
        // the serve must still terminate with every job accounted for.
        let report = host.serve(workload(&spec, 4, 2));
        assert_eq!(report.counters.quarantines, 1);
        assert!(report.completed.is_empty());
        let accounted =
            report.completed.len() + report.rejected.len() + report.failed.len();
        assert_eq!(accounted as u64, report.counters.submitted);
        assert!(report.failed.iter().any(|f| f.error.contains("quarantined")));
        assert!(report.counters.retries > 0);
    }

    fn session_cfg(capacity: usize, credit: usize) -> fleet_session::SessionConfig {
        fleet_session::SessionConfig {
            streams: 1,
            stream_capacity: capacity,
            credit_bytes: credit,
            out_capacity: 2 * capacity.max(512),
        }
    }

    /// Chunks `data` into a session timeline: open at `t0`, one append
    /// per piece every `gap_us`, then close.
    #[allow(clippy::too_many_arguments)]
    fn session_events(
        id: u64,
        tenant: TenantId,
        spec: &Arc<UnitSpec>,
        data: &[u8],
        pieces: &[usize],
        t0: u64,
        gap_us: u64,
        credit: usize,
    ) -> Vec<crate::arrival::Arrival> {
        use crate::arrival::{Arrival, SessionOpen};
        let mut events = vec![Arrival::Open(SessionOpen {
            id,
            tenant,
            spec: spec.clone(),
            cfg: session_cfg(data.len(), credit),
            at_us: t0,
        })];
        let mut off = 0usize;
        let mut t = t0;
        for &len in pieces {
            t += gap_us;
            events.push(Arrival::Append {
                session: id,
                stream: 0,
                bytes: data[off..off + len].to_vec(),
                at_us: t,
            });
            off += len;
        }
        assert_eq!(off, data.len());
        events.push(Arrival::Close { session: id, at_us: t + gap_us });
        events
    }

    #[test]
    fn chunked_session_coexists_with_jobs_and_echoes_its_stream() {
        use crate::arrival::{Arrival, MixedArrivals};
        let spec = identity_spec();
        let data: Vec<u8> = (0..1500u32).map(|x| (x * 13) as u8).collect();
        let mut events: Vec<Arrival> =
            workload(&spec, 12, 3).into_iter().map(Arrival::Job).collect();
        events.extend(session_events(
            900, 1, &spec, &data, &[100, 700, 44, 656], 5, 40, 4096,
        ));
        let mut host = Host::new(HostConfig::new(2));
        let report = host.serve_arrivals(MixedArrivals::new(events));

        assert_eq!(report.completed.len(), 12, "all jobs complete alongside the session");
        assert_eq!(report.counters.sessions.opened, 1);
        assert_eq!(report.counters.sessions.completed, 1);
        assert_eq!(report.counters.sessions.closes, 1);
        assert_eq!(report.counters.sessions.appends, 4);
        assert_eq!(report.counters.sessions.append_bytes, 1500);
        assert_eq!(report.sessions.len(), 1);
        let rec = &report.sessions[0];
        assert_eq!(rec.outcome, "completed");
        assert_eq!(rec.outputs[0], data, "session output echoes the chunked stream");
        assert!(rec.finished_us > rec.opened_us);
        assert!(report.makespan_us >= rec.finished_us - report.first_arrival_us);
        let json = report.to_json();
        assert!(json.contains("\"sessions\""), "report JSON carries the sessions section");
        assert!(json.contains("\"peak_open\": 1"), "{json}");
    }

    #[test]
    fn session_serve_is_bit_identical_across_sim_thread_counts() {
        use crate::arrival::{Arrival, MixedArrivals};
        let spec = identity_spec();
        let serve_with = |threads: usize| {
            let mut cfg = HostConfig::new(2);
            cfg.system.sim_threads = fleet_system::SimThreads::Fixed(threads);
            let mut host = Host::new(cfg);
            let mut events: Vec<Arrival> =
                workload(&spec, 8, 2).into_iter().map(Arrival::Job).collect();
            for sid in 0..6u64 {
                let data: Vec<u8> =
                    (0..600 + 37 * sid).map(|x| (x * 11 + sid) as u8).collect();
                let third = data.len() / 3;
                events.extend(session_events(
                    1000 + sid,
                    (sid % 3) as u32,
                    &spec,
                    &data,
                    &[third, third, data.len() - 2 * third],
                    sid * 7,
                    25 + sid,
                    8192,
                ));
            }
            host.serve_arrivals(MixedArrivals::new(events))
        };
        let one = serve_with(1);
        assert_eq!(one.counters.sessions.completed, 6);
        for threads in [2usize, 8] {
            assert_eq!(
                one.to_json(),
                serve_with(threads).to_json(),
                "{threads}-thread session serve diverged from serial"
            );
        }
    }

    #[test]
    fn idle_sessions_evict_and_readmit_without_losing_state() {
        use crate::arrival::MixedArrivals;
        let spec = identity_spec();
        let data: Vec<u8> = (0..800u32).map(|x| (x * 3) as u8).collect();
        let mut cfg = HostConfig::new(1);
        cfg.session_idle_evict_us = 50;
        // Chunks spaced far past the idle budget: the session must be
        // evicted between chunks and re-admitted when the next lands.
        let events = session_events(1, 0, &spec, &data, &[200, 200, 400], 0, 5_000, 4096);
        let mut host = Host::new(cfg);
        let report = host.serve_arrivals(MixedArrivals::new(events));
        assert_eq!(report.counters.sessions.completed, 1);
        assert!(report.counters.sessions.evictions >= 2, "{:?}", report.counters.sessions);
        assert!(
            report.counters.sessions.readmissions >= 2,
            "{:?}",
            report.counters.sessions
        );
        let rec = &report.sessions[0];
        assert_eq!(rec.evictions, report.counters.sessions.evictions);
        assert_eq!(rec.outputs[0], data, "evictions must not perturb the output");
    }

    #[test]
    fn session_credit_backpressure_drops_chunks_but_keeps_the_rest() {
        use crate::arrival::{Arrival, MixedArrivals, SessionOpen};
        let spec = identity_spec();
        // Credit of 128 bytes; four 100-byte chunks land back-to-back
        // before the host can service any of them, so at least one is
        // refused and dropped.
        let mut events = vec![Arrival::Open(SessionOpen {
            id: 1,
            tenant: 0,
            spec: spec.clone(),
            cfg: session_cfg(4096, 128),
            at_us: 0,
        })];
        for c in 0..4u64 {
            events.push(Arrival::Append {
                session: 1,
                stream: 0,
                bytes: vec![c as u8 + 1; 100],
                at_us: 1,
            });
        }
        events.push(Arrival::Close { session: 1, at_us: 2 });
        let mut host = Host::new(HostConfig::new(1));
        let report = host.serve_arrivals(MixedArrivals::new(events));
        let sess = report.counters.sessions;
        assert!(sess.backpressure > 0, "{sess:?}");
        assert_eq!(sess.appends + sess.backpressure, 4);
        assert_eq!(sess.completed, 1);
        let rec = &report.sessions[0];
        assert_eq!(rec.appended_bytes, sess.append_bytes);
        assert_eq!(rec.delivered_bytes, rec.appended_bytes, "accepted bytes all echo");
    }

    #[test]
    fn unclosed_sessions_are_force_closed_at_end_of_timeline() {
        use crate::arrival::MixedArrivals;
        let spec = identity_spec();
        let data = vec![9u8; 300];
        let mut events = session_events(5, 2, &spec, &data, &[300], 0, 10, 1024);
        events.pop(); // drop the client's close
        let mut host = Host::new(HostConfig::new(1));
        let report = host.serve_arrivals(MixedArrivals::new(events));
        assert_eq!(report.counters.sessions.force_closed, 1);
        assert_eq!(report.counters.sessions.closes, 0);
        assert_eq!(report.counters.sessions.completed, 1);
        let rec = &report.sessions[0];
        assert_eq!(rec.outcome, "force_closed");
        assert_eq!(rec.outputs[0], data, "force-close still drains and delivers");
    }

    #[test]
    fn overflowing_batch_fails_its_jobs_but_not_the_host() {
        let spec = identity_spec();
        // 8 KB of identity output through a 1 KB output region: the
        // batch overflows; later jobs still run.
        let jobs = vec![
            Job::new(0, 0, spec.clone(), vec![vec![1u8; 8192]]).with_out_capacity(1024),
            Job::new(1, 1, spec.clone(), vec![vec![2u8; 256]]).with_arrival(500_000),
        ];
        let mut host = Host::new(HostConfig::new(1));
        let report = host.serve(jobs);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].id, 0);
        assert!(report.failed[0].error.contains("overflow"), "{}", report.failed[0].error);
        let ok = report.completed.iter().find(|c| c.id == 1).expect("job 1 unharmed");
        assert_eq!(ok.outputs[0], vec![2u8; 256]);
    }
}
