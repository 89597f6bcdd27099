//! Pack policies: who runs next, when a batch launches, and which
//! jobs are shed before they can only miss.
//!
//! The original host had exactly one behavior — release in WFQ order,
//! admit anything compatible, launch the moment one job is packed —
//! now captured verbatim by [`FirstFit`]. The [`PackPolicy`] trait
//! extracts the four decision points the scheduler consults so
//! alternatives can be benchmarked head-to-head on identical
//! workloads:
//!
//! * **release order** ([`PackPolicy::priority`]): which queued job
//!   the packer takes next. `None` keeps the WFQ virtual-finish-time
//!   order; a priority reorders *across* the whole queue (EDF by
//!   deadline, shortest-predicted-job, weighted slowdown).
//! * **admission** ([`PackPolicy::admits`]): whether a released job
//!   may join the open batch. Batch run time follows the *longest*
//!   member stream, so admitting one long job stretches every
//!   co-batched short past its deadline; the SLO-aware policies close
//!   the batch instead ([`slo_admits`]).
//! * **batch close** ([`PackPolicy::hold_until`]): whether an
//!   under-filled batch launches now or is held open for more work.
//!   [`DeferFill`] holds while every member still has predicted slack,
//!   so batches launch *full* instead of *first*.
//! * **proactive shedding** ([`PackPolicy::sheds`] + [`doomed`]):
//!   reject a job the moment its predicted completion exceeds its
//!   deadline, instead of burning a slot to miss it in.
//!
//! Every decision consumes only virtual-clock state and
//! [`Predictor`] models (themselves virtual-clock-deterministic), so
//! any policy's serve stays bit-identical run to run, whatever order
//! the instance workers finish in.

use std::fmt;

use crate::job::Job;
use crate::pack::PackedBatch;
use crate::predict::Predictor;

/// Host-side cost constants policies need to reason about timing
/// (mirrors the corresponding [`crate::HostConfig`] fields).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-batch pack cost, virtual µs.
    pub pack_us_fixed: u64,
    /// Per-stream pack cost, virtual µs.
    pub pack_us_per_stream: u64,
    /// Drain cost per KiB of output, virtual µs.
    pub drain_us_per_kib: u64,
    /// Longest a deferring policy may hold a batch past its oldest
    /// member's arrival, virtual µs.
    pub defer_cap_us: u64,
}

impl CostModel {
    /// Modeled pack time for `streams` packed streams.
    pub fn pack_us(&self, streams: usize) -> u64 {
        self.pack_us_fixed + self.pack_us_per_stream * streams as u64
    }

    /// Modeled drain time for `out_bytes` of output.
    pub fn drain_us(&self, out_bytes: u64) -> u64 {
        1 + out_bytes.div_ceil(1024) * self.drain_us_per_kib
    }
}

/// Predicted completion time of `job` if packed at `now_us`, from the
/// job's own streams (a lower bound: co-batched longer members only
/// push it later). Used both for shedding (deadline comparison) and
/// for EDF slack.
pub fn predicted_completion_us(
    job: &Job,
    pred: &Predictor,
    now_us: u64,
    model: &CostModel,
) -> u64 {
    let max_bytes = job.streams.iter().map(|s| s.len() as u64).max().unwrap_or(0);
    let run = pred.predict_run_us(&job.spec_key, &job.spec, max_bytes);
    let out = pred.predict_out_bytes(&job.spec_key, &job.spec, job.input_bytes());
    now_us + model.pack_us(job.streams.len()) + run + model.drain_us(out)
}

/// Whether `job` is predicted to miss its deadline even if launched
/// right now. Jobs without deadlines are never doomed.
pub fn doomed(job: &Job, pred: &Predictor, now_us: u64, model: &CostModel) -> bool {
    match job.deadline_us {
        Some(d) => predicted_completion_us(job, pred, now_us, model) > d,
        None => false,
    }
}

/// The SLO-aware admission check shared by the deadline-conscious
/// policies: adding `cand` to a batch already holding `members` is
/// allowed only if the *tightest* deadline in the would-be batch still
/// clears the batch's predicted completion.
///
/// Batch run time follows the longest member stream (the PUs run in
/// parallel), so one long candidate stretches every member's
/// completion — this is exactly the co-batching head-of-line blocking
/// that sinks first-fit goodput under heavy-tailed lengths.
pub fn slo_admits(
    members: &[Job],
    cand: &Job,
    pred: &Predictor,
    now_us: u64,
    model: &CostModel,
) -> bool {
    let member_max = members
        .iter()
        .flat_map(|j| j.streams.iter())
        .map(|s| s.len() as u64)
        .max()
        .unwrap_or(0);
    let cand_max = cand.streams.iter().map(|s| s.len() as u64).max().unwrap_or(0);
    let run = pred.predict_run_us(&cand.spec_key, &cand.spec, member_max.max(cand_max));
    let in_bytes =
        members.iter().map(|j| j.input_bytes()).sum::<u64>() + cand.input_bytes();
    let out = pred.predict_out_bytes(&cand.spec_key, &cand.spec, in_bytes);
    let streams =
        members.iter().map(|j| j.streams.len()).sum::<usize>() + cand.streams.len();
    let done = now_us + model.pack_us(streams) + run + model.drain_us(out);
    let tightest =
        members.iter().chain(std::iter::once(cand)).filter_map(|j| j.deadline_us).min();
    tightest.is_none_or(|d| done <= d)
}

/// The scheduler-facing policy interface. See the module docs for the
/// four decision points.
pub trait PackPolicy: fmt::Debug + Send + Sync {
    /// Short machine-readable name (CLI flags and reports key on it).
    fn name(&self) -> &'static str;

    /// Whether this policy reorders release at all. When `false` the
    /// packer uses the plain per-tenant WFQ head path (byte-identical
    /// to the pre-policy scheduler); when `true` it releases by
    /// [`PackPolicy::priority`] over *all* queued jobs.
    fn ordered(&self) -> bool {
        false
    }

    /// Release priority of a queued job at `now_us` (smaller releases
    /// first; ties break by WFQ virtual finish time, then job id).
    /// `None` keeps pure per-tenant WFQ head release — byte-identical
    /// to the pre-policy scheduler. Must be `Some` for every job when
    /// [`PackPolicy::ordered`] is true, `None` otherwise.
    fn priority(&self, job: &Job, pred: &Predictor, now_us: u64) -> Option<u64>;

    /// Whether the packer proactively sheds predicted-doomed jobs.
    fn sheds(&self) -> bool {
        false
    }

    /// Whether `cand` may join a batch already holding `members`. The
    /// packer closes the batch on the first refusal (jobs are released
    /// in policy order, so a refused candidate simply opens the next
    /// batch). The default admits everything — the pre-policy packer.
    ///
    /// Deadline-conscious policies refuse candidates that would
    /// stretch a member past its deadline (see [`slo_admits`]); this
    /// is the "SLO-aware packing" half of the policy interface.
    fn admits(
        &self,
        members: &[Job],
        cand: &Job,
        pred: &Predictor,
        now_us: u64,
        model: &CostModel,
    ) -> bool {
        let _ = (members, cand, pred, now_us, model);
        true
    }

    /// How long an under-filled `batch` may be held open for more
    /// work. `None` launches immediately (the pre-policy behavior).
    /// Called only while the batch has free slots; returning a time
    /// `<= now_us` also launches immediately.
    fn hold_until(
        &self,
        batch: &PackedBatch,
        pred: &Predictor,
        now_us: u64,
        model: &CostModel,
    ) -> Option<u64> {
        let _ = (batch, pred, now_us, model);
        None
    }
}

/// Today's behavior, preserved exactly: WFQ release order, launch the
/// moment one job is packed, no prediction, no shedding. The serving
/// report under `FirstFit` is byte-identical to the pre-policy host.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PackPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first_fit"
    }

    fn priority(&self, _job: &Job, _pred: &Predictor, _now_us: u64) -> Option<u64> {
        None
    }
}

/// Earliest-deadline-first release: the queued job with the nearest
/// deadline goes first (deadline-free jobs sort last, among themselves
/// by WFQ order), and predicted-doomed jobs are shed on release.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfPack;

impl PackPolicy for EdfPack {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn ordered(&self) -> bool {
        true
    }

    fn priority(&self, job: &Job, _pred: &Predictor, _now_us: u64) -> Option<u64> {
        Some(job.deadline_us.unwrap_or(u64::MAX))
    }

    fn sheds(&self) -> bool {
        true
    }

    fn admits(
        &self,
        members: &[Job],
        cand: &Job,
        pred: &Predictor,
        now_us: u64,
        model: &CostModel,
    ) -> bool {
        slo_admits(members, cand, pred, now_us, model)
    }
}

/// Defer-fill: shedding and SLO-aware admission like [`EdfPack`], but
/// an under-filled batch is held open while *every* member still has
/// enough predicted slack to absorb the wait — so batches launch full
/// instead of first. Deadline-free members are bounded by
/// [`CostModel::defer_cap_us`] past the oldest member's arrival.
///
/// Releases shortest-predicted-run first: under WFQ order a long job
/// at a tenant head would be refused admission on every top-up attempt
/// and park the hold forever half-empty; shortest-first keeps the held
/// batch topping up from jobs that actually pass admission, and the
/// long tail batches with its own kind once the shorts drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeferFill;

impl PackPolicy for DeferFill {
    fn name(&self) -> &'static str {
        "defer_fill"
    }

    fn ordered(&self) -> bool {
        true
    }

    fn priority(&self, job: &Job, pred: &Predictor, _now_us: u64) -> Option<u64> {
        let max_bytes = job.streams.iter().map(|s| s.len() as u64).max().unwrap_or(0);
        Some(pred.predict_run_us(&job.spec_key, &job.spec, max_bytes))
    }

    fn sheds(&self) -> bool {
        true
    }

    fn admits(
        &self,
        members: &[Job],
        cand: &Job,
        pred: &Predictor,
        now_us: u64,
        model: &CostModel,
    ) -> bool {
        slo_admits(members, cand, pred, now_us, model)
    }

    fn hold_until(
        &self,
        batch: &PackedBatch,
        pred: &Predictor,
        now_us: u64,
        model: &CostModel,
    ) -> Option<u64> {
        // Predicted occupancy of the batch as packed so far: run time
        // follows the longest member (streams run on parallel PUs).
        let max_bytes =
            batch.jobs.iter().map(|j| j.streams.iter().map(|s| s.len() as u64).max().unwrap_or(0)).max().unwrap_or(0);
        let run = pred.predict_run_us(&batch.spec_key, &batch.spec, max_bytes);
        let out = pred.predict_out_bytes(&batch.spec_key, &batch.spec, batch.input_bytes());
        let occupancy = model.pack_us(batch.slots_used) + run + model.drain_us(out);
        // Hold while every member's deadline still clears launch at
        // the held time, keeping half an occupancy of safety margin —
        // the predictor starts from an optimistic static seed, and a
        // policy that spends *all* the slack turns every
        // underprediction into a miss. Deadline-free members are
        // bounded by the defer cap past the oldest member's arrival.
        let oldest = batch.jobs.iter().map(|j| j.arrival_us).min().unwrap_or(now_us);
        let mut hold = oldest.saturating_add(model.defer_cap_us);
        for job in &batch.jobs {
            if let Some(d) = job.deadline_us {
                hold = hold.min(d.saturating_sub(occupancy + occupancy / 2));
            }
        }
        (hold > now_us).then_some(hold)
    }
}

/// Shortest-predicted-job-first release, with shedding. Under
/// heavy-tailed lengths this keeps long streams from stretching whole
/// batches of short ones (batch run time follows the *maximum*
/// member), which is where most first-fit goodput goes to die.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJob;

impl PackPolicy for ShortestJob {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn ordered(&self) -> bool {
        true
    }

    fn priority(&self, job: &Job, pred: &Predictor, _now_us: u64) -> Option<u64> {
        let max_bytes = job.streams.iter().map(|s| s.len() as u64).max().unwrap_or(0);
        Some(pred.predict_run_us(&job.spec_key, &job.spec, max_bytes))
    }

    fn sheds(&self) -> bool {
        true
    }

    fn admits(
        &self,
        members: &[Job],
        cand: &Job,
        pred: &Predictor,
        now_us: u64,
        model: &CostModel,
    ) -> bool {
        slo_admits(members, cand, pred, now_us, model)
    }
}

/// Weighted-slowdown (highest-response-ratio-next) release: minimizes
/// `predicted_run / (wait + predicted_run)` so short jobs go first but
/// long jobs age their way to the front instead of starving. Sheds.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedSlowdown;

impl PackPolicy for WeightedSlowdown {
    fn name(&self) -> &'static str {
        "wslow"
    }

    fn ordered(&self) -> bool {
        true
    }

    fn priority(&self, job: &Job, pred: &Predictor, now_us: u64) -> Option<u64> {
        let max_bytes = job.streams.iter().map(|s| s.len() as u64).max().unwrap_or(0);
        let run = pred.predict_run_us(&job.spec_key, &job.spec, max_bytes).max(1);
        let wait = now_us.saturating_sub(job.arrival_us);
        // run / (wait + run) in ×2^20 fixed point; smaller = better
        // response ratio = released first. Equal ratios (every job at
        // wait 0 sits at exactly 1.0) break toward the shorter run in
        // the low bits, so fresh shorts still lead fresh longs.
        let ratio = (run << 20) / (wait + run);
        Some((ratio << 20) | run.min((1 << 20) - 1))
    }

    fn sheds(&self) -> bool {
        true
    }

    fn admits(
        &self,
        members: &[Job],
        cand: &Job,
        pred: &Predictor,
        now_us: u64,
        model: &CostModel,
    ) -> bool {
        slo_admits(members, cand, pred, now_us, model)
    }
}

/// Config-friendly policy selector (the trait objects themselves are
/// stateless, so a `Copy` enum round-trips through [`HostConfig`]
/// cleanly).
///
/// [`HostConfig`]: crate::HostConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// [`FirstFit`] — the pre-policy behavior (default).
    #[default]
    FirstFit,
    /// [`EdfPack`].
    Edf,
    /// [`DeferFill`].
    DeferFill,
    /// [`ShortestJob`].
    Shortest,
    /// [`WeightedSlowdown`].
    WeightedSlowdown,
}

impl PolicyKind {
    /// All selectable policies, in benchmark-table order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::FirstFit,
        PolicyKind::Edf,
        PolicyKind::DeferFill,
        PolicyKind::Shortest,
        PolicyKind::WeightedSlowdown,
    ];

    /// Parses a CLI name (`first_fit`, `edf`, `defer_fill`, `sjf`,
    /// `wslow`).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        Some(match s {
            "first_fit" => PolicyKind::FirstFit,
            "edf" => PolicyKind::Edf,
            "defer_fill" => PolicyKind::DeferFill,
            "sjf" => PolicyKind::Shortest,
            "wslow" => PolicyKind::WeightedSlowdown,
            _ => return None,
        })
    }

    /// The policy's machine-readable name.
    pub fn name(self) -> &'static str {
        self.build().name()
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn PackPolicy> {
        match self {
            PolicyKind::FirstFit => Box::new(FirstFit),
            PolicyKind::Edf => Box::new(EdfPack),
            PolicyKind::DeferFill => Box::new(DeferFill),
            PolicyKind::Shortest => Box::new(ShortestJob),
            PolicyKind::WeightedSlowdown => Box::new(WeightedSlowdown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_lang::{UnitBuilder, UnitSpec};
    use std::sync::Arc;

    fn spec8() -> Arc<UnitSpec> {
        let mut u = UnitBuilder::new("Byte", 8, 8);
        let acc = u.reg("acc", 8, 0);
        let inp = u.input();
        u.set(acc, acc ^ inp);
        Arc::new(u.build().unwrap())
    }

    fn model() -> CostModel {
        CostModel { pack_us_fixed: 5, pack_us_per_stream: 1, drain_us_per_kib: 1, defer_cap_us: 300 }
    }

    #[test]
    fn kinds_round_trip_names() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind), "{kind:?}");
        }
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn first_fit_is_inert() {
        let p = FirstFit;
        let pred = Predictor::new(125_000_000);
        let job = Job::new(1, 0, spec8(), vec![vec![0u8; 64]]);
        assert_eq!(p.priority(&job, &pred, 0), None);
        assert!(!p.sheds());
        // hold_until default: launch immediately.
        let batch = crate::pack::PackedBatch {
            spec: job.spec.clone(),
            spec_key: job.spec_key.clone(),
            jobs: vec![job],
            slots: 8,
            slots_used: 1,
            out_capacity: 1024,
        };
        assert_eq!(p.hold_until(&batch, &pred, 0, &model()), None);
    }

    #[test]
    fn edf_orders_by_deadline_and_sheds_doomed() {
        let p = EdfPack;
        let pred = Predictor::new(125_000_000);
        let tight = Job::new(1, 0, spec8(), vec![vec![0u8; 64]]).with_deadline(100);
        let loose = Job::new(2, 0, spec8(), vec![vec![0u8; 64]]).with_deadline(900);
        let none = Job::new(3, 0, spec8(), vec![vec![0u8; 64]]);
        assert!(p.priority(&tight, &pred, 0) < p.priority(&loose, &pred, 0));
        assert_eq!(p.priority(&none, &pred, 0), Some(u64::MAX));
        assert!(p.sheds());
        // 64 KB at the 8 ns/B seed ≈ 525 µs of run: a 10 µs deadline
        // is doomed, a 1 s deadline is fine.
        let big = Job::new(4, 0, spec8(), vec![vec![0u8; 65536]]);
        assert!(doomed(&big.clone().with_deadline(10), &pred, 0, &model()));
        assert!(!doomed(&big.with_deadline(1_000_000), &pred, 0, &model()));
        assert!(!doomed(&none, &pred, 0, &model()), "no deadline, never doomed");
    }

    #[test]
    fn defer_fill_holds_within_slack_and_caps_the_wait() {
        let p = DeferFill;
        let pred = Predictor::new(125_000_000);
        let job = Job::new(1, 0, spec8(), vec![vec![0u8; 1024]]).with_deadline(100_000);
        let batch = crate::pack::PackedBatch {
            spec: job.spec.clone(),
            spec_key: job.spec_key.clone(),
            jobs: vec![job],
            slots: 64,
            slots_used: 1,
            out_capacity: 2048,
        };
        // Plenty of slack: the hold is bounded by the defer cap, not
        // the deadline.
        let hold = p.hold_until(&batch, &pred, 0, &model()).expect("slack to hold");
        assert_eq!(hold, 300, "deadline-rich batch holds to the cap");
        // Same batch with a close deadline: the hold shrinks to what
        // the member's slack allows.
        let mut tight = batch.clone();
        tight.jobs[0].deadline_us = Some(120);
        let hold = p.hold_until(&tight, &pred, 0, &model());
        assert!(hold.is_none_or(|h| h < 120), "hold {hold:?} must respect the deadline");
        // No slack at all: launch immediately.
        let mut dead = batch.clone();
        dead.jobs[0].deadline_us = Some(10);
        assert_eq!(p.hold_until(&dead, &pred, 0, &model()), None);
    }

    #[test]
    fn slo_admission_closes_the_batch_before_a_long_job_busts_a_deadline() {
        let pred = Predictor::new(125_000_000);
        let m = model();
        // A short member with a 100 µs deadline; run ≈ 1 µs at the
        // seed, so another short fits easily.
        let member = Job::new(1, 0, spec8(), vec![vec![0u8; 64]]).with_deadline(100);
        let short = Job::new(2, 0, spec8(), vec![vec![0u8; 64]]).with_deadline(100);
        assert!(slo_admits(std::slice::from_ref(&member), &short, &pred, 0, &m));
        // A 64 KB candidate (≈525 µs at the seed) would stretch the
        // member far past 100 µs — refused even though the candidate's
        // own deadline is generous.
        let long = Job::new(3, 0, spec8(), vec![vec![0u8; 65536]]).with_deadline(1_000_000);
        assert!(!slo_admits(std::slice::from_ref(&member), &long, &pred, 0, &m));
        // Deadline-free batches admit anything (the pre-policy rule).
        let free = Job::new(4, 0, spec8(), vec![vec![0u8; 64]]);
        assert!(slo_admits(std::slice::from_ref(&free), &long, &pred, 0, &m));
        // EdfPack wires the shared rule in; FirstFit stays inert.
        assert!(!EdfPack.admits(std::slice::from_ref(&member), &long, &pred, 0, &m));
        assert!(FirstFit.admits(std::slice::from_ref(&member), &long, &pred, 0, &m));
    }

    #[test]
    fn sjf_and_wslow_prefer_short_jobs_but_wslow_ages() {
        let pred = Predictor::new(125_000_000);
        let short = Job::new(1, 0, spec8(), vec![vec![0u8; 256]]);
        let long = Job::new(2, 0, spec8(), vec![vec![0u8; 65536]]).with_arrival(0);
        let sjf = ShortestJob;
        assert!(sjf.priority(&short, &pred, 0) < sjf.priority(&long, &pred, 0));
        let w = WeightedSlowdown;
        // Fresh: short wins.
        assert!(w.priority(&short, &pred, 0) < w.priority(&long, &pred, 0));
        // The long job has waited 100 ms; a *fresh* short job no
        // longer jumps it.
        let fresh_short = Job::new(3, 0, spec8(), vec![vec![0u8; 256]]).with_arrival(100_000);
        assert!(
            w.priority(&long, &pred, 100_000) < w.priority(&fresh_short, &pred, 100_000),
            "aged long job must outrank a brand-new short one"
        );
    }
}
