//! Scheduler-side observability: decision counters and latency
//! distributions for serving runtimes.
//!
//! The full-system simulators attribute *cycles* (see
//! [`crate::report`]); a host-side job scheduler attributes *time spent
//! per job* — queue wait, batch packing, the simulated run, output
//! drain — and counts its admission/packing/rejection decisions. Both
//! live in this crate so every layer of the stack reports through one
//! observability subsystem.
//!
//! All durations are in *virtual microseconds*: the serving simulation
//! advances a deterministic virtual clock (runs take their simulated
//! platform time), so identical seeds reproduce identical latency
//! distributions bit-for-bit.

/// Retained-sample cap of a [`LatencyStats`] buffer. Distributions
/// below the cap are exact; beyond it the buffer is repeatedly halved
/// by systematic decimation (stride doubles each time), bounding memory
/// at ~64 KiB per distribution no matter how many samples a long-lived
/// session records.
const LATENCY_SAMPLE_CAP: usize = 8192;

/// A latency sample distribution in virtual microseconds.
///
/// Count, sum (mean), and max are always exact. Percentiles are
/// nearest-rank over a *bounded* sorted sample buffer: every sample is
/// kept until the 8,192-sample cap, so the serving benchmarks'
/// thousands-of-jobs distributions stay bit-exact; past the cap the
/// buffer keeps every `stride`-th arrival (stride doubling as needed),
/// a systematic reservoir whose nearest-rank error is at most a few
/// rank positions out of thousands. The buffer is maintained sorted, so
/// percentile reads stay O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    /// Invariant: always sorted ascending; at most
    /// [`LATENCY_SAMPLE_CAP`] entries.
    sorted: Vec<u64>,
    /// Keep every `stride`-th arriving sample (power of two; 1 = exact).
    stride: u64,
    /// Arrivals since the last kept sample, in [0, stride).
    phase: u64,
    /// Exact number of samples recorded.
    count: u64,
    /// Exact sum of all samples (u128: u64 samples × u64 counts).
    sum: u128,
    /// Exact maximum sample.
    max_us: u64,
}

impl Default for LatencyStats {
    fn default() -> LatencyStats {
        LatencyStats { sorted: Vec::new(), stride: 1, phase: 0, count: 0, sum: 0, max_us: 0 }
    }
}

/// Keeps odd indices of a sorted buffer — a systematic half-sample of
/// the order statistics (odd, not even, so a singleton buffer drops its
/// sole entry only alongside doubling the stride that would re-add it).
fn decimate(sorted: &mut Vec<u64>) {
    let mut keep = 0usize;
    for i in (1..sorted.len()).step_by(2) {
        sorted[keep] = sorted[i];
        keep += 1;
    }
    sorted.truncate(keep);
}

impl LatencyStats {
    /// An empty distribution.
    pub fn new() -> LatencyStats {
        LatencyStats::default()
    }

    /// Records one sample. Scalars (count, mean, max) are exact; the
    /// percentile buffer keeps every `stride`-th arrival (sorted
    /// insert; serving samples arrive in roughly increasing completion
    /// time, so the common case is an append).
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum += us as u128;
        self.max_us = self.max_us.max(us);
        self.phase += 1;
        if self.phase < self.stride {
            return;
        }
        self.phase = 0;
        match self.sorted.last() {
            Some(&last) if last > us => {
                let i = self.sorted.partition_point(|&s| s <= us);
                self.sorted.insert(i, us);
            }
            _ => self.sorted.push(us),
        }
        if self.sorted.len() >= LATENCY_SAMPLE_CAP {
            decimate(&mut self.sorted);
            self.stride *= 2;
        }
    }

    /// Absorbs every sample of `other` (one merge, not per-sample
    /// inserts). Scalars stay exact; the buffers are aligned to a
    /// common stride (the finer one decimated up) before combining.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max_us = self.max_us.max(other.max_us);
        let mut theirs = other.sorted.clone();
        let mut their_stride = other.stride;
        while self.stride < their_stride {
            decimate(&mut self.sorted);
            self.stride *= 2;
        }
        while their_stride < self.stride {
            decimate(&mut theirs);
            their_stride *= 2;
        }
        let keep_tail = self.sorted.last().is_none_or(|&l| theirs.first().is_none_or(|&f| l <= f));
        self.sorted.extend_from_slice(&theirs);
        if !keep_tail {
            self.sorted.sort_unstable();
        }
        while self.sorted.len() >= LATENCY_SAMPLE_CAP {
            decimate(&mut self.sorted);
            self.stride *= 2;
        }
        self.phase = 0;
    }

    /// Number of samples recorded (exact, not the retained-buffer
    /// size).
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Mean, or 0 for an empty distribution (exact at any count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Largest sample, or 0 when empty (exact at any count).
    pub fn max(&self) -> u64 {
        self.max_us
    }

    /// Nearest-rank percentile (`p` in [0, 100]), or 0 when empty:
    /// `percentile(50.0)` is the median, `percentile(100.0)` the max.
    /// Exact below the sample cap; within a few rank positions beyond
    /// it. O(1): the retained samples are already sorted.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 100.0 || self.sorted.is_empty() {
            return self.max_us;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Tail shorthand.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// One JSON object (`{"count": …, "mean_us": …, "p50_us": …,
    /// "p99_us": …, "max_us": …}`) — hand-rolled, like every serializer
    /// in this workspace, because no `serde` is vendored.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            self.count(),
            self.mean(),
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

/// Counters of every decision a serving runtime makes about long-lived
/// sessions (chunked streaming ingestion), nested inside
/// [`SchedCounters`]. All zeros for a pure one-shot-job workload, and
/// omitted from the JSON in that case so pre-session reports are
/// byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Sessions admitted (opened).
    pub opened: u64,
    /// Chunk appends accepted into session buffers.
    pub appends: u64,
    /// Bytes accepted across all appends.
    pub append_bytes: u64,
    /// Appends refused because the session's credit window was full
    /// (credit-based backpressure).
    pub backpressure: u64,
    /// Session close requests observed.
    pub closes: u64,
    /// Incremental run quanta (suspend/resume advances) executed.
    pub advances: u64,
    /// Idle sessions evicted from slot residency (reservation freed).
    pub evictions: u64,
    /// Evicted sessions re-admitted when their next chunk arrived.
    pub readmissions: u64,
    /// Sessions force-closed at end of service (arrivals exhausted with
    /// the session still open).
    pub force_closed: u64,
    /// Sessions that ran to completion and delivered all output.
    pub completed: u64,
    /// Sessions that failed (engine error or misaligned close).
    pub failed: u64,
    /// High-water mark of concurrently open sessions (gauge: merge
    /// takes the max, not the sum).
    pub peak_open: u64,
}

impl SessionCounters {
    /// Adds every count of `other` into `self` (gauge fields take the
    /// max).
    pub fn merge(&mut self, other: &SessionCounters) {
        self.opened += other.opened;
        self.appends += other.appends;
        self.append_bytes += other.append_bytes;
        self.backpressure += other.backpressure;
        self.closes += other.closes;
        self.advances += other.advances;
        self.evictions += other.evictions;
        self.readmissions += other.readmissions;
        self.force_closed += other.force_closed;
        self.completed += other.completed;
        self.failed += other.failed;
        self.peak_open = self.peak_open.max(other.peak_open);
    }

    /// One JSON object with every session counter.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"opened\": {}, \"appends\": {}, \"append_bytes\": {}, \"backpressure\": {}, \
             \"closes\": {}, \"advances\": {}, \"evictions\": {}, \"readmissions\": {}, \
             \"force_closed\": {}, \"completed\": {}, \"failed\": {}, \"peak_open\": {}}}",
            self.opened,
            self.appends,
            self.append_bytes,
            self.backpressure,
            self.closes,
            self.advances,
            self.evictions,
            self.readmissions,
            self.force_closed,
            self.completed,
            self.failed,
            self.peak_open
        )
    }
}

/// Counters of every decision a fleet-of-fleets router makes above the
/// single-host scheduler: placement, rerouting, failover drains, and
/// autoscaling. One struct per host plus a cluster-wide roll-up; gauge
/// fields merge by max, everything else sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Jobs routed to a host by the cluster ingest tier.
    pub routed: u64,
    /// Routed jobs placed on a host that already held the job's spec in
    /// its compile cache (spec-affinity hit).
    pub warm_hits: u64,
    /// Jobs re-routed to a sibling host after their first placement
    /// failed or the host quarantined.
    pub reroutes: u64,
    /// Jobs drained out of a dead host's queue and replayed on
    /// siblings.
    pub drained_jobs: u64,
    /// Instances added by the autoscaler under sustained queue
    /// pressure.
    pub scale_ups: u64,
    /// Instances retired by the autoscaler after sustained idleness.
    pub scale_downs: u64,
    /// Quarantined instances replaced (modelled board swap).
    pub replacements: u64,
    /// Hosts that entered the all-instances-quarantined state.
    pub host_quarantines: u64,
    /// High-water mark of concurrently provisioned instances
    /// cluster-wide (gauge: merge takes the max, not the sum).
    pub peak_instances: u64,
}

impl ClusterCounters {
    /// Adds every count of `other` into `self` (gauge fields take the
    /// max).
    pub fn merge(&mut self, other: &ClusterCounters) {
        self.routed += other.routed;
        self.warm_hits += other.warm_hits;
        self.reroutes += other.reroutes;
        self.drained_jobs += other.drained_jobs;
        self.scale_ups += other.scale_ups;
        self.scale_downs += other.scale_downs;
        self.replacements += other.replacements;
        self.host_quarantines += other.host_quarantines;
        self.peak_instances = self.peak_instances.max(other.peak_instances);
    }

    /// One JSON object with every cluster counter.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"routed\": {}, \"warm_hits\": {}, \"reroutes\": {}, \"drained_jobs\": {}, \
             \"scale_ups\": {}, \"scale_downs\": {}, \"replacements\": {}, \
             \"host_quarantines\": {}, \"peak_instances\": {}}}",
            self.routed,
            self.warm_hits,
            self.reroutes,
            self.drained_jobs,
            self.scale_ups,
            self.scale_downs,
            self.replacements,
            self.host_quarantines,
            self.peak_instances
        )
    }
}

/// Counters of every decision a job scheduler makes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Jobs offered to the submission queue.
    pub submitted: u64,
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Jobs refused because the bounded queue was full (backpressure).
    pub rejected_queue_full: u64,
    /// Jobs refused because their streams failed validation.
    pub rejected_malformed: u64,
    /// Jobs dropped because their deadline had already passed when the
    /// packer reached them.
    pub rejected_deadline: u64,
    /// Batches packed onto instances.
    pub batches_packed: u64,
    /// Jobs included in packed batches.
    pub jobs_packed: u64,
    /// PU slots filled across all packed batches.
    pub slots_packed: u64,
    /// PU slots available across all packed batches (fill ratio
    /// denominator).
    pub slots_offered: u64,
    /// Jobs that completed and drained successfully.
    pub completed: u64,
    /// Jobs whose batch failed (overflow, timeout, worker panic).
    pub failed: u64,
    /// Jobs that completed after their deadline.
    pub deadline_misses: u64,
    /// Failed jobs re-queued for another attempt.
    pub retries: u64,
    /// Jobs failed because they exceeded the per-job timeout.
    pub timeouts: u64,
    /// Instances quarantined after consecutive batch failures.
    pub quarantines: u64,
    /// Fault events injected by the simulation substrate (DRAM stalls,
    /// corrected ECC flips, wedges), summed over all runs.
    pub faults_injected: u64,
    /// Under-filled batches a deferring pack policy held open waiting
    /// for more work instead of launching first. Always 0 under the
    /// first-fit policy (and omitted from the JSON then, so first-fit
    /// reports stay byte-identical to the pre-policy format).
    pub deferred: u64,
    /// Jobs proactively rejected because the run-time predictor said
    /// their completion would land past their deadline — shedding them
    /// before they burn a slot they can only miss in. Always 0 under
    /// the first-fit policy (and omitted from the JSON then).
    pub shed_predicted: u64,
    /// Long-lived session decisions; all zeros (and omitted from the
    /// JSON) for a pure one-shot-job workload.
    pub sessions: SessionCounters,
}

impl SchedCounters {
    /// Fraction of offered PU slots actually filled, in [0, 1].
    pub fn slot_fill(&self) -> f64 {
        if self.slots_offered == 0 {
            return 0.0;
        }
        self.slots_packed as f64 / self.slots_offered as f64
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &SchedCounters) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_malformed += other.rejected_malformed;
        self.rejected_deadline += other.rejected_deadline;
        self.batches_packed += other.batches_packed;
        self.jobs_packed += other.jobs_packed;
        self.slots_packed += other.slots_packed;
        self.slots_offered += other.slots_offered;
        self.completed += other.completed;
        self.failed += other.failed;
        self.deadline_misses += other.deadline_misses;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.quarantines += other.quarantines;
        self.faults_injected += other.faults_injected;
        self.deferred += other.deferred;
        self.shed_predicted += other.shed_predicted;
        self.sessions.merge(&other.sessions);
    }

    /// One JSON object with every counter plus the derived slot-fill
    /// ratio. The nested `"sessions"` object appears only when at least
    /// one session was opened, keeping session-free reports
    /// byte-identical to the pre-session format.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"submitted\": {}, \"admitted\": {}, \"rejected_queue_full\": {}, \
             \"rejected_malformed\": {}, \"rejected_deadline\": {}, \"batches_packed\": {}, \
             \"jobs_packed\": {}, \"slots_packed\": {}, \"slots_offered\": {}, \
             \"slot_fill\": {:.4}, \"completed\": {}, \"failed\": {}, \"deadline_misses\": {}, \
             \"retries\": {}, \"timeouts\": {}, \"quarantines\": {}, \"faults_injected\": {}",
            self.submitted,
            self.admitted,
            self.rejected_queue_full,
            self.rejected_malformed,
            self.rejected_deadline,
            self.batches_packed,
            self.jobs_packed,
            self.slots_packed,
            self.slots_offered,
            self.slot_fill(),
            self.completed,
            self.failed,
            self.deadline_misses,
            self.retries,
            self.timeouts,
            self.quarantines,
            self.faults_injected
        );
        // Policy counters appear only when a non-inert policy used
        // them, keeping first-fit reports byte-identical to the
        // pre-policy layout.
        if self.deferred > 0 {
            json.push_str(&format!(", \"deferred\": {}", self.deferred));
        }
        if self.shed_predicted > 0 {
            json.push_str(&format!(", \"shed_predicted\": {}", self.shed_predicted));
        }
        if self.sessions.opened > 0 {
            json.push_str(", \"sessions\": ");
            json.push_str(&self.sessions.to_json());
        }
        json.push('}');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut l = LatencyStats::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            l.record(v);
        }
        assert_eq!(l.count(), 10);
        assert_eq!(l.p50(), 50);
        assert_eq!(l.percentile(90.0), 90);
        assert_eq!(l.p99(), 100);
        assert_eq!(l.percentile(100.0), 100);
        assert_eq!(l.max(), 100);
        assert!((l.mean() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn hundred_sample_percentiles_use_nearest_rank_not_max() {
        // 1..=100: nearest-rank p99 = sample at rank ceil(0.99*100) = 99
        // — NOT the max. Recorded shuffled to prove order-independence
        // of the sorted-at-insert representation.
        let mut l = LatencyStats::new();
        for v in (0..100u64).map(|i| (i * 37) % 100 + 1) {
            l.record(v);
        }
        assert_eq!(l.count(), 100);
        assert_eq!(l.p50(), 50);
        assert_eq!(l.percentile(90.0), 90);
        assert_eq!(l.p99(), 99, "p99 of 1..=100 must be the 99th-rank sample");
        assert_eq!(l.percentile(100.0), 100);
        assert_eq!(l.percentile(1.0), 1);
        assert_eq!(l.max(), 100);
    }

    #[test]
    fn out_of_order_records_and_merges_stay_sorted() {
        let mut a = LatencyStats::new();
        for v in [50u64, 10, 90, 30, 70] {
            a.record(v);
        }
        let mut b = LatencyStats::new();
        for v in [80u64, 20, 60] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 8);
        assert_eq!(a.percentile(100.0), 90);
        assert_eq!(a.p50(), 50);
        assert_eq!(a.max(), 90);
        // Merging an all-larger distribution takes the append fast path.
        let mut c = LatencyStats::new();
        c.record(95);
        c.record(99);
        a.merge(&c);
        assert_eq!(a.max(), 99);
        assert_eq!(a.p50(), 60);
    }

    #[test]
    fn empty_stats_are_zero_not_panicking() {
        let l = LatencyStats::new();
        assert_eq!(l.p50(), 0);
        assert_eq!(l.p99(), 0);
        assert_eq!(l.max(), 0);
        assert_eq!(l.mean(), 0.0);
        assert!(l.to_json().contains("\"count\": 0"));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(1);
        let mut b = LatencyStats::new();
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 3);
    }

    #[test]
    fn capped_buffer_stays_bounded_and_percentiles_stay_accurate() {
        // 300k samples from a seeded LCG with a heavy upper tail —
        // far past the cap, so the buffer has halved several times.
        // Scalars must stay exact; nearest-rank percentiles must land
        // within a small value band of the exact reference.
        let mut l = LatencyStats::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 0x2545f4914f6cdd1du64;
        for _ in 0..300_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = x >> 33;
            // ~90% uniform in [0, 10_000), ~10% tail in [10_000, 110_000).
            let v = if r % 10 == 9 { 10_000 + (r / 16) % 100_000 } else { r % 10_000 };
            l.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        assert_eq!(l.count(), exact.len());
        assert_eq!(l.max(), *exact.last().unwrap());
        let exact_mean = exact.iter().map(|&v| v as u128).sum::<u128>() as f64 / exact.len() as f64;
        assert!((l.mean() - exact_mean).abs() < 1e-6, "mean must stay exact");
        // Retained buffer bounded regardless of sample count.
        assert!(l.sorted.len() < LATENCY_SAMPLE_CAP, "buffer exceeded cap: {}", l.sorted.len());
        assert!(l.stride > 1, "300k samples must have decimated the buffer");
        for p in [10.0, 50.0, 90.0, 99.0] {
            let got = l.percentile(p);
            // Accuracy is measured in *rank* space (a ~5k-point
            // subsample has ~0.5% rank noise, which near a density
            // cliff can be a large value gap): the reported value's
            // rank in the exact distribution must sit within 2% of the
            // requested percentile.
            let lo = exact.partition_point(|&v| v < got);
            let hi = exact.partition_point(|&v| v <= got);
            let want_rank = (p / 100.0) * exact.len() as f64;
            let err = if (lo as f64) > want_rank {
                lo as f64 - want_rank
            } else if (hi as f64) < want_rank {
                want_rank - hi as f64
            } else {
                0.0
            };
            let tol = exact.len() as f64 * 0.02;
            assert!(
                err <= tol,
                "p{p}: got value {got} at rank band [{lo}, {hi}], want rank {want_rank:.0} \
                 (err {err:.0} > tol {tol:.0})"
            );
        }
        assert_eq!(l.percentile(100.0), l.max());
    }

    #[test]
    fn merge_aligns_buffers_of_different_strides() {
        // One decimated distribution, one exact: the merge must align
        // strides, stay bounded, and keep scalars exact.
        let mut big = LatencyStats::new();
        for i in 0..50_000u64 {
            big.record(i % 1_000);
        }
        let mut small = LatencyStats::new();
        for v in [5_000u64, 6_000, 7_000] {
            small.record(v);
        }
        let (bc, sc) = (big.count(), small.count());
        big.merge(&small);
        assert_eq!(big.count(), bc + sc);
        assert_eq!(big.max(), 7_000);
        assert!(big.sorted.len() < LATENCY_SAMPLE_CAP);
        // And the symmetric direction: exact absorbing decimated.
        let mut small2 = LatencyStats::new();
        small2.record(42);
        let mut big2 = LatencyStats::new();
        for i in 0..50_000u64 {
            big2.record(i % 1_000);
        }
        small2.merge(&big2);
        assert_eq!(small2.count(), 50_001);
        assert_eq!(small2.max(), 999);
        assert!(small2.sorted.len() < LATENCY_SAMPLE_CAP);
        // Median of ~uniform 0..1000 stays near 500 through alignment.
        let p50 = small2.p50();
        assert!((450..=550).contains(&p50), "merged p50 {p50} drifted");
    }

    #[test]
    fn session_counters_merge_and_conditional_json() {
        // Session-free counters serialize exactly as before — no
        // "sessions" key — so golden serving reports stay byte-stable.
        let plain = SchedCounters { submitted: 3, ..Default::default() };
        assert!(!plain.to_json().contains("sessions"));
        assert_eq!(plain.to_json().matches('{').count(), 1);

        let mut a = SchedCounters {
            sessions: SessionCounters { opened: 2, peak_open: 5, ..Default::default() },
            ..Default::default()
        };
        let b = SchedCounters {
            sessions: SessionCounters {
                opened: 1,
                backpressure: 4,
                peak_open: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sessions.opened, 3);
        assert_eq!(a.sessions.backpressure, 4);
        assert_eq!(a.sessions.peak_open, 5, "gauge must merge by max");
        let json = a.to_json();
        assert!(json.contains("\"sessions\": {\"opened\": 3"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn policy_counters_are_conditional_and_merge() {
        // Zero policy counters serialize exactly as before — no
        // "deferred"/"shed_predicted" keys — so first-fit serving
        // reports stay byte-stable against the pre-policy format.
        let plain = SchedCounters { submitted: 2, ..Default::default() };
        let json = plain.to_json();
        assert!(!json.contains("deferred"), "{json}");
        assert!(!json.contains("shed_predicted"), "{json}");

        let mut a = SchedCounters { deferred: 3, shed_predicted: 1, ..Default::default() };
        let b = SchedCounters { deferred: 2, shed_predicted: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.deferred, 5);
        assert_eq!(a.shed_predicted, 5);
        let json = a.to_json();
        assert!(json.contains("\"deferred\": 5"), "{json}");
        assert!(json.contains("\"shed_predicted\": 5"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn cluster_counters_merge_and_serialize() {
        let mut a = ClusterCounters {
            routed: 100,
            warm_hits: 80,
            reroutes: 3,
            peak_instances: 64,
            ..Default::default()
        };
        let b = ClusterCounters {
            routed: 50,
            drained_jobs: 7,
            scale_ups: 2,
            scale_downs: 1,
            replacements: 4,
            host_quarantines: 1,
            peak_instances: 60,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.routed, 150);
        assert_eq!(a.warm_hits, 80);
        assert_eq!(a.drained_jobs, 7);
        assert_eq!(a.replacements, 4);
        assert_eq!(a.peak_instances, 64, "gauge must merge by max");
        let json = a.to_json();
        assert!(json.contains("\"routed\": 150"), "{json}");
        assert!(json.contains("\"peak_instances\": 64"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn counters_merge_and_fill_ratio() {
        let mut a = SchedCounters { slots_packed: 30, slots_offered: 40, ..Default::default() };
        let b = SchedCounters {
            submitted: 5,
            admitted: 4,
            rejected_queue_full: 1,
            slots_packed: 10,
            slots_offered: 40,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.submitted, 5);
        assert_eq!(a.slots_packed, 40);
        assert!((a.slot_fill() - 0.5).abs() < 1e-9);
        let json = a.to_json();
        assert!(json.contains("\"slot_fill\": 0.5000"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
