//! A reusable simulated F1 instance.
//!
//! [`run_system`](crate::run_system) is a one-shot convenience; serving
//! runtimes (`fleet-host`) instead hold a pool of [`Instance`] handles,
//! each standing for one FPGA board, and run batch after batch on them.
//! The handle owns the platform configuration and accumulates lifetime
//! utilization statistics across runs, which is what capacity planning
//! and the service report need.

use std::sync::Arc;

use fleet_compiler::CompiledUnit;
use fleet_fault::FaultPlan;
use fleet_memctl::SimPool;

use crate::open::OpenRun;
use crate::system::{run_system_faulted, RunFailure, RunReport, SystemConfig};

/// Lifetime statistics of one instance, accumulated across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InstanceStats {
    /// Completed runs (batches) on this instance.
    pub runs: u64,
    /// Runs that failed (overflow, timeout, worker panic).
    pub failed_runs: u64,
    /// Simulated cycles across all completed runs.
    pub busy_cycles: u64,
    /// Simulated seconds across all completed runs.
    pub busy_seconds: f64,
    /// Input bytes consumed across all completed runs.
    pub input_bytes: u64,
    /// Output bytes produced across all completed runs.
    pub output_bytes: u64,
    /// Processing units instantiated, summed over completed runs.
    pub units_run: u64,
}

/// One simulated F1 board, reusable across runs.
///
/// The output-region capacity varies per batch (it depends on the jobs
/// packed onto the board), so a run takes it per call and the handle
/// keeps the platform/controller configuration fixed.
#[derive(Debug, Clone)]
pub struct Instance {
    id: usize,
    cfg: SystemConfig,
    stats: InstanceStats,
    /// Shared simulation worker pool. When set, every run evaluates its
    /// PU shards on this pool; when absent, each run provisions its own
    /// per [`SystemConfig::sim_threads`].
    pool: Option<Arc<SimPool>>,
}

impl Instance {
    /// Creates an instance with the given id and configuration.
    pub fn new(id: usize, cfg: SystemConfig) -> Instance {
        Instance { id, cfg, stats: InstanceStats::default(), pool: None }
    }

    /// Routes this instance's simulation work through `pool`, a pool
    /// shared across instances so concurrent batches never oversubscribe
    /// the host's cores. Thread count never changes results — only
    /// wall-clock time.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<SimPool>) -> Instance {
        self.pool = Some(pool);
        self
    }

    /// The instance id (its index in the host's pool).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The platform configuration this instance runs with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Lifetime statistics accumulated so far.
    pub fn stats(&self) -> InstanceStats {
        self.stats
    }

    /// Runs one batch of `streams` through replicas of the pre-compiled
    /// `unit` with the given per-unit output capacity and per-batch
    /// [`FaultPlan`] (pass [`FaultPlan::none`] for a fault-free run),
    /// accumulating the instance statistics. Nothing is re-validated,
    /// rebuilt, or copied per batch, and a failure carries the full
    /// [`RunFailure`] — typed cause, per-stream partial results, cycles
    /// burned — for the serving layer's retry/salvage/quarantine logic.
    ///
    /// # Errors
    ///
    /// Returns the boxed [`RunFailure`] on overflow, timeout, wedge,
    /// stall, or worker panic (a poisoned channel thread surfaces as
    /// [`SystemError::WorkerPanic`](crate::SystemError::WorkerPanic));
    /// the instance stays reusable for the next batch.
    ///
    /// # Panics
    ///
    /// Panics if a stream is not a whole number of input tokens
    /// (callers are expected to validate jobs at admission).
    pub fn run_compiled_faulted(
        &mut self,
        unit: &CompiledUnit,
        streams: &[&[u8]],
        out_capacity: usize,
        fault: FaultPlan,
    ) -> Result<RunReport, Box<RunFailure>> {
        let mut cfg = self.cfg;
        cfg.out_capacity = out_capacity;
        cfg.fault = fault;
        let result = run_system_faulted(unit, streams, &cfg, self.pool.as_deref());
        self.record(result)
    }

    /// Builds a resumable [`OpenRun`] of `caps.len()` replicated units
    /// on this instance's platform, one open stream per entry with the
    /// given reserved input capacity — the incremental-execution handle
    /// behind `fleet-session`. The run shares this instance's
    /// simulation pool; it does not touch the instance statistics until
    /// the caller accounts it with [`Instance::record_open_run`] (open
    /// runs span many scheduler events, so accrual happens once at
    /// session end, like a one-shot batch).
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty.
    pub fn open_run(
        &self,
        unit: &CompiledUnit,
        caps: &[usize],
        out_capacity: usize,
    ) -> OpenRun {
        let mut cfg = self.cfg;
        cfg.out_capacity = out_capacity;
        OpenRun::new(unit, caps, cfg, self.pool.clone())
    }

    /// Accounts one finished open (session) run into the lifetime
    /// statistics, mirroring what [`Instance::run_compiled_faulted`]
    /// records for a one-shot batch of the same shape.
    pub fn record_open_run(&mut self, run: &OpenRun, failed: bool) {
        if failed || run.is_failed() {
            self.stats.failed_runs += 1;
            return;
        }
        let cycles = run.cycles();
        self.stats.runs += 1;
        self.stats.busy_cycles += cycles;
        self.stats.busy_seconds += self.cfg.platform.seconds(cycles);
        self.stats.input_bytes += run.input_bytes();
        self.stats.output_bytes += run.output_bytes();
        self.stats.units_run += run.streams() as u64;
    }

    fn record<E>(&mut self, result: Result<RunReport, E>) -> Result<RunReport, E> {
        match &result {
            Ok(report) => {
                self.stats.runs += 1;
                self.stats.busy_cycles += report.cycles;
                self.stats.busy_seconds += report.seconds;
                self.stats.input_bytes += report.input_bytes;
                self.stats.output_bytes += report.output_bytes;
                self.stats.units_run += report.units as u64;
            }
            Err(_) => self.stats.failed_runs += 1,
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{run_system, SystemError};
    use fleet_lang::{UnitBuilder, UnitSpec};

    fn identity_spec() -> UnitSpec {
        let mut u = UnitBuilder::new("Identity", 8, 8);
        let inp = u.input();
        let nf = u.stream_finished().not_b();
        u.if_(nf, |u| u.emit(inp.clone()));
        u.build().unwrap()
    }

    /// One fault-free batch of owned streams on `inst`.
    fn run(
        inst: &mut Instance,
        spec: &UnitSpec,
        streams: &[Vec<u8>],
        out_capacity: usize,
    ) -> Result<RunReport, SystemError> {
        let unit = CompiledUnit::new(spec);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        inst.run_compiled_faulted(&unit, &refs, out_capacity, FaultPlan::none())
            .map_err(|f| f.error)
    }

    #[test]
    fn instance_is_reusable_and_accumulates_stats() {
        let spec = identity_spec();
        let mut inst = Instance::new(3, SystemConfig::f1(1024));
        assert_eq!(inst.id(), 3);

        let a = run(&mut inst, &spec, &[vec![1u8; 256], vec![2u8; 128]], 512).unwrap();
        assert_eq!(a.outputs[0], vec![1u8; 256]);
        let b = run(&mut inst, &spec, &[vec![3u8; 64]], 512).unwrap();
        assert_eq!(b.outputs[0], vec![3u8; 64]);

        let s = inst.stats();
        assert_eq!(s.runs, 2);
        assert_eq!(s.failed_runs, 0);
        assert_eq!(s.input_bytes, 256 + 128 + 64);
        assert_eq!(s.output_bytes, 256 + 128 + 64);
        assert_eq!(s.units_run, 3);
        assert_eq!(s.busy_cycles, a.cycles + b.cycles);
    }

    #[test]
    fn run_compiled_matches_run_and_accumulates_stats() {
        // An instance batch is the one-shot `run_system` of the same
        // streams at the batch's output capacity, plus the accounting.
        let spec = identity_spec();
        let streams = [vec![1u8; 256], vec![2u8; 128]];

        let ra = run_system(&spec, &streams, &SystemConfig::f1(512)).unwrap();
        let mut b = Instance::new(1, SystemConfig::f1(1024));
        let rb = run(&mut b, &spec, &streams, 512).unwrap();
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.outputs, rb.outputs);
        let want = InstanceStats {
            runs: 1,
            failed_runs: 0,
            busy_cycles: ra.cycles,
            busy_seconds: ra.seconds,
            input_bytes: ra.input_bytes,
            output_bytes: ra.output_bytes,
            units_run: 2,
        };
        assert_eq!(b.stats(), want);
    }

    #[test]
    fn failed_run_counts_and_instance_survives() {
        let spec = identity_spec();
        let mut inst = Instance::new(0, SystemConfig::f1(1024));
        // Overflow: 8 KB through a 256-byte output region.
        let err = run(&mut inst, &spec, &[vec![9u8; 8192]], 256).unwrap_err();
        assert!(matches!(err, SystemError::OutputOverflow { .. }));
        assert_eq!(inst.stats().failed_runs, 1);
        assert_eq!(inst.stats().runs, 0);
        // Still usable afterwards.
        let ok = run(&mut inst, &spec, &[vec![5u8; 128]], 512).unwrap();
        assert_eq!(ok.outputs[0], vec![5u8; 128]);
        assert_eq!(inst.stats().runs, 1);
    }
}
