//! The six workloads. Each is set up from a seed, then asked for timed
//! reps (one full pass over its inputs, outputs checked after the clock
//! stops) and, in a traced run, for its layers' metrics.

use fleet_system::{SimThreads, SystemConfig};
use fleet_trace::LatencyStats;

use crate::metrics::Values;
use crate::spans::Recorder;

mod cluster;
mod engine;
mod layers;
mod serve;
mod session;

/// Clock of the modelled F1, in cycles per virtual µs.
pub const CYCLES_PER_US: f64 = 125.0;

/// Hard cap on simulated cycles per channel; inputs are sized so hitting
/// it is a bug, not an outcome.
pub const MAX_CYCLES: u64 = 500_000_000;

/// What one pass over a workload's inputs did.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Wall seconds of the timed section (host clock). Input cloning and
    /// output checking are outside it.
    pub wall_s: f64,
    /// Simulated cycles: channel-engine cycles summed over channels
    /// (direct engine workloads), instance busy cycles summed over
    /// batches (`Host` workloads), or modelled instance-busy cycles
    /// (`cluster_model`).
    pub cycles: u64,
    /// Input stream bytes consumed.
    pub input_bytes: u64,
    /// Operations attempted: PU streams, jobs or sessions.
    pub attempted: u64,
    /// Operations that failed, were rejected, or gave a wrong output.
    pub failed: u64,
    /// Every sim-clock value of the pass: the sim end-to-end metrics and
    /// the exact per-layer counts. Identical on every rep of a run.
    pub sim: Values,
}

/// A workload, set up and ready to be repeated.
pub trait Workload {
    /// Runs one pass, with spans around every call into a layer.
    fn rep(&mut self, rec: &mut Recorder) -> Rep;

    /// Per-layer metrics of a traced run: host times derived from the
    /// spans of the `traced_reps` recorded passes, the workload's
    /// isolated layer drives (each given about `budget_s` of wall time;
    /// 0 = one iteration), and sim values that need the crates' own
    /// counter sinks.
    fn layers(&mut self, rec: &mut Recorder, traced_reps: usize, budget_s: f64, out: &mut Values);
}

/// Builds workload `name` from `seed`: generates inputs, builds and
/// compiles specs, computes reference outputs. `None` for an unknown
/// name.
pub fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Option<Box<dyn Workload>> {
    Some(match name {
        "apps_f1" => Box::new(engine::EngineWorkload::apps_f1(seed, rec)),
        "mem_read" => Box::new(engine::EngineWorkload::mem(false, seed, rec)),
        "mem_readwrite" => Box::new(engine::EngineWorkload::mem(true, seed, rec)),
        "serve_jobs" => Box::new(serve::ServeJobs::new(seed, rec)),
        "session_stream" => Box::new(session::SessionStream::new(seed, rec)),
        "cluster_model" => Box::new(cluster::ClusterModel::new(seed, rec)),
        _ => return None,
    })
}

/// SplitMix64 of `seed` and a salt: every generated input derives from
/// the command line's `--seed` through this.
pub fn mix(seed: u64, salt: u64) -> u64 {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    fleet_fault::mix64((seed ^ salt.wrapping_mul(GOLDEN)).wrapping_add(GOLDEN))
}

/// F1 system configuration with the serial simulation drive: pooled
/// scaling is deliberately not measured on a shared two-core box.
pub fn f1_serial(out_capacity: usize) -> SystemConfig {
    let mut cfg = SystemConfig::f1(out_capacity);
    cfg.sim_threads = SimThreads::Fixed(1);
    cfg
}

/// The 99th percentile of `values`, computed as the crates' reports
/// compute theirs.
pub fn p99(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut stats = LatencyStats::new();
    values.into_iter().for_each(|v| stats.record(v));
    stats.p99()
}

/// Inserts `value` under `name`.
pub fn put(out: &mut Values, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_seeds_and_salts() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
