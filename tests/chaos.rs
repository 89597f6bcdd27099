//! Chaos determinism properties: the serving stack under seeded fault
//! injection must be reproducible — byte-identical reports for a fixed
//! fault seed, run to run — and must account for every
//! submitted job, across all six paper applications.

use std::sync::Arc;

use fleet_apps::{App, AppKind};
use fleet_host::{FaultPlan, Host, HostConfig, Job};
use proptest::prelude::*;

const APPS: [AppKind; 6] = [
    AppKind::Json,
    AppKind::IntCode,
    AppKind::Tree,
    AppKind::Smith,
    AppKind::Regex,
    AppKind::Bloom,
];

/// A small staggered workload over one app.
fn workload(app: &App, jobs: usize, seed: u64) -> Vec<Job> {
    let spec = Arc::new(app.spec());
    (0..jobs)
        .map(|i| {
            let bytes = 256 + ((seed as usize ^ (i * 37)) % 4) * 256;
            let stream = app.gen_stream(seed ^ i as u64, bytes);
            Job::new(i as u64, i as u32 % 3, spec.clone(), vec![stream])
                .with_arrival(i as u64 * 7)
        })
        .collect()
}

fn config(fault: FaultPlan) -> HostConfig {
    let mut cfg = HostConfig::new(2);
    cfg.max_jobs_per_batch = 4;
    // Tight watchdog so wedged runs stay cheap to simulate.
    cfg.system.watchdog_cycles = 20_000;
    cfg.fault = fault;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For any fault seed and rate, every app serves to a report that
    /// is byte-identical on a rerun, and no job is ever unaccounted
    /// for: submitted == completed + rejected + failed.
    #[test]
    fn faulted_serves_rerun_identically_and_conserve_jobs(
        fault_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        rate_ppm in 0u32..=300_000,
    ) {
        for kind in APPS {
            let app = App::new(kind);
            let jobs = workload(&app, 6, stream_seed);
            let plan = if rate_ppm == 0 {
                FaultPlan::none()
            } else {
                FaultPlan::with_seed(fault_seed)
                    .dram_stalls(rate_ppm, 150)
                    .ecc_flips(rate_ppm / 2)
                    .wedges(rate_ppm / 10, 32)
            };
            let serve = || Host::new(config(plan)).serve(jobs.clone());
            let one = serve();
            let accounted = one.completed.len() + one.rejected.len() + one.failed.len();
            prop_assert_eq!(
                accounted as u64, one.counters.submitted,
                "{kind:?}: job leaked under faults"
            );
            prop_assert_eq!(one.to_json(), serve().to_json(), "{kind:?}: report diverged on a rerun");
        }
    }
}

/// An all-zero-rate fault plan must be a true no-op: the report is
/// byte-identical to a host that was never configured for faults at
/// all, for every app.
#[test]
fn inert_fault_plan_changes_nothing() {
    for kind in APPS {
        let app = App::new(kind);
        let jobs = workload(&app, 8, 99);
        let plain = Host::new(config(FaultPlan::none())).serve(jobs.clone());
        // A seeded plan whose rates are all zero is still inert.
        let seeded_inert = Host::new(config(FaultPlan::with_seed(12345))).serve(jobs);
        assert_eq!(
            plain.to_json(),
            seeded_inert.to_json(),
            "{kind:?}: inert fault plan perturbed the report"
        );
        assert_eq!(plain.counters.faults_injected, 0);
    }
}

/// Fixed fault seed, fixed workload: the faulted report reproduces
/// byte-for-byte run to run, retries and all.
#[test]
fn faulted_serve_reproduces_run_to_run() {
    let app = App::new(AppKind::Bloom);
    let plan = FaultPlan::with_seed(7).dram_stalls(100_000, 150).wedges(60_000, 32);
    let run = || {
        let jobs = workload(&app, 10, 4);
        Host::new(config(plan)).serve(jobs)
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.counters.faults_injected > 0, "plan should inject something");
}
