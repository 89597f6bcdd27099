//! Cluster-layer properties: the fleet-of-fleets must conserve jobs —
//! every offered job ends Completed, Rejected, or Failed exactly once
//! cluster-wide, through reroutes, drains, and failovers — and its
//! reports must be byte-identical across reruns, on either backend.

use std::sync::Arc;

use fleet_apps::{App, AppKind};
use fleet_cluster::{Backend, Cluster, ClusterConfig, FaultBurst, VecSource};
use fleet_host::{FaultPlan, Job};
use proptest::prelude::*;

/// A staggered multi-spec arrival stream (valid app token streams, so
/// the same workload drives both backends).
fn workload(jobs: usize, seed: u64) -> Vec<(u64, Job)> {
    let apps = [App::new(AppKind::Bloom), App::new(AppKind::Regex)];
    let specs: Vec<_> = apps.iter().map(|a| Arc::new(a.spec())).collect();
    (0..jobs)
        .map(|i| {
            let which = (seed as usize ^ i) % apps.len();
            let bytes = 256 + ((seed as usize ^ (i * 37)) % 4) * 256;
            let stream = apps[which].gen_stream(seed ^ i as u64, bytes);
            let job = Job::new(i as u64, i as u32 % 3, specs[which].clone(), vec![stream]);
            (i as u64 * 11, job)
        })
        .collect()
}

fn model_config(fault: FaultPlan, burst_seed: Option<u64>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(3, 2);
    cfg.backend = Backend::Model { seed: 5 };
    cfg.system.watchdog_cycles = 20_000;
    cfg.quarantine_after = 1;
    cfg.replace_after_us = 3_000;
    cfg.fault = fault;
    if let Some(seed) = burst_seed {
        // A zone failure over two of the three hosts: everything they
        // launch during the window wedges.
        cfg.bursts = vec![FaultBurst {
            start_us: 100,
            end_us: 1_500,
            host_lo: 0,
            host_hi: 1,
            plan: FaultPlan::with_seed(seed).wedges(1_000_000, 32),
        }];
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any fault seed, wedge rate, and workload, every offered job
    /// ends exactly once cluster-wide — completed, rejected, or failed
    /// — through retries, reroutes, quarantines, and queue drains; and
    /// the report reproduces byte-for-byte on a rerun.
    #[test]
    fn cluster_conserves_jobs_and_reproduces(
        fault_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        wedge_ppm in 0u32..=200_000,
        zone_burst in any::<bool>(),
    ) {
        let plan = if wedge_ppm == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::with_seed(fault_seed).wedges(wedge_ppm, 32)
        };
        let serve = || {
            let cfg = model_config(plan, zone_burst.then_some(fault_seed ^ 0xb0b));
            let mut source = VecSource::new(workload(60, stream_seed));
            Cluster::new(cfg).run(&mut source)
        };
        let report = serve();
        prop_assert_eq!(report.offered, 60);
        prop_assert_eq!(
            report.completed + report.failed + report.rejected,
            report.offered,
            "job leaked cluster-wide: {:?}", report
        );
        // Per-host accounting must agree with the cluster totals.
        let host_completed: u64 = report.per_host.iter().map(|h| h.sched.completed).sum();
        prop_assert_eq!(host_completed, report.completed);
        prop_assert_eq!(&serve().to_json(), &report.to_json(), "rerun diverged");
    }
}

/// Engine-backend cluster serves must be byte-identical on a rerun —
/// the cluster control plane runs on the virtual clock, so the order
/// instance workers finish in can never leak into the report.
#[test]
fn engine_cluster_reports_rerun_identically() {
    let serve = || {
        let mut cfg = ClusterConfig::new(2, 2);
        cfg.backend = Backend::Engine;
        cfg.system.watchdog_cycles = 20_000;
        cfg.fault = FaultPlan::with_seed(3).wedges(80_000, 32).ecc_flips(40_000);
        let mut source = VecSource::new(workload(24, 17));
        Cluster::new(cfg).run(&mut source).to_json()
    };
    assert_eq!(serve(), serve(), "engine-backend cluster report diverged on a rerun");
}

/// A zone burst that kills two of three hosts mid-serve: conservation
/// holds, the survivors absorb the drained queues, and replacement
/// restores capacity — availability stays high because retries reroute.
#[test]
fn zone_failure_drains_to_survivors_without_losing_jobs() {
    let mut cfg = model_config(FaultPlan::none(), Some(99));
    cfg.retry_limit = 5;
    let mut source = VecSource::new(workload(120, 23));
    let report = Cluster::new(cfg).run(&mut source);
    assert_eq!(report.offered, 120);
    assert_eq!(report.completed + report.failed + report.rejected, 120);
    assert!(report.sched.quarantines > 0, "burst must quarantine zone instances");
    assert!(report.cluster.reroutes > 0, "zone work must reroute to survivors");
    assert!(
        report.availability() > 0.95,
        "rerouting should hold availability: {}",
        report.availability()
    );
}
