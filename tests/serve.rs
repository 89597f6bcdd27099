//! End-to-end serving tests: real application streams through the
//! fleet-host scheduler over simulated F1 instances, checking output
//! correctness, determinism, and multi-instance scaling.

use std::sync::Arc;

use fleet_apps::{App, AppKind};
use fleet_host::{Host, HostConfig, Job};

/// A small multi-tenant Bloom workload with staggered arrivals.
fn bloom_workload(jobs: usize, tenants: u32) -> (App, Vec<Job>) {
    let app = App::new(AppKind::Bloom);
    let spec = Arc::new(app.spec());
    let workload = (0..jobs)
        .map(|i| {
            let bytes = 512 + (i % 5) * 768;
            let stream = app.gen_stream(i as u64, bytes);
            Job::new(i as u64, i as u32 % tenants, spec.clone(), vec![stream])
                .with_arrival(i as u64 * 10)
        })
        .collect();
    (app, workload)
}

#[test]
fn serve_runs_real_app_streams_to_golden_outputs() {
    let (app, jobs) = bloom_workload(24, 4);
    let golden: Vec<Vec<u8>> = jobs.iter().map(|j| app.golden(&j.streams[0])).collect();

    let mut host = Host::new(HostConfig::new(2));
    let report = host.serve(jobs);

    assert_eq!(report.completed.len(), 24);
    assert!(report.rejected.is_empty() && report.failed.is_empty());
    for done in &report.completed {
        assert_eq!(
            done.outputs[0], golden[done.id as usize],
            "job {} output differs from the golden model",
            done.id
        );
        assert_eq!(
            done.latency.total_us(),
            done.completed_us - done.arrival_us,
            "job {} latency phases must cover arrival to completion",
            done.id
        );
    }
    assert_eq!(report.tenants.len(), 4, "every tenant shows up in the report");
}

#[test]
fn serve_is_deterministic_for_a_fixed_workload() {
    let run = || {
        let (_, jobs) = bloom_workload(20, 4);
        let mut cfg = HostConfig::new(2);
        cfg.weights = vec![(0, 3), (1, 1), (2, 2), (3, 1)];
        Host::new(cfg).serve(jobs)
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_json(), b.to_json(), "virtual-time serving must be bit-for-bit stable");
}

#[test]
fn two_instances_scale_completed_throughput() {
    // A pure capacity test: everything arrives at t=0 and small batch
    // caps force several batches per instance.
    let app = App::new(AppKind::Bloom);
    let spec = Arc::new(app.spec());
    let jobs: Vec<Job> = (0..32)
        .map(|i| {
            Job::new(i, (i % 4) as u32, spec.clone(), vec![app.gen_stream(i, 2048)])
        })
        .collect();
    let serve_with = |instances| {
        let mut cfg = HostConfig::new(instances);
        cfg.pu_slot_cap = 8;
        cfg.max_jobs_per_batch = 8;
        Host::new(cfg).serve(jobs.clone())
    };
    let one = serve_with(1);
    let two = serve_with(2);
    assert_eq!(one.completed.len(), 32);
    assert_eq!(two.completed.len(), 32);
    let speedup = two.jobs_per_sec() / one.jobs_per_sec();
    assert!(speedup >= 1.7, "2-instance speedup only {speedup:.2}×");
}
