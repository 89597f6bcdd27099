//! Property tests over pack policies: job conservation, EDF deadline
//! dominance over first-fit, and rerun determinism — one property
//! per promise the scheduling-policies section of DESIGN.md makes.

use fleet_apps::{App, AppKind};
use fleet_bench::workload::{hostile_jobs, OpenLoop};
use fleet_host::{Host, HostConfig, Job, PolicyKind, ServiceReport};
use proptest::prelude::*;

/// A hostile deadline-rich workload: heavy-tailed lengths, flash
/// crowds, every job with a size-proportional deadline — the traffic
/// shape the policies exist for.
fn workload(seed: u64, jobs: usize, rate: u64, slack_us: u64) -> Vec<Job> {
    hostile_jobs(
        &OpenLoop {
            jobs,
            tenants: 4,
            seed,
            rate: rate as f64,
            min_bytes: 64,
            max_bytes: 16 * 1024,
            deadline_frac: 1.0,
            deadline_slack_us: slack_us,
            deadline_per_byte_ns: 20,
        },
        &App::new(AppKind::Bloom),
        7,
        5,
    )
}

fn serve(kind: PolicyKind, jobs: Vec<Job>) -> ServiceReport {
    let mut cfg = HostConfig::new(2);
    cfg.max_jobs_per_batch = 64;
    cfg.policy = kind;
    Host::new(cfg).serve(jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every policy accounts for every submitted job exactly once —
    /// completed, rejected, or failed — whatever it reorders, holds
    /// open, or predictively sheds.
    #[test]
    fn every_policy_conserves_jobs(
        seed in any::<u64>(),
        rate in 30_000u64..150_000,
        slack in 300u64..1500,
    ) {
        let jobs = workload(seed, 40, rate, slack);
        let n = jobs.len() as u64;
        for kind in PolicyKind::ALL {
            let r = serve(kind, jobs.clone());
            prop_assert_eq!(r.counters.submitted, n, "{} lost a submit", kind.name());
            prop_assert_eq!(
                (r.completed.len() + r.rejected.len() + r.failed.len()) as u64,
                n,
                "{} leaked jobs (completed {} rejected {} failed {})",
                kind.name(),
                r.completed.len(),
                r.rejected.len(),
                r.failed.len()
            );
        }
    }

    /// EDF release never does worse on deadlines than first-fit on the
    /// same timeline: it misses no more in total, and it never
    /// completes-late a job first-fit completed on time (it may shed
    /// such a job outright — that is the policy working, not a miss).
    #[test]
    fn edf_deadlines_dominate_first_fit(
        seed in any::<u64>(),
        rate in 40_000u64..120_000,
        slack in 300u64..1200,
    ) {
        let jobs = workload(seed, 40, rate, slack);
        let ff = serve(PolicyKind::FirstFit, jobs.clone());
        let edf = serve(PolicyKind::Edf, jobs);
        prop_assert!(
            edf.counters.deadline_misses <= ff.counters.deadline_misses,
            "edf missed {} deadlines, first_fit only {}",
            edf.counters.deadline_misses,
            ff.counters.deadline_misses
        );
        let ff_met: std::collections::BTreeSet<u64> = ff
            .completed
            .iter()
            .filter(|c| c.deadline_met == Some(true))
            .map(|c| c.id)
            .collect();
        for c in &edf.completed {
            if ff_met.contains(&c.id) {
                prop_assert!(
                    c.deadline_met != Some(false),
                    "edf completed job {} late where first_fit met its deadline",
                    c.id
                );
            }
        }
    }

    /// Every policy's full serving report is byte-identical on a rerun
    /// — the determinism contract holds for predictive scheduling
    /// exactly as it does for first-fit.
    #[test]
    fn every_policy_reruns_bit_identically(seed in any::<u64>()) {
        let jobs = workload(seed, 30, 80_000, 600);
        for kind in PolicyKind::ALL {
            let first = serve(kind, jobs.clone()).to_json();
            let again = serve(kind, jobs.clone()).to_json();
            prop_assert_eq!(&first, &again, "{} diverged on a rerun", kind.name());
        }
    }
}
