//! chaos — the resilience experiment: the serving stack under seeded,
//! reproducible fault injection.
//!
//! The same open-loop workload is served repeatedly while the fault
//! rate sweeps from zero to heavy: DRAM read-stall spikes, corrected
//! ECC flips, and PU wedges, all derived from one `--fault-seed` via
//! pure hashes (never a shared RNG), so a fixed seed reproduces every
//! fault — and therefore every retry, timeout, and quarantine — run to
//! run. Per rate the report covers goodput
//! (completed-jobs/sec), availability (completed / submitted), and the
//! p99 latency degradation against the fault-free baseline.
//!
//! Before any numbers are reported, the run serves the heaviest sweep
//! point twice and asserts the two service reports are byte-identical —
//! the determinism contract the whole experiment rests on.
//!
//! ```text
//! cargo run -p fleet-bench --bin chaos --release -- \
//!     --jobs 120 --instances 2 --fault-seed 1
//! cargo run -p fleet-bench --bin chaos --release -- --smoke
//! ```

use fleet_apps::{App, AppKind};
use fleet_bench::workload::{self, fingerprint};
use fleet_bench::{print_table, write_bench_json};
use fleet_host::{Host, HostConfig, Job, ServiceReport};
use fleet_system::FaultPlan;

#[derive(Debug, Clone)]
struct Args {
    jobs: usize,
    tenants: u32,
    instances: usize,
    seed: u64,
    fault_seed: u64,
    /// Offered load in jobs per virtual second (open loop).
    rate: f64,
    min_bytes: usize,
    max_bytes: usize,
    max_jobs_per_batch: usize,
    /// Shrinks the sweep for CI: fewer jobs, fewer rates.
    smoke: bool,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            jobs: 120,
            tenants: 6,
            instances: 2,
            seed: 42,
            fault_seed: 1,
            rate: 2_000_000.0,
            min_bytes: 256,
            max_bytes: 4096,
            max_jobs_per_batch: 8,
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |what: &str| -> String {
                it.next().unwrap_or_else(|| panic!("{flag} needs a {what}"))
            };
            match flag.as_str() {
                "--jobs" => a.jobs = val("count").parse().expect("--jobs"),
                "--tenants" => a.tenants = val("count").parse().expect("--tenants"),
                "--instances" => a.instances = val("count").parse().expect("--instances"),
                "--seed" => a.seed = val("u64").parse().expect("--seed"),
                "--fault-seed" => a.fault_seed = val("u64").parse().expect("--fault-seed"),
                "--rate" => a.rate = val("jobs/sec").parse().expect("--rate"),
                "--min-bytes" => a.min_bytes = val("bytes").parse().expect("--min-bytes"),
                "--max-bytes" => a.max_bytes = val("bytes").parse().expect("--max-bytes"),
                "--batch" => {
                    a.max_jobs_per_batch = val("count").parse().expect("--batch")
                }
                "--smoke" => a.smoke = true,
                other => panic!("unknown flag {other}"),
            }
        }
        if a.smoke {
            a.jobs = a.jobs.min(40);
        }
        assert!(a.jobs > 0 && a.tenants > 0 && a.instances > 0, "counts must be positive");
        assert!(a.rate > 0.0, "--rate must be positive");
        assert!(a.min_bytes <= a.max_bytes, "--min-bytes above --max-bytes");
        a
    }
}

/// Fault intensity at one sweep point, scaled off a single scalar rate
/// in ppm: stalls at the full rate, ECC flips at half, wedges at a
/// tenth (wedges cost a whole watchdog window each, so they dominate).
fn plan_at(fault_seed: u64, rate_ppm: u32) -> FaultPlan {
    if rate_ppm == 0 {
        return FaultPlan::none();
    }
    FaultPlan::with_seed(fault_seed)
        .dram_stalls(rate_ppm, 200)
        .ecc_flips(rate_ppm / 2)
        .wedges(rate_ppm / 10, 64)
}

/// Same skewed open-loop workload as the serve bench, over the Bloom
/// app (fixed-size tokens keep stream generation cheap). A zero
/// deadline fraction consumes no extra randomness, so the draw order
/// matches the historical deadline-free generator exactly.
fn build_workload(args: &Args) -> Vec<Job> {
    workload::poisson_jobs(
        &workload::OpenLoop {
            jobs: args.jobs,
            tenants: args.tenants,
            seed: args.seed,
            rate: args.rate,
            min_bytes: args.min_bytes,
            max_bytes: args.max_bytes,
            deadline_frac: 0.0,
            deadline_slack_us: 200_000,
            deadline_per_byte_ns: 0,
        },
        &App::new(AppKind::Bloom),
    )
}

fn config(args: &Args, rate_ppm: u32) -> HostConfig {
    let mut cfg = HostConfig::new(args.instances);
    cfg.max_jobs_per_batch = args.max_jobs_per_batch;
    // A tight watchdog keeps wedged runs cheap to simulate; every
    // sweep point uses the same window so timing is comparable.
    cfg.system.watchdog_cycles = 50_000;
    cfg.fault = plan_at(args.fault_seed, rate_ppm);
    cfg
}

fn serve(args: &Args, rate_ppm: u32, jobs: &[Job]) -> ServiceReport {
    Host::new(config(args, rate_ppm)).serve(jobs.to_vec())
}

fn main() {
    let args = Args::parse();
    let rates: &[u32] = if args.smoke {
        &[0, 50_000, 200_000]
    } else {
        &[0, 5_000, 20_000, 50_000, 100_000, 200_000]
    };
    println!(
        "# chaos: {} jobs, {} tenants, {} instance(s), workload seed {}, fault seed {}\n",
        args.jobs, args.tenants, args.instances, args.seed, args.fault_seed
    );

    let jobs = build_workload(&args);

    // Determinism gate: the heaviest sweep point must produce the same
    // bytes run to run.
    let heavy = *rates.last().expect("non-empty sweep");
    let one = serve(&args, heavy, &jobs).to_json();
    let again = serve(&args, heavy, &jobs).to_json();
    assert_eq!(one, again, "fault injection diverged run to run");
    println!(
        "determinism: rate {heavy} ppm identical on a rerun (fingerprint {:016x})\n",
        fingerprint(&one)
    );

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut baseline_p99 = 1u64;
    let mut baseline_goodput = 0.0f64;
    for (k, &rate) in rates.iter().enumerate() {
        let report = serve(&args, rate, &jobs);
        let submitted = report.counters.submitted.max(1);
        let availability = report.counters.completed as f64 / submitted as f64;
        let goodput = report.jobs_per_sec();
        let p99 = report.total_latency().p99();
        if k == 0 {
            baseline_p99 = p99.max(1);
            baseline_goodput = goodput.max(f64::MIN_POSITIVE);
        }
        let c = &report.counters;
        rows.push(vec![
            format!("{rate}"),
            format!("{}", c.faults_injected),
            format!("{}/{}", c.completed, submitted),
            format!("{:.3}", availability),
            format!("{:.1}", goodput),
            format!("{:.2}×", goodput / baseline_goodput),
            format!("{p99}"),
            format!("{:.2}×", p99 as f64 / baseline_p99 as f64),
            format!("{} / {} / {}", c.retries, c.timeouts, c.quarantines),
        ]);
        json_rows.push(format!(
            "    {{\"rate_ppm\": {rate}, \"faults_injected\": {}, \"submitted\": {}, \
             \"completed\": {}, \"failed\": {}, \"rejected\": {}, \
             \"availability\": {:.6}, \"goodput_jobs_per_sec\": {:.3}, \
             \"p99_total_us\": {p99}, \"p99_degradation\": {:.4}, \"retries\": {}, \
             \"timeouts\": {}, \"quarantines\": {}, \"fingerprint\": \"{:016x}\"}}",
            c.faults_injected,
            c.submitted,
            c.completed,
            c.failed,
            report.rejected.len(),
            availability,
            goodput,
            p99 as f64 / baseline_p99 as f64,
            c.retries,
            c.timeouts,
            c.quarantines,
            fingerprint(&report.to_json()),
        ));
        let accounted =
            report.completed.len() + report.rejected.len() + report.failed.len();
        assert_eq!(
            accounted as u64, report.counters.submitted,
            "job leaked at rate {rate} ppm"
        );
    }

    print_table(
        &[
            "Rate (ppm)",
            "Faults",
            "Done/Sub",
            "Avail",
            "Goodput (j/s)",
            "vs clean",
            "p99 (µs)",
            "p99 degr",
            "Retry/TO/Quar",
        ],
        &rows,
    );

    write_bench_json(
        "chaos",
        &format!(
            "{{\n  \"jobs\": {},\n  \"tenants\": {},\n  \"instances\": {},\n  \
             \"seed\": {},\n  \"fault_seed\": {},\n  \"watchdog_cycles\": 50000,\n  \
             \"determinism_fingerprint\": \"{:016x}\",\n  \"sweep\": [\n{}\n  ]\n}}\n",
            args.jobs,
            args.tenants,
            args.instances,
            args.seed,
            args.fault_seed,
            fingerprint(&one),
            json_rows.join(",\n")
        ),
    );
}
