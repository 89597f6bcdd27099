//! serve — the multi-tenant serving experiment: open-loop Poisson
//! arrivals into the fleet-host scheduler over a pool of simulated F1
//! instances.
//!
//! The workload generator draws exponential inter-arrival times,
//! skewed stream lengths, and tenant assignments from a seeded PRNG, so
//! a fixed `--seed` reproduces the run bit-for-bit (the scheduler
//! itself is virtual-time deterministic). The same workload is served
//! twice — once on a single instance as the scaling baseline, once on
//! `--instances` — and the report covers per-tenant p50/p99 latency for
//! every phase plus the completed-jobs/sec speedup.
//!
//! A second section compares pack policies head-to-head on an SLO
//! workload: heavy-tailed stream lengths with flash-crowd bursts and
//! size-proportional deadlines (see `fleet_bench::workload`), served
//! once per `--policy` on identical instances. The table reports
//! goodput (deadline-meeting completions/sec), p99 latency, slot fill,
//! and the predictive counters (deferred holds, predictive sheds).
//!
//! ```text
//! cargo run -p fleet-bench --bin serve --release -- \
//!     --jobs 200 --tenants 8 --instances 2 --policy all
//! ```

use fleet_apps::{App, AppKind};
use fleet_bench::workload::{self, fingerprint};
use fleet_bench::{print_table, write_bench_json};
use fleet_host::{Host, HostConfig, Job, PolicyKind, ServiceReport};

#[derive(Debug, Clone)]
struct Args {
    jobs: usize,
    tenants: u32,
    instances: usize,
    seed: u64,
    /// Offered load in jobs per virtual second (open loop).
    rate: f64,
    min_bytes: usize,
    max_bytes: usize,
    max_jobs_per_batch: usize,
    /// Fraction of jobs submitted with a deadline.
    deadline_frac: f64,
    /// Arrival pattern for the headline sections: `poisson` (the
    /// historical default) or `hostile` (heavy tails + flash crowds).
    pattern: String,
    /// Policies for the comparison section: a policy name or `all`.
    policy: String,
    /// SLO-workload knobs (the comparison section only).
    slo_rate: f64,
    slo_max_bytes: usize,
    slo_slack_us: u64,
    slo_per_byte_ns: u64,
    slo_defer_cap_us: u64,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            jobs: 200,
            tenants: 8,
            instances: 2,
            seed: 42,
            rate: 2_000_000.0,
            min_bytes: 256,
            max_bytes: 8192,
            max_jobs_per_batch: 16,
            deadline_frac: 0.0,
            pattern: "poisson".to_string(),
            policy: "all".to_string(),
            slo_rate: 60_000.0,
            slo_max_bytes: 32 * 1024,
            slo_slack_us: 400,
            slo_per_byte_ns: 15,
            slo_defer_cap_us: 1500,
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
                "--rate" => a.rate = val("jobs/sec").parse().expect("--rate"),
                "--min-bytes" => a.min_bytes = val("bytes").parse().expect("--min-bytes"),
                "--max-bytes" => a.max_bytes = val("bytes").parse().expect("--max-bytes"),
                "--batch" => {
                    a.max_jobs_per_batch = val("count").parse().expect("--batch")
                }
                "--deadline-frac" => {
                    a.deadline_frac = val("fraction").parse().expect("--deadline-frac")
                }
                "--pattern" => a.pattern = val("poisson|hostile"),
                "--policy" => a.policy = val("policy name or all"),
                "--slo-rate" => a.slo_rate = val("jobs/sec").parse().expect("--slo-rate"),
                "--slo-max-bytes" => {
                    a.slo_max_bytes = val("bytes").parse().expect("--slo-max-bytes")
                }
                "--slo-slack" => {
                    a.slo_slack_us = val("µs").parse().expect("--slo-slack")
                }
                "--slo-per-byte-ns" => {
                    a.slo_per_byte_ns = val("ns").parse().expect("--slo-per-byte-ns")
                }
                "--slo-defer-cap" => {
                    a.slo_defer_cap_us = val("µs").parse().expect("--slo-defer-cap")
                }
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(a.jobs > 0 && a.tenants > 0 && a.instances > 0, "counts must be positive");
        assert!(a.rate > 0.0, "--rate must be positive");
        assert!(a.min_bytes <= a.max_bytes, "--min-bytes above --max-bytes");
        assert!(
            matches!(a.pattern.as_str(), "poisson" | "hostile"),
            "--pattern must be poisson or hostile"
        );
        assert!(
            a.policy == "all" || PolicyKind::parse(&a.policy).is_some(),
            "--policy must be a policy name or all"
        );
        a
    }
}

/// Builds the open-loop workload for the headline sections: Poisson
/// arrivals with skewed stream lengths (`--pattern poisson`, the
/// historical generator, byte-identical to before patterns existed) or
/// heavy tails with flash crowds (`--pattern hostile`).
fn build_workload(args: &Args) -> Vec<Job> {
    let w = workload::OpenLoop {
        jobs: args.jobs,
        tenants: args.tenants,
        seed: args.seed,
        rate: args.rate,
        min_bytes: args.min_bytes,
        max_bytes: args.max_bytes,
        deadline_frac: args.deadline_frac,
        deadline_slack_us: 200_000,
        deadline_per_byte_ns: 0,
    };
    let app = App::new(AppKind::Bloom);
    match args.pattern.as_str() {
        "hostile" => workload::hostile_jobs(&w, &app, 12, 6),
        _ => workload::poisson_jobs(&w, &app),
    }
}

/// A hostile deadline-rich workload: heavy-tailed lengths, flash
/// crowds, every job carrying a size-proportional deadline.
fn build_hostile(args: &Args, rate: f64, slack_us: u64) -> Vec<Job> {
    workload::hostile_jobs(
        &workload::OpenLoop {
            jobs: args.jobs,
            tenants: args.tenants,
            seed: args.seed,
            rate,
            min_bytes: 64,
            max_bytes: args.slo_max_bytes,
            deadline_frac: 1.0,
            deadline_slack_us: slack_us,
            deadline_per_byte_ns: args.slo_per_byte_ns,
        },
        &App::new(AppKind::Bloom),
        10,
        8,
    )
}

/// The SLO-comparison workload: an overload point, so a policy earns
/// goodput by packing well and shedding hopeless work, not by idling.
fn build_slo_workload(args: &Args) -> Vec<Job> {
    build_hostile(args, args.slo_rate, args.slo_slack_us)
}

/// The defer-fill study workload: moderate load with generous slack —
/// the regime where holding a batch open actually buys fill, because
/// arrivals still have slack left when an instance goes idle. (Under
/// overload the queue has already spent the slack before packing, so
/// holds never trigger; deferral is a moderate-load play.)
const FILL_RATE: f64 = 40_000.0;
const FILL_SLACK_US: u64 = 1200;

fn build_fill_workload(args: &Args) -> Vec<Job> {
    build_hostile(args, FILL_RATE, FILL_SLACK_US)
}

fn serve_on(instances: usize, args: &Args, jobs: Vec<Job>) -> ServiceReport {
    let mut cfg = HostConfig::new(instances);
    cfg.max_jobs_per_batch = args.max_jobs_per_batch;
    for t in 0..args.tenants {
        cfg.weights.push((t, 1 + t % 3));
    }
    Host::new(cfg).serve(jobs)
}

/// Serves the SLO workload under one policy. The batch cap opens to the
/// full slot budget so fill is the policy's problem, not the config's.
fn serve_policy(kind: PolicyKind, args: &Args, jobs: Vec<Job>) -> ServiceReport {
    let mut cfg = HostConfig::new(args.instances);
    cfg.max_jobs_per_batch = 64;
    cfg.policy = kind;
    cfg.defer_cap_us = args.slo_defer_cap_us;
    for t in 0..args.tenants {
        cfg.weights.push((t, 1 + t % 3));
    }
    Host::new(cfg).serve(jobs)
}

struct PolicyRow {
    name: &'static str,
    goodput: f64,
    ratio: f64,
    p99_total_us: u64,
    p99_queue_us: u64,
    slot_fill: f64,
    deferred: u64,
    shed: u64,
    misses: u64,
    completed: usize,
    rejected: usize,
    failed: usize,
    fp: u64,
}

fn main() {
    let args = Args::parse();
    println!(
        "# serve: {} jobs, {} tenants, {} instance(s), seed {}, {:.0} jobs/s offered\n",
        args.jobs, args.tenants, args.instances, args.seed, args.rate
    );

    let jobs = build_workload(&args);
    let baseline = serve_on(1, &args, jobs.clone());
    let report = serve_on(args.instances, &args, jobs);

    let mut rows = Vec::new();
    for (tenant, t) in &report.tenants {
        rows.push(vec![
            format!("{tenant}"),
            format!("{}", 1 + tenant % 3),
            format!("{}", t.completed),
            format!("{}", t.rejected + t.failed),
            format!("{} / {}", t.queue.p50(), t.queue.p99()),
            format!("{} / {}", t.run.p50(), t.run.p99()),
            format!("{} / {}", t.total.p50(), t.total.p99()),
        ]);
    }
    print_table(
        &[
            "Tenant",
            "Weight",
            "Completed",
            "Rejected+Failed",
            "Queue p50/p99 (µs)",
            "Run p50/p99 (µs)",
            "Total p50/p99 (µs)",
        ],
        &rows,
    );

    let speedup = report.jobs_per_sec() / baseline.jobs_per_sec();
    println!("\n1 instance : {}", baseline.summary());
    println!("{} instances: {}", args.instances, report.summary());
    println!(
        "scaling    : {:.2}× completed-jobs/sec over 1 instance",
        speedup
    );
    let json = report.to_json();
    println!("fingerprint: {:016x}", fingerprint(&json));

    // ---- SLO policy comparison -------------------------------------
    // One hostile deadline-rich workload, served once per policy on
    // identical instances. FirstFit always runs (it is the ratio
    // denominator and the pre-policy behavior).
    let kinds: Vec<PolicyKind> = if args.policy == "all" {
        PolicyKind::ALL.to_vec()
    } else {
        let kind = PolicyKind::parse(&args.policy).expect("validated in parse");
        if kind == PolicyKind::FirstFit {
            vec![kind]
        } else {
            vec![PolicyKind::FirstFit, kind]
        }
    };
    let slo_jobs = build_slo_workload(&args);
    let submitted = slo_jobs.len();
    println!(
        "\n# policy comparison: {} hostile jobs (flash crowds, heavy tails, 100% \
         size-proportional deadlines), {} instance(s), batch cap 64\n",
        submitted, args.instances
    );

    let mut prows: Vec<PolicyRow> = Vec::new();
    for kind in kinds {
        let r = serve_policy(kind, &args, slo_jobs.clone());
        let rjson = r.to_json();
        let accounted = r.completed.len() + r.rejected.len() + r.failed.len();
        assert_eq!(
            accounted as u64, r.counters.submitted,
            "{}: jobs not conserved ({} accounted, {} submitted)",
            kind.name(),
            accounted,
            r.counters.submitted
        );
        prows.push(PolicyRow {
            name: kind.name(),
            goodput: r.goodput_jobs_per_sec(),
            ratio: 0.0,
            p99_total_us: r.total_latency().p99(),
            p99_queue_us: r.queue_latency().p99(),
            slot_fill: r.counters.slot_fill(),
            deferred: r.counters.deferred,
            shed: r.counters.shed_predicted,
            misses: r.counters.deadline_misses,
            completed: r.completed.len(),
            rejected: r.rejected.len(),
            failed: r.failed.len(),
            fp: fingerprint(&rjson),
        });
    }
    let base_goodput = prows[0].goodput.max(f64::MIN_POSITIVE);
    for row in &mut prows {
        row.ratio = row.goodput / base_goodput;
    }

    let rows: Vec<Vec<String>> = prows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.1}", r.goodput),
                format!("{:.2}×", r.ratio),
                format!("{}", r.p99_total_us),
                format!("{:.3}", r.slot_fill),
                format!("{}", r.deferred),
                format!("{}", r.shed),
                format!("{}", r.misses),
                format!("{}/{}/{}", r.completed, r.rejected, r.failed),
                format!("{:016x}", r.fp),
            ]
        })
        .collect();
    print_table(
        &[
            "Policy",
            "Goodput (jobs/s)",
            "vs first_fit",
            "p99 (µs)",
            "Slot fill",
            "Deferred",
            "Shed",
            "Misses",
            "Done/Rej/Fail",
            "Fingerprint",
        ],
        &rows,
    );

    // ---- defer-fill study ------------------------------------------
    // Deferral buys fill at moderate load with slack to spare, not
    // under overload — so the fill claim gets its own operating point:
    // same hostile shape, lower rate, generous slack.
    let fill_study = if args.policy == "all" || args.policy == "defer_fill" {
        let fill_jobs = build_fill_workload(&args);
        let base = serve_policy(PolicyKind::FirstFit, &args, fill_jobs.clone());
        let defer = serve_policy(PolicyKind::DeferFill, &args, fill_jobs);
        let base_fill = base.counters.slot_fill();
        let defer_fill = defer.counters.slot_fill();
        let fill_ratio = defer_fill / base_fill.max(f64::MIN_POSITIVE);
        let goodput_ratio =
            defer.goodput_jobs_per_sec() / base.goodput_jobs_per_sec().max(f64::MIN_POSITIVE);
        println!(
            "\n# defer-fill study: {} hostile jobs at {:.0} jobs/s, {} µs slack\n",
            submitted, FILL_RATE, FILL_SLACK_US
        );
        println!(
            "first_fit  : slot fill {:.3}, goodput {:.1} jobs/s",
            base_fill,
            base.goodput_jobs_per_sec()
        );
        println!(
            "defer_fill : slot fill {:.3} ({:.2}× first_fit), goodput {:.1} jobs/s \
             ({:.2}×), {} holds",
            defer_fill,
            fill_ratio,
            defer.goodput_jobs_per_sec(),
            goodput_ratio,
            defer.counters.deferred
        );
        Some(format!(
            "  \"fill_study\": {{\"rate_jobs_per_sec\": {:.1}, \"deadline_slack_us\": {}, \
             \"first_fit_slot_fill\": {:.4}, \"defer_fill_slot_fill\": {:.4}, \
             \"fill_ratio\": {:.4}, \"defer_goodput_vs_first_fit\": {:.4}, \
             \"deferred\": {}, \"first_fit_fingerprint\": \"{:016x}\", \
             \"defer_fill_fingerprint\": \"{:016x}\"}},\n",
            FILL_RATE,
            FILL_SLACK_US,
            base_fill,
            defer_fill,
            fill_ratio,
            goodput_ratio,
            defer.counters.deferred,
            fingerprint(&base.to_json()),
            fingerprint(&defer.to_json()),
        ))
    } else {
        None
    };

    let policies_json: String = prows
        .iter()
        .map(|r| {
            format!(
                "    {{\"policy\": \"{}\", \"goodput_jobs_per_sec\": {:.3}, \
                 \"goodput_vs_first_fit\": {:.4}, \"p99_total_us\": {}, \
                 \"p99_queue_us\": {}, \"slot_fill\": {:.4}, \"deferred\": {}, \
                 \"shed_predicted\": {}, \"deadline_misses\": {}, \"completed\": {}, \
                 \"rejected\": {}, \"failed\": {}, \"submitted\": {}, \
                 \"fingerprint\": \"{:016x}\"}}",
                r.name,
                r.goodput,
                r.ratio,
                r.p99_total_us,
                r.p99_queue_us,
                r.slot_fill,
                r.deferred,
                r.shed,
                r.misses,
                r.completed,
                r.rejected,
                r.failed,
                submitted,
                r.fp
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    write_bench_json(
        "serve",
        &format!(
            "{{\n  \"jobs\": {},\n  \"tenants\": {},\n  \"instances\": {},\n  \
             \"seed\": {},\n  \"rate_jobs_per_sec\": {:.1},\n  \
             \"baseline_jobs_per_sec\": {:.3},\n  \"speedup\": {:.4},\n  \
             \"fingerprint\": \"{:016x}\",\n  \"pattern\": \"{}\",\n  \
             \"slo_workload\": {{\"jobs\": {}, \"rate_jobs_per_sec\": {:.1}, \
             \"min_bytes\": 64, \"max_bytes\": {}, \"deadline_frac\": 1.0, \
             \"deadline_slack_us\": {}, \"deadline_per_byte_ns\": {}, \
             \"burst_every\": 10, \"burst_size\": 8, \"batch_cap\": 64, \
             \"defer_cap_us\": {}}},\n  \
             \"policies\": [\n{}\n  ],\n{}  \"report\": {}}}\n",
            args.jobs,
            args.tenants,
            args.instances,
            args.seed,
            args.rate,
            baseline.jobs_per_sec(),
            speedup,
            fingerprint(&json),
            args.pattern,
            submitted,
            args.slo_rate,
            args.slo_max_bytes,
            args.slo_slack_us,
            args.slo_per_byte_ns,
            args.slo_defer_cap_us,
            policies_json,
            fill_study.as_deref().unwrap_or(""),
            json
        ),
    );
}
