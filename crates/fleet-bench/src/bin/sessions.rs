//! sessions — the continuous-ingestion experiment: thousands of
//! long-lived sessions streaming chunked input into the fleet-host
//! scheduler at once.
//!
//! Every session opens before any closes, so the scheduler holds the
//! whole population (default 2,048) concurrently open while only
//! `pu_slot_cap × instances` streams fit in slot residency — the run
//! exercises admission queueing, idle eviction, re-admission, and
//! credit-based backpressure (every `--starve-every`-th session gets a
//! starved credit window, so its bursts bounce). Chunk sizes are
//! heavy-tailed: mostly tiny appends with a long tail of large ones.
//!
//! The bench is a determinism gate as well as a measurement: the full
//! run is repeated, and the two report JSONs must be byte-identical
//! before anything is written.
//!
//! ```text
//! cargo run -p fleet-bench --bin sessions --release -- --smoke
//! ```

use fleet_apps::{App, AppKind};
use fleet_bench::workload::{self, fingerprint};
use fleet_bench::{print_table, write_bench_json};
use fleet_host::{Host, HostConfig, MixedArrivals, ServiceReport};

#[derive(Debug, Clone)]
struct Args {
    sessions: usize,
    tenants: u32,
    instances: usize,
    seed: u64,
    chunks: usize,
    min_chunk: usize,
    max_chunk: usize,
    /// Virtual µs between consecutive session opens.
    open_gap_us: u64,
    /// Virtual µs between a session's consecutive chunks.
    chunk_gap_us: u64,
    credit_bytes: usize,
    starve_every: usize,
    evict_us: u64,
    smoke: bool,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            sessions: 2048,
            tenants: 16,
            instances: 4,
            seed: 42,
            chunks: 5,
            min_chunk: 16,
            max_chunk: 4096,
            open_gap_us: 2,
            chunk_gap_us: 40,
            credit_bytes: 1 << 16,
            starve_every: 7,
            evict_us: 200,
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |what: &str| -> String {
                it.next().unwrap_or_else(|| panic!("{flag} needs a {what}"))
            };
            match flag.as_str() {
                "--sessions" => a.sessions = val("count").parse().expect("--sessions"),
                "--tenants" => a.tenants = val("count").parse().expect("--tenants"),
                "--instances" => a.instances = val("count").parse().expect("--instances"),
                "--seed" => a.seed = val("u64").parse().expect("--seed"),
                "--chunks" => a.chunks = val("count").parse().expect("--chunks"),
                "--min-chunk" => a.min_chunk = val("bytes").parse().expect("--min-chunk"),
                "--max-chunk" => a.max_chunk = val("bytes").parse().expect("--max-chunk"),
                "--open-gap-us" => a.open_gap_us = val("µs").parse().expect("--open-gap-us"),
                "--chunk-gap-us" => {
                    a.chunk_gap_us = val("µs").parse().expect("--chunk-gap-us")
                }
                "--credit" => a.credit_bytes = val("bytes").parse().expect("--credit"),
                "--starve-every" => {
                    a.starve_every = val("count").parse().expect("--starve-every")
                }
                "--evict-us" => a.evict_us = val("µs").parse().expect("--evict-us"),
                "--smoke" => a.smoke = true,
                other => panic!("unknown flag {other}"),
            }
        }
        if a.smoke {
            // Smoke keeps the full 2,048-session population (the CI
            // floor checks peak_open) but trims per-session work.
            a.chunks = a.chunks.min(2);
            a.max_chunk = a.max_chunk.min(512);
        }
        assert!(
            a.sessions > 0 && a.tenants > 0 && a.instances > 0 && a.chunks > 0,
            "counts must be positive"
        );
        assert!(a.min_chunk <= a.max_chunk, "--min-chunk above --max-chunk");
        a
    }

    fn load(&self) -> workload::SessionLoad {
        workload::SessionLoad {
            sessions: self.sessions,
            tenants: self.tenants,
            seed: self.seed,
            chunks_per_session: self.chunks,
            min_chunk: self.min_chunk,
            max_chunk: self.max_chunk,
            open_gap_us: self.open_gap_us,
            chunk_gap_us: self.chunk_gap_us,
            credit_bytes: self.credit_bytes,
            starve_every: self.starve_every,
        }
    }
}

fn serve(args: &Args) -> ServiceReport {
    let events = workload::session_arrivals(&args.load(), &App::new(AppKind::Bloom));
    let mut cfg = HostConfig::new(args.instances);
    cfg.session_idle_evict_us = args.evict_us;
    Host::new(cfg).serve_arrivals(MixedArrivals::new(events))
}

fn main() {
    let args = Args::parse();
    println!(
        "# sessions: {} sessions, {} tenants, {} instance(s), {} chunks/session, seed {}{}\n",
        args.sessions,
        args.tenants,
        args.instances,
        args.chunks,
        args.seed,
        if args.smoke { " (smoke)" } else { "" }
    );

    // Determinism gate: the identical timeline served twice must
    // produce byte-identical reports.
    let report = serve(&args);
    let json = report.to_json();
    let json_rerun = serve(&args).to_json();
    assert_eq!(json, json_rerun, "session serving diverged across reruns");

    let sc = &report.counters.sessions;
    assert!(
        sc.peak_open as usize == args.sessions,
        "expected every session open at once (peak_open {} of {})",
        sc.peak_open,
        args.sessions
    );
    assert!(sc.backpressure > 0, "starved credits should bounce appends");

    let rows = vec![
        vec!["opened".into(), sc.opened.to_string()],
        vec!["peak open".into(), sc.peak_open.to_string()],
        vec!["completed".into(), sc.completed.to_string()],
        vec!["failed".into(), sc.failed.to_string()],
        vec!["force-closed".into(), sc.force_closed.to_string()],
        vec!["appends".into(), sc.appends.to_string()],
        vec![
            "append bytes".into(),
            format!("{:.2} MiB", sc.append_bytes as f64 / (1 << 20) as f64),
        ],
        vec!["backpressure".into(), sc.backpressure.to_string()],
        vec!["run quanta".into(), sc.advances.to_string()],
        vec!["evictions".into(), sc.evictions.to_string()],
        vec!["readmissions".into(), sc.readmissions.to_string()],
        vec!["makespan (µs)".into(), report.makespan_us.to_string()],
    ];
    print_table(&["Counter", "Value"], &rows);
    println!("\nrerun: byte-identical report");
    println!("fingerprint: {:016x}", fingerprint(&json));

    write_bench_json(
        "sessions",
        &format!(
            "{{\n  \"sessions\": {},\n  \"tenants\": {},\n  \"instances\": {},\n  \
             \"seed\": {},\n  \"chunks_per_session\": {},\n  \"smoke\": {},\n  \
             \"peak_open\": {},\n  \"completed\": {},\n  \"backpressure\": {},\n  \
             \"evictions\": {},\n  \"readmissions\": {},\n  \"makespan_us\": {},\n  \
             \"determinism_fingerprint\": \"{:016x}\",\n  \"report\": {}}}\n",
            args.sessions,
            args.tenants,
            args.instances,
            args.seed,
            args.chunks,
            args.smoke,
            sc.peak_open,
            sc.completed,
            sc.backpressure,
            sc.evictions,
            sc.readmissions,
            report.makespan_us,
            fingerprint(&json),
            json
        ),
    );
}
