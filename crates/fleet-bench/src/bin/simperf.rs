//! simperf — simulator-throughput benchmark (S2): how fast the
//! full-system simulator itself runs, measured in simulated Mcycles per
//! wall-clock second and simulated input GB per wall-clock second.
//!
//! This tracks the *simulator's* performance, not the modelled FPGA's:
//! every optimization to the channel-engine hot path (shared compiled
//! programs, quiescent-PU skipping, slice-copy burst delivery, sharded
//! parallel PU evaluation) shows up here, and the cycle-exactness tests
//! guarantee none of them change a single simulated cycle.
//!
//! Each app runs at its paper PU count with `FLEET_BYTES_PER_PU` input
//! bytes per unit (default 4096 × `FLEET_SCALE`; the decision tree gets
//! 8× because of its per-unit ensemble header). Simulated cycles are
//! summed across the per-channel engines — each channel is an
//! independently simulated clock domain, so the sum is the number of
//! engine ticks the simulator actually executed.
//!
//! Flags:
//! - `--smoke`: bounded CI configuration (32 PUs per app, small streams).
//! - `--compare-naive`: also drive fresh engines through the naive
//!   reference tick (every PU evaluated every cycle, per-byte copies)
//!   and report the speedup of the *serial* fast path over it, at
//!   every `--threads` value; asserts both paths simulate the same
//!   number of cycles.
//! - `--threads <N|auto>`: size of the shared simulation worker pool
//!   (default 1 = the serial drive, like `SystemConfig::f1`; `auto` =
//!   host parallelism). With more than one thread the
//!   headline numbers come from the pooled sharded drive, a serial
//!   baseline is also timed, and the run *asserts* that both drives
//!   simulate identical cycles and produce byte-identical outputs (via
//!   an output fingerprint) — the determinism check CI leans on.
//!
//! Writes `BENCH_simperf.json` via `write_bench_json`.

use std::time::Instant;

use fleet_apps::{App, AppKind};
use fleet_bench::{print_table, scale, write_bench_json};
use fleet_compiler::CompiledUnit;
use fleet_system::{build_system_engines, SimPool, SimThreads, SystemConfig};

/// Hard cap on simulated cycles per channel; experiment inputs are sized
/// so hitting it is a bug, not an expected outcome.
const MAX_CYCLES: u64 = 500_000_000;

#[derive(Clone, Copy)]
enum DriveMode<'p> {
    Serial,
    Naive,
    Pooled(&'p SimPool),
}

struct AppRun {
    name: &'static str,
    pus: usize,
    input_bytes: u64,
    /// Headline drive: pooled when the pool has >1 worker, else serial.
    sim_cycles: u64,
    wall_seconds: f64,
    /// Cycles the headline drive advanced in bulk via the event-driven
    /// clock (a subset of `sim_cycles`; the naive reference never
    /// skips).
    cycles_skipped: u64,
    /// Serial-baseline (cycles, wall) — present only when the headline
    /// drive was pooled, for the thread-speedup column.
    serial: Option<(u64, f64)>,
    naive: Option<(u64, f64)>,
}

impl AppRun {
    fn mcycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds / 1e6
    }
    fn kcycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds / 1e3
    }
    fn gb_per_wall_sec(&self) -> f64 {
        self.input_bytes as f64 / self.wall_seconds / 1e9
    }
    fn serial_mcycles_per_sec(&self) -> Option<f64> {
        self.serial.map(|(c, w)| c as f64 / w / 1e6)
    }
    /// Pooled ÷ serial: what the worker pool adds (or costs).
    fn thread_speedup(&self) -> Option<f64> {
        self.serial_mcycles_per_sec().map(|s| self.mcycles_per_sec() / s)
    }
    fn naive_mcycles_per_sec(&self) -> Option<f64> {
        self.naive.map(|(c, w)| c as f64 / w / 1e6)
    }
    /// Serial fast path ÷ naive reference tick: what lane batching,
    /// quiescence skipping and the event-driven clock buy on one
    /// thread. Always taken from the serial drive — the only run when
    /// no pool ran — so the pool's scheduling cost never leaks into it.
    fn speedup(&self) -> Option<f64> {
        let serial = self.serial_mcycles_per_sec().unwrap_or_else(|| self.mcycles_per_sec());
        self.naive_mcycles_per_sec().map(|n| serial / n)
    }
}

/// Builds fresh engines for the app's streams and drives every channel
/// to completion, returning (total simulated cycles, wall seconds,
/// output fingerprint, cycles skipped). The fingerprint is FNV-1a over
/// every unit's committed output bytes in unit order — computed after
/// the clock stops, so hashing never pollutes the throughput number.
/// The serial drive goes through `run_channel` (like every production
/// caller), so it benefits from lane batching and the event-driven
/// clock; the naive reference ticks manually, evaluating every PU
/// every cycle.
fn drive(
    unit: &CompiledUnit,
    streams: &[&[u8]],
    cfg: &SystemConfig,
    mode: DriveMode<'_>,
) -> (u64, f64, u64, u64) {
    let (mut engines, maps) = build_system_engines(unit, streams, cfg);
    let start = Instant::now();
    let mut sim_cycles = 0u64;
    let mut skipped = 0u64;
    for eng in engines.iter_mut() {
        match mode {
            DriveMode::Pooled(pool) => {
                // Channels run one after another here, so each gets the
                // whole pool's worth of shards.
                eng.run_channel(MAX_CYCLES, Some(pool), pool.workers())
                    .expect("simperf pooled run failed");
            }
            DriveMode::Serial => {
                eng.run_channel(MAX_CYCLES, None, 1).expect("simperf serial run failed");
            }
            DriveMode::Naive => {
                while !eng.done() {
                    eng.tick_naive();
                    assert!(eng.overflowed_unit().is_none(), "output overflow in simperf run");
                    assert!(eng.stats().cycles < MAX_CYCLES, "simperf run did not converge");
                }
            }
        }
        sim_cycles += eng.stats().cycles;
        skipped += eng.cycles_skipped();
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for (eng, map) in engines.iter().zip(&maps) {
        for p in 0..map.len() {
            for &b in &eng.output_bytes(p) {
                fp = (fp ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    (sim_cycles, wall, fp, skipped)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut compare_naive = false;
    let mut threads_cfg = SimThreads::Fixed(1);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--compare-naive" => compare_naive = true,
            "--threads" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| panic!("--threads needs a value: a count or `auto`"));
                threads_cfg = SimThreads::parse(v)
                    .unwrap_or_else(|| panic!("bad --threads value {v:?}: want a count or `auto`"));
            }
            other => panic!(
                "unknown flag {other}; simperf takes --smoke, --compare-naive \
                 and/or --threads <N|auto>"
            ),
        }
        i += 1;
    }

    let threads = threads_cfg.resolve();
    let host_parallelism =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Every app below runs the F1 system configuration, so the SIMD
    // evaluation lane width is uniform across the report.
    let lanes = SystemConfig::f1(1).memctl.lane_width;
    let pool = (threads > 1).then(|| SimPool::new(SimThreads::Fixed(threads)));

    let bytes_per_pu: usize = std::env::var("FLEET_BYTES_PER_PU")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            if smoke {
                2048
            } else {
                (4096.0 * scale()) as usize
            }
        });
    println!(
        "# simperf: simulator throughput — {} B per unit, {} sim thread{}{}{}\n",
        bytes_per_pu,
        threads,
        if threads == 1 { "" } else { "s" },
        if smoke { ", smoke configuration" } else { "" },
        if compare_naive { ", vs naive reference tick" } else { "" },
    );

    let mut runs: Vec<AppRun> = Vec::new();
    for kind in AppKind::all() {
        let app = App::new(kind);
        let pus = if smoke { 32 } else { app.paper_pu_count() };
        // The decision-tree stream carries a ~8 KB ensemble header per
        // unit; give it proportionally more payload (as fig7 does).
        let per_pu = if kind == AppKind::Tree { bytes_per_pu * 8 } else { bytes_per_pu };
        eprintln!("running {} ({} PUs, {} B each) ...", app.name(), pus, per_pu);

        let streams: Vec<Vec<u8>> = (0..pus).map(|p| app.gen_stream(p as u64, per_pu)).collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let input_bytes: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap_or(0));
        let cfg = SystemConfig::f1(out_cap);
        let unit = CompiledUnit::new(&app.spec());

        let (serial_cycles, serial_wall, serial_fp, serial_skipped) =
            drive(&unit, &refs, &cfg, DriveMode::Serial);
        let pooled = pool.as_ref().map(|pool| {
            let (c, w, fp, skipped) = drive(&unit, &refs, &cfg, DriveMode::Pooled(pool));
            assert_eq!(
                serial_cycles, c,
                "{}: pooled and serial engines must simulate identical cycles",
                app.name()
            );
            assert_eq!(
                serial_fp, fp,
                "{}: pooled output fingerprint must match the serial drive",
                app.name()
            );
            (c, w, skipped)
        });
        let naive = compare_naive.then(|| {
            let (naive_cycles, naive_wall, naive_fp, _) =
                drive(&unit, &refs, &cfg, DriveMode::Naive);
            assert_eq!(
                serial_cycles, naive_cycles,
                "{}: naive and optimized engines must simulate identical cycles",
                app.name()
            );
            assert_eq!(
                serial_fp, naive_fp,
                "{}: naive output fingerprint must match the optimized drive",
                app.name()
            );
            (naive_cycles, naive_wall)
        });

        let (sim_cycles, wall_seconds, cycles_skipped) =
            pooled.unwrap_or((serial_cycles, serial_wall, serial_skipped));
        runs.push(AppRun {
            name: app.name(),
            pus,
            input_bytes,
            sim_cycles,
            wall_seconds,
            cycles_skipped,
            serial: pooled.is_some().then_some((serial_cycles, serial_wall)),
            naive,
        });
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}", r.pus),
                format!("{}", r.input_bytes),
                format!("{:.2}", r.sim_cycles as f64 / 1e6),
                format!("{:.2}", r.mcycles_per_sec()),
                format!("{:.3}", r.gb_per_wall_sec()),
                r.thread_speedup().map_or("-".into(), |s| format!("{s:.2}x")),
                r.naive_mcycles_per_sec().map_or("-".into(), |n| format!("{n:.2}")),
                r.speedup().map_or("-".into(), |s| format!("{s:.2}x")),
            ]
        })
        .collect();
    print_table(
        &[
            "App",
            "PUs",
            "Input B",
            "Sim Mcycles",
            "Mcycles/s",
            "GB/wall-s",
            "Pool speedup",
            "Naive Mcycles/s",
            "Speedup",
        ],
        &rows,
    );

    let json_rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"pus\": {}, \"input_bytes\": {}, \
                 \"sim_cycles\": {}, \"cycles_skipped\": {}, \"wall_seconds\": {:.6}, \
                 \"mcycles_per_sec\": {:.6}, \"kcycles_per_sec\": {:.3}, \
                 \"gb_per_wall_sec\": {:.6}, \
                 \"serial_mcycles_per_sec\": {}, \"thread_speedup\": {}, \
                 \"naive_mcycles_per_sec\": {}, \"speedup\": {}}}",
                r.name,
                r.pus,
                r.input_bytes,
                r.sim_cycles,
                r.cycles_skipped,
                r.wall_seconds,
                r.mcycles_per_sec(),
                r.kcycles_per_sec(),
                r.gb_per_wall_sec(),
                r.serial_mcycles_per_sec().map_or("null".into(), |s| format!("{s:.6}")),
                r.thread_speedup().map_or("null".into(), |s| format!("{s:.3}")),
                r.naive_mcycles_per_sec().map_or("null".into(), |n| format!("{n:.6}")),
                r.speedup().map_or("null".into(), |s| format!("{s:.3}")),
            )
        })
        .collect();
    write_bench_json(
        "simperf",
        &format!(
            "{{\n  \"bytes_per_pu\": {bytes_per_pu},\n  \"smoke\": {smoke},\n  \
             \"threads\": {threads},\n  \"host_parallelism\": {host_parallelism},\n  \
             \"lanes\": {lanes},\n  \
             \"apps\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        ),
    );

    if compare_naive {
        let fast_enough = runs.iter().filter(|r| r.speedup().unwrap_or(0.0) >= 2.0).count();
        println!(
            "\n{} of {} apps at >= 2.0x over the naive reference tick",
            fast_enough,
            runs.len()
        );
        // Attribute the win: how much of each app's simulated time the
        // event-driven clock covered in bulk instead of ticking.
        println!("cycles skipped by the event-driven clock (headline drive):");
        for r in &runs {
            println!(
                "  {}: {} of {} cycles skipped ({:.1}%)",
                r.name,
                r.cycles_skipped,
                r.sim_cycles,
                100.0 * r.cycles_skipped as f64 / (r.sim_cycles.max(1)) as f64
            );
        }
    }
}
