//! # fleet-bench — experiment harnesses for every table and figure
//!
//! One binary per paper artifact (see `DESIGN.md`'s experiment index and
//! the README). This library holds the shared measurement plumbing: the
//! Fleet-side system runs, the CPU/GPU baseline runs, and table
//! formatting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod workload;

use fleet_apps::{App, AppKind};
use fleet_baselines::cpu::{self, CpuModel};
use fleet_baselines::kernel::Kernel;
use fleet_baselines::simt;
use fleet_baselines::GpuPlatformLike;
use fleet_system::{design_area, run_system, run_system_traced, Platform, RunReport, SystemConfig};

/// Returns the baseline kernel for an application.
pub fn kernel_for(kind: AppKind) -> Kernel {
    match kind {
        AppKind::Json => fleet_baselines::apps::json_kernel(),
        AppKind::IntCode => fleet_baselines::apps::intcode_kernel(),
        AppKind::Tree => fleet_baselines::apps::tree_kernel(),
        AppKind::Smith => fleet_baselines::apps::smith_kernel(),
        AppKind::Regex => {
            fleet_baselines::apps::regex_kernel(fleet_apps::regex::EMAIL_PATTERN)
        }
        AppKind::Bloom => fleet_baselines::apps::bloom_kernel(),
    }
}

/// Scale factor for simulation sizes, settable via `FLEET_SCALE`
/// (default 1.0; smaller is faster and noisier).
pub fn scale() -> f64 {
    std::env::var("FLEET_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Result of the Fleet side of a Figure 7 row.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Processing units instantiated.
    pub pus: usize,
    /// Units that would fit by the area model (sanity figure).
    pub fit: u64,
    /// Input throughput in GB/s.
    pub gbps: f64,
    /// FPGA package watts for the design.
    pub package_watts: f64,
    /// Perf/W without DRAM.
    pub perf_per_watt: f64,
    /// Perf/W with the 12.5 W DRAM convention.
    pub perf_per_watt_dram: f64,
    /// The raw run report.
    pub report: RunReport,
}

/// Runs one application on the modelled F1 with `pus` units of
/// `bytes_per_pu` input each (the paper uses 1 MB per unit; simulation
/// defaults to a scaled-down size with identical steady-state behaviour).
///
/// # Panics
///
/// Panics if the system run fails (overflow/timeout) — experiment inputs
/// are sized so that would be a bug, not an expected outcome.
pub fn run_fleet(app: &App, pus: usize, bytes_per_pu: usize) -> FleetResult {
    run_fleet_impl(app, pus, bytes_per_pu, false)
}

/// Like [`run_fleet`], but every channel records cycle-level counters;
/// the returned `report.trace` is `Some`, carrying per-PU stall
/// attribution, queue statistics, bus utilization, and DRAM counters.
///
/// # Panics
///
/// Same panics as [`run_fleet`].
pub fn run_fleet_traced(app: &App, pus: usize, bytes_per_pu: usize) -> FleetResult {
    run_fleet_impl(app, pus, bytes_per_pu, true)
}

fn run_fleet_impl(app: &App, pus: usize, bytes_per_pu: usize, traced: bool) -> FleetResult {
    let spec = app.spec();
    let platform = Platform::f1();
    let streams: Vec<Vec<u8>> = (0..pus)
        .map(|p| app.gen_stream(p as u64, bytes_per_pu))
        .collect();
    let out_cap = app.out_capacity(streams.iter().map(|s| s.len()).max().unwrap_or(0));
    let cfg = SystemConfig::f1(out_cap);
    let run = if traced { run_system_traced } else { run_system };
    let report = run(&spec, &streams, &cfg)
        .unwrap_or_else(|e| panic!("{} system run failed: {e}", app.name()));

    let memctl = cfg.memctl;
    let area = design_area(&spec, pus, &platform, &memctl);
    let fit = fleet_system::max_units(&spec, &platform, &memctl);
    let package_watts = platform.package_watts(area);
    let gbps = report.input_gbps();
    FleetResult {
        pus,
        fit,
        gbps,
        package_watts,
        perf_per_watt: gbps / package_watts,
        perf_per_watt_dram: gbps / (package_watts + platform.dram_watts),
        report,
    }
}

/// CPU baseline for one application (measured natively, scaled by the
/// c4.8xlarge model).
pub fn run_cpu(app: &App, streams: &[Vec<u8>], min_seconds: f64) -> cpu::CpuMeasurement {
    let a = *app;
    cpu::measure(move |s| a.golden(s), streams, &CpuModel::c4_8xlarge(), min_seconds)
}

/// GPU baseline result.
#[derive(Debug, Clone, Copy)]
pub struct GpuResult {
    /// Modelled throughput in GB/s.
    pub gbps: f64,
    /// Perf/W without DRAM (250 W TDP).
    pub perf_per_watt: f64,
    /// Perf/W with the 12.5 W DRAM convention.
    pub perf_per_watt_dram: f64,
}

/// GPU baseline for one application over `streams` (SIMT divergence
/// model on the V100 configuration; outputs checked against golden in
/// debug builds).
pub fn run_gpu(app: &App, streams: &[Vec<u8>]) -> GpuResult {
    let kernel = kernel_for(app.kind);
    let gpu = GpuPlatformLike::v100();
    let run = simt::run_gpu(&kernel, streams, &gpu);
    for (i, s) in streams.iter().enumerate() {
        debug_assert_eq!(run.outputs[i], app.golden(s), "GPU kernel drift on stream {i}");
    }
    let tdp = 250.0;
    GpuResult {
        gbps: run.gbps,
        perf_per_watt: run.gbps / tdp,
        perf_per_watt_dram: run.gbps / (tdp + 12.5),
    }
}

/// Directory machine-readable bench artifacts land in: `FLEET_BENCH_DIR`
/// if set, else the repository root.
pub fn bench_dir() -> std::path::PathBuf {
    std::env::var_os("FLEET_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Writes a machine-readable bench artifact as `BENCH_<name>.json` in
/// [`bench_dir`], returning the path it landed at. Failures are
/// reported on stderr rather than aborting the run — the human-readable
/// table on stdout is the primary artifact.
pub fn write_bench_json(name: &str, json: &str) -> std::path::PathBuf {
    let path = bench_dir().join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    path
}

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Prints a markdown table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    println!(
        "{}",
        row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        println!("{}", row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_exist_for_all_apps() {
        for kind in AppKind::all() {
            let k = kernel_for(kind);
            assert!(!k.body.is_empty());
        }
    }

    #[test]
    fn small_fleet_run_reports_throughput() {
        let app = App::new(AppKind::Bloom);
        let r = run_fleet(&app, 8, 4096);
        assert!(r.gbps > 0.0);
        assert!(r.package_watts > 0.0);
        assert!(r.perf_per_watt_dram < r.perf_per_watt);
    }
}
