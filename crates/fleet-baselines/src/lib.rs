//! # fleet-baselines — CPU, GPU, and HLS comparison points
//!
//! The comparison side of the paper's evaluation (§7.2, §7.4):
//!
//! * [`kernel`] — a small imperative stream-kernel IR; the six
//!   applications are implemented once here and serve as both the CPU
//!   baseline kernels and the GPU SIMT threads ("same token-based
//!   processing model and algorithms", §7.2).
//! * [`simt`] — warp-lockstep execution with divergence accounting, the
//!   V100 model.
//! * [`cpu`] — native measured execution of the kernels with a
//!   c4.8xlarge scaling model.
//! * [`apps`] — the six kernels.
//! * [`hls`] — the commercial-HLS cost model of §7.4 (initiation
//!   intervals from worst-case BRAM-conflict assumptions, serial
//!   memory-controller transfers, area multipliers).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod cpu;
pub mod hls;
pub mod kernel;
pub mod simt;

/// GPU device parameters used by the SIMT model.
#[derive(Debug, Clone, Copy)]
pub struct GpuPlatformLike {
    /// Aggregate warp-instruction issue rate (instructions/second).
    pub issue_rate: f64,
    /// Device memory bandwidth in bytes/second.
    pub mem_bandwidth: f64,
}

impl GpuPlatformLike {
    /// Achieved fraction of the peak warp-issue rate. Real kernels lose
    /// issue slots to memory latency, dependencies, and occupancy limits;
    /// 0.2 is calibrated so the JSON-parsing kernel's modelled throughput
    /// matches the paper's measured 25.23 GB/s on the V100 (see
    /// DESIGN.md's calibrated-constants table).
    pub const ACHIEVED_IPC: f64 = 0.2;

    /// V100-like device (80 SMs × 4 schedulers × 1.38 GHz, 900 GB/s HBM2).
    pub fn v100() -> GpuPlatformLike {
        GpuPlatformLike {
            issue_rate: 80.0 * 4.0 * 1.38e9 * Self::ACHIEVED_IPC,
            mem_bandwidth: 900.0e9,
        }
    }
}
