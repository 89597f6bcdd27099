//! # fleet-system — full-system simulation and the F1 platform model
//!
//! Ties everything together the way the Fleet framework does on real
//! hardware: it takes one processing-unit definition, replicates it once
//! per stream, divides the units among the platform's DRAM channels, and
//! simulates units + memory controllers + DRAM cycle by cycle until every
//! stream is processed and every output is committed.
//!
//! Also provides the host-runtime conveniences from §2 of the paper
//! ([`split`]) and the area/power accounting used to decide how many
//! units fit on the device and to report performance per watt.
//!
//! ## Example
//!
//! ```
//! use fleet_lang::UnitBuilder;
//! use fleet_system::{run_replicated, SystemConfig};
//!
//! // A unit that uppercases ASCII.
//! let mut u = UnitBuilder::new("Upper", 8, 8);
//! let inp = u.input();
//! let nf = u.stream_finished().not_b();
//! let is_lower = inp.ge_e(b'a' as u64).and_b(inp.le_e(b'z' as u64));
//! u.if_(nf, |u| {
//!     u.emit(is_lower.mux(inp.clone() - 32u64, inp.clone()));
//! });
//! let spec = u.build()?;
//!
//! let report = run_replicated(&spec, b"hello fleet!", 8, &SystemConfig::f1(64))?;
//! assert_eq!(&report.outputs[0], b"HELLO FLEET!");
//! println!("throughput: {:.3} GB/s", report.input_gbps());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod instance;
pub mod open;
pub mod platform;
pub mod system;

pub use area::{controller_area, design_area, max_units, unit_area};
pub use instance::{Instance, InstanceStats};
pub use open::{AdvanceReport, OpenRun, OpenStatus};
pub use platform::{CpuPlatform, GpuPlatform, Platform};
pub use fleet_fault::FaultPlan;
pub use fleet_memctl::{MisalignedClose, SimPool, SimThreads};
pub use system::{
    run_replicated, run_system, run_system_compiled, run_system_faulted, run_system_traced,
    RunFailure, RunReport, SystemConfig, SystemError,
};

/// Builds the per-channel simulation engines and stream index maps for
/// `streams`, each unit replicated from the pre-compiled `unit`, without
/// running a single cycle.
///
/// `maps[c][k]` is the submission-order stream index processed by unit
/// `k` of channel `c`. This is the entry point for harnesses that need
/// to drive the simulation tick by tick (e.g. the `simperf` benchmark)
/// rather than through [`run_system_compiled`].
pub fn build_system_engines(
    unit: &fleet_compiler::CompiledUnit,
    streams: &[&[u8]],
    cfg: &SystemConfig,
) -> (
    Vec<fleet_memctl::ChannelEngine<fleet_compiler::PuExec>>,
    Vec<Vec<usize>>,
) {
    system::build_engines_with(unit, &system::StreamInit::closed(streams), cfg, || fleet_trace::NullSink)
}

/// Like [`build_system_engines`], but every engine traces into its own
/// [`fleet_trace::CounterSink`] — for equivalence tests that must
/// compare full trace totals (per-PU cycle classes, queue statistics,
/// event counts) across serial, pooled, and naive drives.
pub fn build_system_engines_traced(
    unit: &fleet_compiler::CompiledUnit,
    streams: &[&[u8]],
    cfg: &SystemConfig,
) -> (
    Vec<fleet_memctl::ChannelEngine<fleet_compiler::PuExec, fleet_trace::CounterSink>>,
    Vec<Vec<usize>>,
) {
    system::build_engines_with(unit, &system::StreamInit::closed(streams), cfg, fleet_trace::CounterSink::new)
}

/// Splits one large input into `n` roughly equal streams at token-aligned
/// boundaries — the host-side splitting step of §2 (newline splitting for
/// JSON records and the like is app-specific; see `fleet-apps`).
///
/// **Truncation invariant:** only whole tokens are distributed. If
/// `input.len()` is not a multiple of `token_bytes`, the trailing
/// partial token is *not* included in any stream — use
/// [`split_with_remainder`] to receive it explicitly instead of having
/// it silently dropped.
///
/// # Panics
///
/// Panics if `token_bytes` is zero.
pub fn split(input: &[u8], n: usize, token_bytes: usize) -> Vec<Vec<u8>> {
    split_with_remainder(input, n, token_bytes).0
}

/// Like [`split`], but also returns the trailing partial token (empty
/// when `input.len()` is a multiple of `token_bytes`), so callers can
/// detect or handle ragged inputs instead of losing bytes.
///
/// The streams concatenated with the remainder always reproduce `input`
/// exactly.
///
/// # Panics
///
/// Panics if `token_bytes` is zero.
pub fn split_with_remainder(
    input: &[u8],
    n: usize,
    token_bytes: usize,
) -> (Vec<Vec<u8>>, &[u8]) {
    assert!(token_bytes > 0);
    let tokens = input.len() / token_bytes;
    let per = tokens.div_ceil(n.max(1));
    let mut out = Vec::new();
    let mut pos = 0usize;
    for _ in 0..n {
        let take = per.min(tokens - pos / token_bytes);
        let bytes = take * token_bytes;
        out.push(input[pos..pos + bytes].to_vec());
        pos += bytes;
        if pos >= tokens * token_bytes {
            break;
        }
    }
    (out, &input[tokens * token_bytes..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_input_exactly() {
        let data: Vec<u8> = (0..1003u32).map(|x| x as u8).collect();
        let parts = split(&data, 7, 1);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 1003);
        let rejoined: Vec<u8> = parts.concat();
        assert_eq!(rejoined, data);
    }

    #[test]
    fn split_respects_token_alignment() {
        let data = vec![0u8; 100];
        for p in split(&data, 3, 4) {
            assert_eq!(p.len() % 4, 0);
        }
    }

    #[test]
    fn split_with_remainder_returns_trailing_partial_token() {
        // 1003 bytes of 4-byte tokens: 250 whole tokens + 3 ragged bytes.
        let data: Vec<u8> = (0..1003u32).map(|x| x as u8).collect();
        let (parts, rest) = split_with_remainder(&data, 7, 4);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 1000, "streams hold only whole tokens");
        assert_eq!(rest, &data[1000..], "remainder is the trailing partial token");
        let mut rejoined: Vec<u8> = parts.concat();
        rejoined.extend_from_slice(rest);
        assert_eq!(rejoined, data, "streams + remainder reproduce the input");

        // Token-aligned input: empty remainder, same streams as split().
        let aligned = vec![7u8; 96];
        let (parts, rest) = split_with_remainder(&aligned, 5, 4);
        assert!(rest.is_empty());
        assert_eq!(parts, split(&aligned, 5, 4));
    }
}
