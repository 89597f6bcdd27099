//! # fleet-compiler — Fleet-to-RTL compilation
//!
//! Compiles Fleet processing units (`fleet-lang`) into the guaranteed
//! two-stage virtual-cycle pipeline of §4 of the paper:
//!
//! * stage 1 performs all BRAM reads (addresses supplied one cycle early
//!   from next-state values),
//! * stage 2 performs register and BRAM writes,
//! * `(lastAddr, lastData)` forwarding registers hide the one-cycle BRAM
//!   latency across consecutive virtual cycles,
//! * ready-valid signaling, `while` stalls, and input/output stalls are
//!   generated automatically.
//!
//! Because the language restricts BRAM use (one read address, one write,
//! no dependent reads per virtual cycle), this pipeline *always* runs at
//! one virtual cycle per real cycle absent IO stalls — unlike HLS tools,
//! which must prove mutual exclusivity of accesses and otherwise inflate
//! the initiation interval (compared quantitatively in the `hls_ii`
//! experiment of `fleet-bench`).
//!
//! Two execution paths share this semantics:
//!
//! * [`compile`] → [`fleet_rtl::Netlist`] → [`NetDriver`] (full RTL
//!   simulation, Verilog emission, area estimation);
//! * [`PuExec`] — a fast executor used to simulate hundreds of units in
//!   `fleet-system`, cross-checked against the netlist.
//!
//! ## Example
//!
//! ```
//! use fleet_lang::UnitBuilder;
//! use fleet_compiler::{compile, NetDriver, PuExec};
//!
//! let mut u = UnitBuilder::new("Identity", 8, 8);
//! let inp = u.input();
//! let nf = u.stream_finished().not_b();
//! u.if_(nf, |u| u.emit(inp.clone()));
//! let spec = u.build()?;
//!
//! let netlist = compile(&spec)?;
//! let (rtl_out, _) = NetDriver::run_stream(netlist, &[9, 8, 7], 1000);
//! let (fast_out, _) = PuExec::run_stream(&spec, &[9, 8, 7]);
//! assert_eq!(rtl_out, vec![9, 8, 7]);
//! assert_eq!(rtl_out, fast_out);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod exec;
pub mod harness;
pub mod lower;

pub use error::CompileError;
pub use exec::{CompiledUnit, PuExec, PuExecBatch, PuIn, PuOut, Quiescence, MAX_LANES};
pub use harness::NetDriver;
pub use lower::compile;
