//! # fleet-lang — the Fleet processing-unit language
//!
//! This crate implements the Fleet language from *"Fleet: A Framework for
//! Massively Parallel Streaming on FPGAs"* (ASPLOS 2020) as a
//! Rust-embedded DSL, mirroring the paper's Scala/Chisel embedding.
//!
//! A Fleet program describes the *virtual cycle* executed for every input
//! token of a stream: register/vector-register/BRAM state updates and
//! output-token emissions, with concurrent (non-blocking) semantics. The
//! framework later replicates the unit hundreds of times and feeds each
//! copy its own stream (see the `fleet-system` crate).
//!
//! ## Language features (Figure 2 of the paper)
//!
//! * Registers, vector registers, and an automatically pipelined BRAM
//!   type, all with user-specified bit widths.
//! * Chisel-like operators and conditional blocks (`if` / `else if` /
//!   `else`), all statements evaluated concurrently.
//! * `input` — the current input token; `emit` — produce an output token.
//! * `while` loops that take multiple virtual cycles per input token.
//! * `stream_finished` — one cleanup execution after the last token.
//!
//! ## Restrictions (checked statically here, dynamically in `fleet-isim`)
//!
//! * No dependent BRAM reads in a virtual cycle (hard error here).
//! * Each BRAM is read at one address and written at one address per
//!   virtual cycle; at most one `emit` per virtual cycle (dynamic).
//! * `while` loops do not nest (hard error).
//!
//! These restrictions are what let the compiler (`fleet-compiler`) always
//! generate a two-stage pipeline running one virtual cycle per real cycle.
//!
//! ## Example
//!
//! The frequency-counting unit of Figure 3:
//!
//! ```
//! use fleet_lang::{lit, UnitBuilder};
//!
//! let mut u = UnitBuilder::new("BlockFrequencies", 8, 8);
//! let item_counter = u.reg("itemCounter", 7, 0);
//! let frequencies = u.bram("frequencies", 256, 8);
//! let idx = u.reg("frequenciesIdx", 9, 0);
//! let input = u.input();
//!
//! u.if_(item_counter.eq_e(100u64), |u| {
//!     u.while_(idx.lt_e(256u64), |u| {
//!         u.emit(frequencies.read(idx));
//!         u.write(frequencies, idx, lit(0, 8));
//!         u.set(idx, idx + 1u64);
//!     });
//!     u.set(idx, lit(0, 9));
//! });
//! u.write(frequencies, input.clone(), frequencies.read(input) + 1u64);
//! u.set(
//!     item_counter,
//!     item_counter.eq_e(100u64).mux(lit(1, 7), item_counter + 1u64),
//! );
//!
//! let spec = u.build()?;
//! assert_eq!(spec.brams[0].elements(), 256);
//! # Ok::<(), fleet_lang::ValidateError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod display;
pub mod expr;
pub mod flatten;
pub mod generate;
pub mod patterns;
pub mod stmt;
pub mod types;
pub mod unit;
pub mod validate;

pub use analysis::{analyze, StaticReport, Verdict};
pub use builder::{Bram, IfChain, Reg, UnitBuilder, VecReg};
pub use expr::{lit, mask, min_width, BinOp, E, ExprNode, IntoE, UnaryOp};
pub use flatten::{and_all, or_all, FlatProgram, GuardedOp, OpKind};
pub use stmt::{Block, Stmt};
pub use types::{clog2, BramId, RegId, VecRegId, Width};
pub use unit::{BramDef, RegDef, UnitSpec, VecRegDef};
pub use validate::{validate, warnings, ValidateError, Violation, Warning};
