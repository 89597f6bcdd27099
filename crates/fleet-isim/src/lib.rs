//! # fleet-isim — the Fleet software simulator
//!
//! A direct interpreter for Fleet processing units (`fleet-lang`) with
//! exact virtual-cycle semantics: concurrent statement evaluation,
//! `while` loop cycles, the `stream_finished` cleanup execution, and —
//! crucially — the *dynamic restriction checks* that §3 of the paper
//! assigns to the software simulator:
//!
//! * at most one BRAM read address per BRAM per virtual cycle,
//! * at most one BRAM write per BRAM per virtual cycle,
//! * at most one `emit` per virtual cycle.
//!
//! The interpreter also reports the virtual-cycle count, which equals the
//! real-cycle count of the compiled hardware in the absence of IO stalls
//! (the compiler's one-virtual-cycle-per-real-cycle guarantee), and is
//! cross-checked against the RTL simulation by the integration tests,
//! mirroring the paper's testing infrastructure (§6).
//!
//! ## Example
//!
//! ```
//! use fleet_lang::UnitBuilder;
//! use fleet_isim::{bytes_to_tokens, tokens_to_bytes, Interpreter};
//!
//! // A unit that doubles every byte.
//! let mut u = UnitBuilder::new("Double", 8, 8);
//! let inp = u.input();
//! let nf = u.stream_finished().not_b();
//! u.if_(nf, |u| u.emit(inp.clone() << 1u64));
//! let spec = u.build()?;
//!
//! let tokens = bytes_to_tokens(&[1, 2, 3], 8)?;
//! let out = Interpreter::run_tokens(&spec, &tokens)?;
//! assert_eq!(tokens_to_bytes(&out.tokens, 8), vec![2, 4, 6]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// The only `unsafe` is the call into each AVX2-compiled sweep twin,
// behind a runtime feature probe (`ssa.rs`).
#![deny(unsafe_code)]

pub mod error;
pub mod eval;
pub mod interp;
pub mod ssa;
pub mod state;
pub mod stream;

pub use error::SimError;
pub use eval::EvalCtx;
pub use interp::{Interpreter, SimOutput, DEFAULT_LOOP_LIMIT};
pub use ssa::{PackedProg, Slot, SsaGuardedOp, SsaOp, SsaProg};
pub use state::{PendingWrites, UnitState};
pub use stream::{bytes_to_tokens, tokens_to_bytes};
