//! Simulation errors, including dynamic Fleet-restriction violations.

use std::error::Error;
use std::fmt;

/// Errors raised by the software simulator.
///
/// The restriction variants are the dynamic checks the paper assigns to
/// the software simulator (§3): dependent reads are rejected statically,
/// while multiple reads/writes/emits per virtual cycle are detected here
/// on concrete streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A BRAM was read at more than one address in a single virtual cycle.
    MultipleBramReads {
        /// BRAM index within the unit.
        bram: usize,
        /// The distinct addresses observed.
        addrs: Vec<u64>,
        /// Virtual cycle number (from stream start).
        vcycle: u64,
    },
    /// A BRAM was written more than once in a single virtual cycle.
    MultipleBramWrites {
        /// BRAM index within the unit.
        bram: usize,
        /// Virtual cycle number.
        vcycle: u64,
    },
    /// More than one token was emitted in a single virtual cycle.
    MultipleEmits {
        /// Virtual cycle number.
        vcycle: u64,
    },
    /// Two register assignments with different values executed in the
    /// same virtual cycle (the language assumes at most one assignment
    /// condition is true, §4).
    ConflictingRegWrites {
        /// Register index within the unit.
        reg: usize,
        /// Virtual cycle number.
        vcycle: u64,
    },
    /// Two writes with different values to one vector-register element
    /// executed in the same virtual cycle (the vector-register form of
    /// [`SimError::ConflictingRegWrites`]).
    ConflictingVecRegWrites {
        /// Vector register index within the unit.
        vec_reg: usize,
        /// The element both writes addressed.
        index: usize,
        /// Virtual cycle number.
        vcycle: u64,
    },
    /// A vector-register read or write used an out-of-range index.
    VecRegIndexOutOfRange {
        /// Vector register index within the unit.
        vec_reg: usize,
        /// The offending element index.
        index: usize,
        /// Declared element count.
        elements: usize,
    },
    /// A `while` loop ran for more virtual cycles than the configured
    /// limit without terminating.
    LoopLimitExceeded {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The input byte stream length is not a whole number of tokens.
    RaggedInput {
        /// Stream length in bits.
        stream_bits: usize,
        /// Token size in bits.
        token_bits: u16,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MultipleBramReads { bram, addrs, vcycle } => write!(
                f,
                "virtual cycle {vcycle}: BRAM {bram} read at {} distinct addresses {addrs:?} \
                 (limit is one address per virtual cycle)",
                addrs.len()
            ),
            SimError::MultipleBramWrites { bram, vcycle } => write!(
                f,
                "virtual cycle {vcycle}: BRAM {bram} written more than once"
            ),
            SimError::MultipleEmits { vcycle } => {
                write!(f, "virtual cycle {vcycle}: more than one token emitted")
            }
            SimError::ConflictingRegWrites { reg, vcycle } => write!(
                f,
                "virtual cycle {vcycle}: register {reg} assigned two different values"
            ),
            SimError::ConflictingVecRegWrites { vec_reg, index, vcycle } => write!(
                f,
                "virtual cycle {vcycle}: element {index} of vector register {vec_reg} \
                 assigned two different values"
            ),
            SimError::VecRegIndexOutOfRange { vec_reg, index, elements } => write!(
                f,
                "vector register {vec_reg} accessed at index {index}, but it has only \
                 {elements} elements"
            ),
            SimError::LoopLimitExceeded { limit } => write!(
                f,
                "a while loop exceeded {limit} virtual cycles without terminating"
            ),
            SimError::RaggedInput { stream_bits, token_bits } => write!(
                f,
                "input stream of {stream_bits} bits is not a whole number of \
                 {token_bits}-bit tokens"
            ),
        }
    }
}

impl Error for SimError {}
