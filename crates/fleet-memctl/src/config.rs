//! Memory-controller configuration (§5 of the paper).

use fleet_compiler::MAX_LANES;

/// Input/output addressing-unit behaviour.
///
/// Blocking units wait at each processing unit in round-robin order until
/// it can supply its next address; nonblocking units skip units that are
/// not ready. The paper defaults to a blocking input unit (units consume
/// at similar rates) and a nonblocking output unit (filters emit at very
/// different rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addressing {
    /// Wait for the unit at the round-robin pointer.
    Blocking,
    /// Skip units that are not ready this cycle.
    Nonblocking,
}

/// Configuration of one channel's input+output controller pair.
#[derive(Debug, Clone, Copy)]
pub struct MemCtlConfig {
    /// DRAM burst size in bytes (the paper uses 1024 bits = 128 B on F1).
    pub burst_bytes: usize,
    /// Data-port width of the per-unit input/output buffers in bits
    /// (`w`; 32 on F1, a small multiple of the native BRAM port width).
    pub port_width_bits: usize,
    /// Number of burst registers per direction (`r = 512 / w` = 16 on F1
    /// for full bus-rate transfers).
    pub burst_registers: usize,
    /// Asynchronous address supply: run the addressing units ahead of the
    /// data transfer units (§5 optimization 1). When false, the next
    /// address is supplied only after the previous burst has fully
    /// drained — the unoptimized baseline of Figure 9.
    pub async_addr: bool,
    /// Maximum read addresses outstanding ahead of the data transfer unit
    /// when `async_addr` is set.
    pub addr_lookahead: usize,
    /// Input addressing-unit behaviour.
    pub input_addressing: Addressing,
    /// Output addressing-unit behaviour.
    pub output_addressing: Addressing,
    /// Per-unit input buffer capacity in bytes. Two bursts by default:
    /// the asynchronous addressing unit issues a unit's next request
    /// while the previous burst is still being consumed, so a single
    /// unit sees no DRAM-latency gap between bursts (how the paper's
    /// controller reaches 6.8 GB/s on one channel with only 16 units).
    pub input_buffer_bytes: usize,
    /// Per-unit output buffer capacity in bytes.
    pub output_buffer_bytes: usize,
    /// Simulator knob (not hardware): lane width for SIMD-batched PU
    /// evaluation. Each engine cycle, up to this many replicas awaiting
    /// a virtual-cycle evaluation are swept together through one
    /// `PackedProg` instruction walk over a lane-major value plane.
    /// Bit-exact at every width (gated by the engine-equivalence
    /// tests); 1 disables batching, and [`MAX_LANES`] is the most a
    /// sweep holds.
    pub lane_width: usize,
}

impl Default for MemCtlConfig {
    /// The paper's F1 configuration: 1024-bit bursts, `w = 32`, `r = 16`,
    /// asynchronous addressing, blocking input / nonblocking output.
    fn default() -> Self {
        MemCtlConfig {
            burst_bytes: 128,
            port_width_bits: 32,
            burst_registers: 16,
            async_addr: true,
            addr_lookahead: 32,
            input_addressing: Addressing::Blocking,
            output_addressing: Addressing::Nonblocking,
            input_buffer_bytes: 256,
            output_buffer_bytes: 128,
            lane_width: 64,
        }
    }
}

impl MemCtlConfig {
    /// Figure 9 row 1: synchronous address supply, one burst register.
    pub fn unoptimized() -> Self {
        MemCtlConfig {
            async_addr: false,
            burst_registers: 1,
            addr_lookahead: 1,
            ..MemCtlConfig::default()
        }
    }

    /// Figure 9 row 2: asynchronous address supply, one burst register.
    pub fn async_only() -> Self {
        MemCtlConfig {
            async_addr: true,
            burst_registers: 1,
            addr_lookahead: 4,
            ..MemCtlConfig::default()
        }
    }

    /// Bytes moved into a unit buffer per cycle per burst register.
    pub fn port_bytes(&self) -> usize {
        self.port_width_bits / 8
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes, a burst that is not whole 64-byte beats, or
    /// a lane width outside `1..=MAX_LANES`.
    pub fn check(&self) {
        assert!(self.burst_bytes > 0 && self.burst_bytes.is_multiple_of(fleet_axi::BEAT_BYTES),
            "burst must be a whole number of 512-bit beats");
        assert!(self.port_width_bits >= 8 && self.port_width_bits.is_multiple_of(8),
            "port width must be whole bytes");
        assert!(self.burst_registers >= 1, "need at least one burst register");
        assert!(self.input_buffer_bytes >= self.burst_bytes,
            "input buffer must hold at least one burst");
        assert!(self.output_buffer_bytes >= self.burst_bytes,
            "output buffer must hold at least one burst");
        assert!(
            (1..=MAX_LANES).contains(&self.lane_width),
            "lane_width {} outside 1..={MAX_LANES} (one sweep's lane bitmask)",
            self.lane_width
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "lane_width 65 outside 1..=64")]
    fn check_rejects_a_lane_width_one_sweep_cannot_hold() {
        MemCtlConfig { lane_width: MAX_LANES + 1, ..MemCtlConfig::default() }.check();
    }
}
