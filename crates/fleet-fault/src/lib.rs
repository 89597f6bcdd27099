//! Deterministic, seeded fault-injection plans.
//!
//! A [`FaultPlan`] describes *which* faults to inject (DRAM latency
//! spikes, correctable ECC bit flips, wedged processing units) and at
//! *what rate*, without ever holding mutable RNG state. Every fault
//! decision is a pure hash of `(seed, site kind, site index)`, so the
//! same plan produces the same faults no matter in what order channels
//! are evaluated or which thread runs them. That purity is what lets
//! the serving layer promise byte-identical reports for a fixed fault
//! seed, run to run.
//!
//! The crate is dependency-free on purpose: `fleet-axi` (which itself
//! has no dependencies) hooks fault decisions into its DRAM timing
//! model, and everything above it just forwards plans downward.
//!
//! Rates are expressed in parts-per-million (ppm) so a plan can stay
//! `Copy` (it rides inside `SystemConfig`, which is copied per run)
//! and integer-only (no float nondeterminism across platforms).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Domain-separation salts: one per fault site kind, so a DRAM stall
/// decision at index `i` never correlates with an ECC decision at the
/// same index.
const KIND_DERIVE: u64 = 0xD1;
const KIND_DRAM: u64 = 0xD2;
const KIND_STALL: u64 = 0xD3;
const KIND_STALL_LEN: u64 = 0xD4;
const KIND_ECC: u64 = 0xD5;
const KIND_WEDGE: u64 = 0xD6;
const KIND_WEDGE_AT: u64 = 0xD7;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Public so downstream crates can build their own deterministic
/// decisions (e.g. benchmark workload shuffles) from the same plan.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hashes one fault site: `(seed, kind, index)` -> uniform u64.
fn site(seed: u64, kind: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(kind.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mix64(index)))
}

/// Draws a ppm decision for one site: true with probability
/// `ppm / 1_000_000` under the uniform hash.
fn hit(seed: u64, kind: u64, index: u64, ppm: u32) -> bool {
    ppm > 0 && site(seed, kind, index) % 1_000_000 < u64::from(ppm)
}

/// A seeded, rate-parameterised fault-injection plan.
///
/// The plan is inert when every rate is zero ([`FaultPlan::none`]);
/// inert plans are guaranteed not to perturb simulation at all — the
/// hooks compile to a `None` check — so a fault-free run is
/// bit-identical to a build without this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Root seed. Two plans with equal rates and different seeds fault
    /// different sites at the same long-run frequency.
    pub seed: u64,
    /// Per-read-request probability (ppm) of a DRAM latency spike /
    /// transient stall.
    pub dram_stall_ppm: u32,
    /// Maximum extra cycles one latency spike adds (actual magnitude is
    /// hashed uniformly in `1..=dram_stall_cycles`).
    pub dram_stall_cycles: u32,
    /// Per-delivered-beat probability (ppm) of a correctable single-bit
    /// ECC flip.
    pub ecc_flip_ppm: u32,
    /// Per-stream probability (ppm) that its processing unit wedges
    /// (permanently stops making progress) partway through the stream.
    pub wedge_ppm: u32,
    /// Upper bound on the number of input tokens a wedging unit
    /// consumes before it stops (actual point is hashed uniformly in
    /// `1..=wedge_after_tokens`).
    pub wedge_after_tokens: u32,
}

impl FaultPlan {
    /// The inert plan: no faults, ever.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            dram_stall_ppm: 0,
            dram_stall_cycles: 0,
            ecc_flip_ppm: 0,
            wedge_ppm: 0,
            wedge_after_tokens: 0,
        }
    }

    /// An inert plan carrying a seed; enable fault classes with the
    /// builder methods.
    pub const fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::none() }
    }

    /// Enables DRAM latency spikes: each read request stalls with
    /// probability `ppm`, for `1..=max_cycles` extra cycles.
    pub const fn dram_stalls(mut self, ppm: u32, max_cycles: u32) -> FaultPlan {
        self.dram_stall_ppm = ppm;
        self.dram_stall_cycles = max_cycles;
        self
    }

    /// Enables correctable ECC bit flips: each delivered read beat is
    /// corrupted (then corrected by the modelled SEC-DED decode) with
    /// probability `ppm`.
    pub const fn ecc_flips(mut self, ppm: u32) -> FaultPlan {
        self.ecc_flip_ppm = ppm;
        self
    }

    /// Enables PU wedges: each stream's unit wedges with probability
    /// `ppm`, after consuming `1..=after_tokens` input tokens.
    pub const fn wedges(mut self, ppm: u32, after_tokens: u32) -> FaultPlan {
        self.wedge_ppm = ppm;
        self.wedge_after_tokens = after_tokens;
        self
    }

    /// True when no fault class is enabled; hooks skip entirely.
    pub const fn is_none(&self) -> bool {
        self.dram_stall_ppm == 0 && self.ecc_flip_ppm == 0 && self.wedge_ppm == 0
    }

    /// Derives an independent child plan (same rates, decorrelated
    /// seed) for a sub-domain — e.g. the host derives one plan per
    /// batch so two batches never fault identical sites.
    pub fn derive(&self, salt: u64) -> FaultPlan {
        FaultPlan { seed: site(self.seed, KIND_DERIVE, salt), ..*self }
    }

    /// The DRAM fault decisions for one memory channel.
    pub fn dram(&self, channel: u64) -> DramFaults {
        DramFaults {
            seed: site(self.seed, KIND_DRAM, channel),
            stall_ppm: self.dram_stall_ppm,
            stall_cycles: self.dram_stall_cycles,
            ecc_ppm: self.ecc_flip_ppm,
        }
    }

    /// Whether (and after how many consumed tokens) the unit serving
    /// stream `stream` wedges. Keyed by submission-order stream index,
    /// so the decision is independent of how streams are partitioned
    /// onto channels.
    pub fn wedge_threshold(&self, stream: u64) -> Option<u64> {
        if !hit(self.seed, KIND_WEDGE, stream, self.wedge_ppm) {
            return None;
        }
        let bound = u64::from(self.wedge_after_tokens.max(1));
        Some(1 + site(self.seed, KIND_WEDGE_AT, stream) % bound)
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// Per-channel DRAM fault decisions, derived from a [`FaultPlan`].
///
/// Decisions are keyed by deterministic per-channel counters (read
/// request index, delivered beat index), which advance identically on
/// every run, so injection sites are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramFaults {
    seed: u64,
    stall_ppm: u32,
    stall_cycles: u32,
    ecc_ppm: u32,
}

impl DramFaults {
    /// True when this channel injects nothing.
    pub const fn is_none(&self) -> bool {
        self.stall_ppm == 0 && self.ecc_ppm == 0
    }

    /// Extra latency cycles for the channel's `req`-th read request
    /// (0 = no spike).
    pub fn read_stall(&self, req: u64) -> u64 {
        if !hit(self.seed, KIND_STALL, req, self.stall_ppm) {
            return 0;
        }
        let bound = u64::from(self.stall_cycles.max(1));
        1 + site(self.seed, KIND_STALL_LEN, req) % bound
    }

    /// Bit position (within a 512-bit beat) flipped on the channel's
    /// `beat`-th delivered read beat, or `None` for a clean beat.
    pub fn ecc_flip(&self, beat: u64) -> Option<u32> {
        if !hit(self.seed, KIND_ECC, beat, self.ecc_ppm) {
            return None;
        }
        Some((site(self.seed, KIND_ECC ^ 0xFF, beat) % 512) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_faults() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        let d = p.dram(0);
        assert!(d.is_none());
        for i in 0..10_000 {
            assert_eq!(d.read_stall(i), 0);
            assert_eq!(d.ecc_flip(i), None);
            assert_eq!(p.wedge_threshold(i), None);
        }
        // A seeded plan with zero rates is just as inert.
        let p = FaultPlan::with_seed(0xDEADBEEF);
        assert!(p.is_none());
        assert_eq!(p.dram(3).read_stall(7), 0);
    }

    #[test]
    fn decisions_are_pure_functions_of_the_site() {
        let p = FaultPlan::with_seed(42).dram_stalls(50_000, 100).ecc_flips(20_000).wedges(100_000, 64);
        let d1 = p.dram(2);
        let d2 = p.dram(2);
        for i in 0..5_000 {
            assert_eq!(d1.read_stall(i), d2.read_stall(i));
            assert_eq!(d1.ecc_flip(i), d2.ecc_flip(i));
            assert_eq!(p.wedge_threshold(i), p.wedge_threshold(i));
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::with_seed(7).dram_stalls(100_000, 50).ecc_flips(10_000);
        let d = p.dram(0);
        let n = 100_000u64;
        let stalls = (0..n).filter(|&i| d.read_stall(i) > 0).count();
        // 10% +- generous slack.
        assert!((8_000..12_000).contains(&stalls), "stalls = {stalls}");
        let flips = (0..n).filter(|&i| d.ecc_flip(i).is_some()).count();
        // 1% +- generous slack.
        assert!((700..1_300).contains(&flips), "flips = {flips}");
        for i in 0..n {
            let s = d.read_stall(i);
            assert!(s <= 50);
            if let Some(bit) = d.ecc_flip(i) {
                assert!(bit < 512);
            }
        }
    }

    #[test]
    fn channels_and_derived_plans_are_decorrelated() {
        let p = FaultPlan::with_seed(9).dram_stalls(500_000, 20);
        let a = p.dram(0);
        let b = p.dram(1);
        let same = (0..1_000).filter(|&i| a.read_stall(i) == b.read_stall(i)).count();
        assert!(same < 900, "channels correlate: {same}/1000 equal");

        let c1 = p.derive(1);
        let c2 = p.derive(2);
        assert_ne!(c1.seed, c2.seed);
        assert_ne!(c1.seed, p.seed);
        assert_eq!(c1.dram_stall_ppm, p.dram_stall_ppm);
    }

    #[test]
    fn wedge_thresholds_fall_in_bounds() {
        let p = FaultPlan::with_seed(3).wedges(1_000_000, 16);
        for s in 0..1_000 {
            let t = p.wedge_threshold(s).expect("ppm=1e6 always wedges");
            assert!((1..=16).contains(&t), "threshold {t} out of range");
        }
        // Sub-certain rates wedge only some streams.
        let p = FaultPlan::with_seed(3).wedges(250_000, 16);
        let wedged = (0..10_000).filter(|&s| p.wedge_threshold(s).is_some()).count();
        assert!((2_000..3_000).contains(&wedged), "wedged = {wedged}");
    }
}
