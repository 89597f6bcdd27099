//! Per-spec online run-time prediction for SLO-aware scheduling.
//!
//! Policies that pack to deadlines need to know, *before* launching,
//! how long a batch will occupy an instance. The [`Predictor`] keeps
//! one tiny model per spec key — microseconds per input byte plus an
//! output-expansion ratio — learned from completed runs' simulated
//! timing (the same counters `fleet-trace` attributes). Before the
//! first completion of a spec, predictions come from a static
//! DSL-derived seed: one input token per cycle at the platform clock,
//! the structural best case, so an unlearned model *underestimates*
//! and proactive shedding stays safe (it only rejects jobs that are
//! hopeless even under optimistic timing).
//!
//! Determinism: the model mutates only through
//! [`Predictor::apply_due`], which absorbs buffered observations in
//! `(completed_at_us, instance)` order — a pure function of the
//! virtual timeline — so predictions (and every scheduling decision
//! derived from them) are bit-identical run to run, whatever order the
//! instance workers finish in. A batch that completes at virtual time
//! `t` can influence decisions only at virtual times `>= t`, exactly as
//! on real hardware.

use std::collections::BTreeMap;
use std::sync::Arc;

use fleet_lang::UnitSpec;

/// Fixed-point scale for nanoseconds-per-byte and the output ratio.
const FP: u64 = 1024;

/// One spec's learned cost model (fixed-point, copyable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecModel {
    /// Run nanoseconds per input byte of the *longest* stream, ×1024.
    /// Streams of a batch run on parallel PUs, so batch run time
    /// follows the maximum member, not the sum.
    pub npb_x1024: u64,
    /// Output bytes per input byte, ×1024 (drain-cost estimation).
    pub out_ratio_x1024: u64,
    /// Completed-run observations absorbed into the model.
    pub observations: u64,
}

impl SpecModel {
    /// Predicted run time for a longest-stream length of `max_bytes`,
    /// in virtual µs (at least 1).
    pub fn run_us(&self, max_bytes: u64) -> u64 {
        (max_bytes * self.npb_x1024).div_ceil(FP * 1000).max(1)
    }

    /// Predicted output bytes for `in_bytes` of input.
    pub fn out_bytes(&self, in_bytes: u64) -> u64 {
        in_bytes * self.out_ratio_x1024 / FP
    }
}

/// A buffered completed-run observation, applied in virtual-clock
/// order by [`Predictor::apply_due`].
#[derive(Debug, Clone)]
struct Observation {
    /// Virtual completion time of the run.
    at_us: u64,
    /// Instance that ran it (deterministic tie-break for equal times).
    instance: usize,
    spec_key: Arc<str>,
    /// The spec, for seeding a first-observation model.
    spec: Arc<UnitSpec>,
    /// Longest member stream of the batch, in bytes.
    max_bytes: u64,
    /// Simulated run time, in virtual µs.
    run_us: u64,
    /// Total input bytes of the batch.
    in_bytes: u64,
    /// Total output bytes of the batch.
    out_bytes: u64,
}

/// The per-spec-key online run-time model.
///
/// See the module docs for the learning/determinism contract. Owned by
/// the [`crate::Host`] and consulted by every predictive
/// [`crate::policy::PackPolicy`] through [`Predictor::predict_run_us`]
/// and friends.
#[derive(Debug)]
pub struct Predictor {
    /// Platform logic clock in integer Hz — the static seed's
    /// cycle→time conversion. Integer on purpose: every quantity the
    /// predictor stores or derives is fixed-point, so no float ever
    /// touches model state and seeds are bit-identical everywhere.
    clock_hz: u64,
    models: BTreeMap<Arc<str>, SpecModel>,
    /// Observations not yet virtual-clock-due, unsorted; `apply_due`
    /// orders them.
    pending: Vec<Observation>,
}

impl Predictor {
    /// A predictor seeding unlearned specs against `clock_hz` (integer
    /// hertz; fractional platform clocks round toward zero).
    pub fn new(clock_hz: u64) -> Predictor {
        Predictor { clock_hz: clock_hz.max(1), models: BTreeMap::new(), pending: Vec::new() }
    }

    /// The static DSL-derived seed for `spec`: one input token per
    /// cycle at the platform clock (the structural best case — a PU
    /// that consumes a token every cycle and emits byte-for-byte).
    ///
    /// Computed in *bits*: a token is `input_token_bits / 8` bytes,
    /// which need not be whole (a 12-bit token is 1.5 bytes/cycle), so
    /// ns/byte = 8e9 / (clock_hz × token_bits). Rounding the token to
    /// whole bytes first — the historical defect — inflated the seed by
    /// up to 1.5× for non-byte-aligned widths. For byte-aligned tokens
    /// this integer form reproduces the old seeds exactly.
    pub fn seed(&self, spec: &UnitSpec) -> SpecModel {
        let token_bits = (spec.input_token_bits as u128).max(1);
        let npb_x1024 =
            (8_000_000_000u128 * FP as u128 / (self.clock_hz as u128 * token_bits)) as u64;
        SpecModel { npb_x1024: npb_x1024.max(1), out_ratio_x1024: FP, observations: 0 }
    }

    /// Immutable snapshot of every learned model, in key order — the
    /// predictor-state export cluster routers feed their placement and
    /// pressure decisions from.
    pub fn snapshot(&self) -> Vec<(Arc<str>, SpecModel)> {
        self.models.iter().map(|(k, m)| (k.clone(), *m)).collect()
    }

    /// The model for `key`, or the static seed when unlearned.
    pub fn model(&self, key: &str, spec: &UnitSpec) -> SpecModel {
        self.models.get(key).copied().unwrap_or_else(|| self.seed(spec))
    }

    /// Completed-run observations absorbed for `key` so far.
    pub fn observations(&self, key: &str) -> u64 {
        self.models.get(key).map_or(0, |m| m.observations)
    }

    /// Predicted run time of a batch of `spec` whose longest stream is
    /// `max_bytes`, in virtual µs.
    pub fn predict_run_us(&self, key: &str, spec: &UnitSpec, max_bytes: u64) -> u64 {
        self.model(key, spec).run_us(max_bytes)
    }

    /// Predicted output bytes for `in_bytes` through `spec`.
    pub fn predict_out_bytes(&self, key: &str, spec: &UnitSpec, in_bytes: u64) -> u64 {
        self.model(key, spec).out_bytes(in_bytes)
    }

    /// Buffers a completed run for learning. The update becomes
    /// visible only once the virtual clock passes `at_us` (see
    /// [`Predictor::apply_due`]).
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        at_us: u64,
        instance: usize,
        spec_key: &Arc<str>,
        spec: &Arc<UnitSpec>,
        max_bytes: u64,
        run_us: u64,
        in_bytes: u64,
        out_bytes: u64,
    ) {
        if max_bytes == 0 {
            return;
        }
        self.pending.push(Observation {
            at_us,
            instance,
            spec_key: spec_key.clone(),
            spec: spec.clone(),
            max_bytes,
            run_us,
            in_bytes,
            out_bytes,
        });
    }

    /// Absorbs every buffered observation with `at_us <= now_us`, in
    /// `(at_us, instance)` order — the only place model state mutates,
    /// so the learning trajectory is a pure function of the virtual
    /// timeline.
    pub fn apply_due(&mut self, now_us: u64) {
        if self.pending.iter().all(|o| o.at_us > now_us) {
            return;
        }
        let mut due: Vec<Observation> = Vec::new();
        let mut rest: Vec<Observation> = Vec::new();
        for o in self.pending.drain(..) {
            if o.at_us <= now_us {
                due.push(o);
            } else {
                rest.push(o);
            }
        }
        self.pending = rest;
        due.sort_by(|a, b| {
            (a.at_us, a.instance, &a.spec_key).cmp(&(b.at_us, b.instance, &b.spec_key))
        });
        for o in due {
            let mut m = self.models.get(&o.spec_key).copied().unwrap_or_else(|| self.seed(&o.spec));
            let obs_npb = (o.run_us * 1000 * FP / o.max_bytes).max(1);
            let obs_ratio = (o.out_bytes * FP).checked_div(o.in_bytes).unwrap_or(FP);
            if m.observations == 0 {
                // First real sample replaces the structural seed.
                m.npb_x1024 = obs_npb;
                m.out_ratio_x1024 = obs_ratio;
            } else {
                // EMA with α = 1/4: stable against one odd batch,
                // adapts within a handful of completions.
                m.npb_x1024 = (3 * m.npb_x1024 + obs_npb) / 4;
                m.out_ratio_x1024 = (3 * m.out_ratio_x1024 + obs_ratio) / 4;
            }
            m.observations += 1;
            self.models.insert(o.spec_key.clone(), m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_lang::UnitBuilder;

    fn spec8() -> Arc<UnitSpec> {
        let mut u = UnitBuilder::new("Byte", 8, 8);
        let acc = u.reg("acc", 8, 0);
        let inp = u.input();
        u.set(acc, acc ^ inp);
        Arc::new(u.build().unwrap())
    }

    fn spec12() -> Arc<UnitSpec> {
        // A 12-bit input token: 1.5 bytes per cycle, the non-byte-
        // aligned case the truncating seed got wrong.
        let mut u = UnitBuilder::new("Odd", 12, 8);
        let acc = u.reg("acc", 12, 0);
        let inp = u.input();
        u.set(acc, acc ^ inp);
        Arc::new(u.build().unwrap())
    }

    #[test]
    fn seed_is_one_token_per_cycle() {
        let p = Predictor::new(125_000_000);
        let spec = spec8();
        // 1-byte tokens at 125 MHz: 8 ns/byte → 4096 bytes ≈ 33 µs.
        let us = p.predict_run_us("Byte:8x8", &spec, 4096);
        assert!((30..=40).contains(&us), "seed predicted {us} µs");
        assert_eq!(p.predict_out_bytes("Byte:8x8", &spec, 1000), 1000);
        assert_eq!(p.observations("Byte:8x8"), 0);
    }

    #[test]
    fn seed_counts_bits_not_truncated_bytes() {
        // 12-bit tokens move 1.5 bytes per cycle. The truncating seed
        // treated them as 1 byte/cycle and predicted 1.5× too slow.
        let p = Predictor::new(125_000_000);
        let spec = spec12();
        let seed = p.seed(&spec);
        assert_eq!(
            seed.npb_x1024,
            8_000_000_000 * 1024 / (125_000_000 * 12),
            "seed must divide by token bits, not whole bytes"
        );
        // 1.5× faster than the byte-truncated model (8192 ×1024).
        assert_eq!(seed.npb_x1024, 5461);
        // Byte-aligned widths are unchanged by the fix: 8-bit tokens at
        // 125 MHz still seed at exactly 8 ns/byte.
        assert_eq!(p.seed(&spec8()).npb_x1024, 8 * 1024);
    }

    #[test]
    fn seeds_are_bit_identical_and_float_free() {
        // Integer-Hz seeding: any two predictors over the same clock
        // produce byte-for-byte equal models for every width, including
        // clocks that are not exactly representable as small floats.
        for hz in [125_000_000u64, 250_000_000, 333_333_333, 1] {
            let a = Predictor::new(hz);
            let b = Predictor::new(hz);
            for spec in [spec8(), spec12()] {
                assert_eq!(a.seed(&spec), b.seed(&spec), "clock {hz} Hz");
                // The exact integer the seed must land on.
                let bits = spec.input_token_bits as u128;
                let want = (8_000_000_000u128 * 1024 / (hz as u128 * bits)).max(1) as u64;
                assert_eq!(a.seed(&spec).npb_x1024, want);
            }
        }
    }

    #[test]
    fn observations_move_the_model_and_respect_the_clock() {
        let mut p = Predictor::new(125_000_000);
        let spec = spec8();
        let key: Arc<str> = "Byte:8x8".into();
        // A run 4× slower than the seed, completing at t=100.
        p.observe(100, 0, &key, &spec, 4096, 132, 4096, 8192);
        // Not due yet: prediction still the seed.
        p.apply_due(50);
        let before = p.predict_run_us(&key, &spec, 4096);
        assert!(before < 60, "model moved before its observation was due");
        // Due: first sample replaces the seed.
        p.apply_due(100);
        let after = p.predict_run_us(&key, &spec, 4096);
        assert!((120..=145).contains(&after), "learned prediction {after} µs");
        assert_eq!(p.observations(&key), 1);
        // Output ratio learned as 2×.
        assert_eq!(p.predict_out_bytes(&key, &spec, 1000), 2000);
    }

    #[test]
    fn updates_apply_in_virtual_clock_order() {
        // Two predictors fed the same observations in different call
        // order converge to the same model once both are due — the
        // sort by (at_us, instance) is the canonical order.
        let spec = spec8();
        let key: Arc<str> = "Byte:8x8".into();
        let mut a = Predictor::new(125_000_000);
        a.observe(10, 0, &key, &spec, 1000, 50, 1000, 1000);
        a.observe(20, 1, &key, &spec, 1000, 90, 1000, 1000);
        a.apply_due(100);
        let mut b = Predictor::new(125_000_000);
        b.observe(20, 1, &key, &spec, 1000, 90, 1000, 1000);
        b.observe(10, 0, &key, &spec, 1000, 50, 1000, 1000);
        b.apply_due(100);
        assert_eq!(a.model(&key, &spec), b.model(&key, &spec));
    }
}
