//! Generated units for differential testing.
//!
//! [`unit_from_choices`] decodes any sequence of choice words into a
//! validated unit, so a property test draws a `Vec<u32>` and lets its
//! shrinker find the minimal failing unit: a shorter sequence reads as
//! fewer declarations and statements, and a smaller word as the first
//! (simplest) option of each choice — a missing word reads as `0`.
//!
//! The units aim at what the six paper apps leave out: registers whose
//! new values read other registers (swaps and rotations), vector
//! registers with several guarded writers, BRAMs, nested `if`s and
//! `while` loops inside them, guarded emits, and token widths that are
//! not multiples of 8. They are valid by construction and every `while`
//! terminates (a private counter bounds it), but they may break the
//! *dynamic* restrictions (two emits or BRAM writes in one virtual
//! cycle, an out-of-range vector index), which the interpreter rejects
//! and the compiled hardware resolves by priority.

use crate::builder::{Bram, Reg, UnitBuilder, VecReg};
use crate::expr::{lit, mask, E};
use crate::types::Width;
use crate::unit::UnitSpec;

/// Token widths to draw from, byte-aligned first.
const TOKEN_BITS: [Width; 8] = [8, 5, 12, 16, 1, 27, 32, 64];
/// State-element widths to draw from: both planes (≤ 32 and > 32 bits).
const WIDTHS: [Width; 8] = [8, 1, 3, 16, 12, 32, 33, 64];

/// A cursor over the choice words.
struct Draw<'a> {
    words: &'a [u32],
    at: usize,
}

impl Draw<'_> {
    fn word(&mut self) -> u32 {
        let w = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        w
    }

    fn below(&mut self, n: usize) -> usize {
        self.word() as usize % n
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }

    /// A value of `width` bits.
    fn value(&mut self, width: Width) -> u64 {
        mask((u64::from(self.word()) << 32) | u64::from(self.word()), width)
    }
}

/// Everything an expression may read.
struct Scope {
    input: E,
    finished: E,
    regs: Vec<Reg>,
    vecs: Vec<VecReg>,
    /// Each BRAM with the one address the unit reads it at (the
    /// interpreter rejects two read addresses in a virtual cycle).
    brams: Vec<(Bram, E)>,
}

/// Builds the unit the choice words describe (see the module docs).
/// Every choice sequence, including the empty one, yields a valid unit.
pub fn unit_from_choices(words: &[u32]) -> UnitSpec {
    let mut d = Draw { words, at: 0 };
    let (in_bits, out_bits) = (d.pick(&TOKEN_BITS), d.pick(&TOKEN_BITS));
    let mut u = UnitBuilder::new("Generated", in_bits, out_bits);
    let regs = (0..1 + d.below(5))
        .map(|k| {
            let w = d.pick(&WIDTHS);
            let init = d.value(w);
            u.reg(format!("r{k}"), w, init)
        })
        .collect();
    let vecs = (0..d.below(3))
        .map(|k| {
            let (elements, w) = (1 + d.below(5), d.pick(&WIDTHS));
            let init = d.value(w);
            u.vec_reg(format!("v{k}"), elements, w, init)
        })
        .collect();
    let brams: Vec<Bram> = (0..d.below(3))
        .map(|k| u.bram(format!("m{k}"), 2 << d.below(4), d.pick(&WIDTHS)))
        .collect();
    // Read addresses first, from a scope without BRAMs: a read address
    // that reads a BRAM is a dependent read, which no unit may contain.
    let mut scope =
        Scope { input: u.input(), finished: u.stream_finished(), regs, vecs, brams: Vec::new() };
    let addrs: Vec<E> = brams.iter().map(|_| expr(&mut d, &scope, 1)).collect();
    scope.brams = brams.into_iter().zip(addrs).collect();
    let mut loops = 0;
    block(&mut u, &mut d, &scope, 0, false, &mut loops);
    u.build().expect("generated units are valid by construction")
}

/// One to four statements.
fn block(
    u: &mut UnitBuilder,
    d: &mut Draw<'_>,
    s: &Scope,
    depth: usize,
    in_loop: bool,
    loops: &mut usize,
) {
    for _ in 0..1 + d.below(4) {
        stmt(u, d, s, depth, in_loop, loops);
    }
}

/// One statement. Below depth 2 it may open an `if` (or, outside a
/// loop body and while the unit has fewer than two, a `while`); a
/// choice whose state element the unit lacks falls through to
/// assigning a register from a leaf.
fn stmt(
    u: &mut UnitBuilder,
    d: &mut Draw<'_>,
    s: &Scope,
    depth: usize,
    in_loop: bool,
    loops: &mut usize,
) {
    let kinds = if depth < 2 { 9 } else { 6 };
    match d.below(kinds) {
        0 => {
            let r = d.pick(&s.regs);
            let v = expr(d, s, 2);
            u.set(r, v);
        }
        1 => {
            // Rotation: every register takes the next one's pre-cycle
            // value (a swap for two).
            let k = 1 + d.below(s.regs.len());
            let first = d.below(s.regs.len());
            let ring: Vec<Reg> = (0..k).map(|i| s.regs[(first + i) % s.regs.len()]).collect();
            for (i, &r) in ring.iter().enumerate() {
                u.set(r, ring[(i + 1) % k].e());
            }
        }
        2 if !s.vecs.is_empty() => {
            let v = d.pick(&s.vecs);
            let (idx, val) = (expr(d, s, 1), expr(d, s, 2));
            u.set_vec(v, idx, val);
        }
        3 if !s.brams.is_empty() => {
            let b = s.brams[d.below(s.brams.len())].0;
            let (addr, val) = (expr(d, s, 1), expr(d, s, 2));
            u.write(b, addr, val);
        }
        4 => {
            let v = expr(d, s, 2);
            u.emit(v);
        }
        6 => {
            let c = expr(d, s, 2);
            let chain = u.if_(c, |u| block(u, d, s, depth + 1, in_loop, loops));
            if d.below(2) == 1 {
                chain.else_(|u| block(u, d, s, depth + 1, in_loop, loops));
            }
        }
        7 if !in_loop && *loops < 2 => {
            // A loop bounded by its own counter, reset in the final
            // virtual cycle; an enclosing `if` only shortens it.
            *loops += 1;
            let bound = 1 + d.below(4) as u64;
            let cnt = u.reg(format!("loop{loops}"), 3, 0);
            u.while_(cnt.lt_e(bound), |u| {
                u.set(cnt, cnt + 1u64);
                block(u, d, s, depth + 1, true, loops);
            });
            u.set(cnt, lit(0, 3));
        }
        _ => {
            let r = d.pick(&s.regs);
            let v = leaf(d, s, 1);
            u.set(r, v);
        }
    }
}

/// An expression of at most `depth` operator levels.
fn expr(d: &mut Draw<'_>, s: &Scope, depth: usize) -> E {
    if depth == 0 || d.below(3) == 0 {
        return leaf(d, s, depth);
    }
    let a = expr(d, s, depth - 1);
    match d.below(11) {
        0 => a + expr(d, s, depth - 1),
        1 => a - expr(d, s, depth - 1),
        2 => a ^ expr(d, s, depth - 1),
        3 => a & expr(d, s, depth - 1),
        4 => a | expr(d, s, depth - 1),
        5 => a * expr(d, s, depth - 1),
        6 => {
            let (t, f) = (expr(d, s, depth - 1), expr(d, s, depth - 1));
            a.mux(t, f)
        }
        7 => {
            let w = a.width() as usize;
            let lo = d.below(w);
            let hi = lo + d.below(w - lo);
            a.slice(hi as Width, lo as Width)
        }
        8 => {
            let b = expr(d, s, depth - 1);
            if a.width() + b.width() <= 64 {
                a.concat(b)
            } else {
                a ^ b
            }
        }
        9 => {
            let b = expr(d, s, depth - 1);
            if d.below(2) == 0 {
                a.lt_e(b)
            } else {
                a.eq_e(b)
            }
        }
        _ => {
            let by = lit(d.below(8) as u64, 3);
            if d.below(2) == 0 {
                a << by
            } else {
                a >> by
            }
        }
    }
}

/// A register, the input token, a literal, a vector element (at an
/// index of at most `depth` levels), a BRAM word or the finished flag.
fn leaf(d: &mut Draw<'_>, s: &Scope, depth: usize) -> E {
    match d.below(6) {
        0 => d.pick(&s.regs).e(),
        2 => {
            let w = d.pick(&WIDTHS);
            lit(d.value(w), w)
        }
        3 if !s.vecs.is_empty() => {
            let v = d.pick(&s.vecs);
            let idx = if depth > 0 { expr(d, s, depth - 1) } else { s.input.clone() };
            v.read(idx)
        }
        4 if !s.brams.is_empty() => {
            let (b, addr) = &s.brams[d.below(s.brams.len())];
            b.read(addr.clone())
        }
        5 => s.finished.clone(),
        _ => s.input.clone(),
    }
}

/// Runs the property `check` on the unit the choice words describe; if
/// it panics, shrinks the words to a locally minimal sequence that
/// still fails and panics with that sequence and its unit.
///
/// The workspace's property runner does not shrink, so generated-unit
/// tests bring their own: spans of words are deleted (halving the span
/// down to one word), then each word is lowered (to zero, to half, by
/// one), repeating until no step keeps the failure. `check` must be
/// deterministic in its argument.
pub fn check_choices(words: &[u32], check: impl Fn(&[u32])) {
    let fails =
        |w: &[u32]| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(w))).is_err();
    if !fails(words) {
        return;
    }
    let mut best = words.to_vec();
    loop {
        let before = best.clone();
        let mut span = best.len();
        while span > 0 {
            let mut i = 0;
            while i + span <= best.len() {
                let mut cand = best.clone();
                cand.drain(i..i + span);
                if fails(&cand) {
                    best = cand;
                } else {
                    i += span;
                }
            }
            span /= 2;
        }
        for i in 0..best.len() {
            for lower in [0, best[i] / 2, best[i].saturating_sub(1)] {
                if lower < best[i] {
                    let mut cand = best.clone();
                    cand[i] = lower;
                    if fails(&cand) {
                        best = cand;
                        break;
                    }
                }
            }
        }
        if best == before {
            break;
        }
    }
    panic!(
        "generated unit fails its check; minimal choices {best:?}:\n{}",
        crate::display::render(&unit_from_choices(&best))
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::{FlatProgram, OpKind};
    use proptest::prelude::*;

    proptest! {
        /// Any choice sequence decodes to a unit (validation runs inside).
        #[test]
        fn every_choice_sequence_builds(words in proptest::collection::vec(any::<u32>(), 0..=96)) {
            unit_from_choices(&words);
        }
    }

    /// Over a few hundred sequences the generator reaches every shape
    /// it exists for.
    #[test]
    fn generated_units_cover_the_targeted_shapes() {
        let (mut swap, mut multi_vec, mut bram, mut looped, mut odd_tokens, mut guarded_emit) =
            (false, false, false, false, false, false);
        let mut x = 0x9e37_79b9_u32;
        for _ in 0..400 {
            let words: Vec<u32> = (0..64)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x
                })
                .collect();
            let spec = unit_from_choices(&words);
            let flat = FlatProgram::build(&spec.body);
            odd_tokens |= !spec.input_token_bits.is_multiple_of(8)
                || !spec.output_token_bits.is_multiple_of(8);
            looped |= !flat.loop_conds.is_empty();
            bram |= !spec.brams.is_empty()
                && flat.ops.iter().any(|g| matches!(g.op, OpKind::BramWrite(..)));
            guarded_emit |=
                flat.ops.iter().any(|g| matches!(g.op, OpKind::Emit(_)) && !g.guard.is_empty());
            let vec_writers = |v: usize| {
                flat.ops
                    .iter()
                    .filter(|g| matches!(&g.op, OpKind::SetVecReg(id, ..) if id.index() == v))
                    .count()
            };
            multi_vec |= (0..spec.vec_regs.len()).any(|v| vec_writers(v) > 1);
            swap |= flat.ops.iter().any(|g| match &g.op {
                OpKind::SetReg(r, v) => matches!(v.node(), crate::ExprNode::Reg(src) if src != r),
                _ => false,
            });
        }
        assert!(swap && multi_vec && bram && looped && odd_tokens && guarded_emit);
    }

    /// The shrinker keeps the failure and ends at a local minimum: here
    /// "the unit has a BRAM", whose minimal sequence leaves every word
    /// but the BRAM count at zero.
    #[test]
    fn check_choices_reports_a_minimal_failing_sequence() {
        let words = (1..)
            .map(|k: u32| {
                (1..=40u32)
                    .map(|i| i.wrapping_mul(k).wrapping_mul(2_654_435_761))
                    .collect::<Vec<u32>>()
            })
            .find(|w| !unit_from_choices(w).brams.is_empty())
            .expect("some sequence declares a BRAM");
        let has_bram = |w: &[u32]| assert!(unit_from_choices(w).brams.is_empty());
        let msg = std::panic::catch_unwind(|| check_choices(&words, has_bram))
            .expect_err("a unit with a BRAM fails")
            .downcast::<String>()
            .expect("formatted panic");
        let minimal = &msg[msg.find('[').unwrap()..=msg.find(']').unwrap()];
        let minimal: Vec<u32> =
            minimal[1..minimal.len() - 1].split(", ").map(|w| w.parse().unwrap()).collect();
        assert!(!unit_from_choices(&minimal).brams.is_empty());
        assert!(minimal.iter().filter(|&&w| w != 0).count() <= 1, "not minimal: {minimal:?}");
        check_choices(&words, |_| {});
    }
}
