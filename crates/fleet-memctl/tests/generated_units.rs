//! Generated units through the whole channel: the fast drive (lane
//! groups at widths {1, 8, 64}) against the naive
//! reference tick, which evaluates every unit every cycle through the
//! seed-faithful reference program and never batches. Units come from
//! `fleet_lang::generate`, so register swaps, multi-writer vector
//! registers, BRAMs, nested `if`/`while`, guarded emits and token widths
//! off the byte grid all reach the memory system; a failure shrinks to
//! a minimal unit.

use fleet_axi::{DramChannel, DramConfig, BEAT_BYTES};
use fleet_compiler::{CompiledUnit, PuExec};
use fleet_lang::generate::{check_choices, unit_from_choices};
use fleet_memctl::{ChannelEngine, MemCtlConfig, StreamAssignment};
use fleet_trace::CounterSink;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

type Engine = ChannelEngine<PuExec, CounterSink>;

const UNITS: usize = 24;
const MAX_CYCLES: u64 = 2_000_000;

/// One channel of `UNITS` replicas of the unit, each over its own stream
/// (lengths vary so units finish apart), with a one-burst output buffer
/// and two burst registers so emitting units are back-pressured.
fn build(words: &[u32], lane_width: usize) -> Engine {
    let spec = unit_from_choices(words);
    let in_tok = usize::from(spec.input_token_bits).div_ceil(8);
    let out_tok = usize::from(spec.output_token_bits).div_ceil(8);
    let seed = words
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &w| (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3));
    let streams: Vec<Vec<u8>> = (0..UNITS as u64)
        .map(|p| {
            let mut rng = StdRng::seed_from_u64(seed ^ p);
            let tokens = rng.gen_range(4..=48);
            (0..tokens * in_tok).map(|_| rng.gen()).collect()
        })
        .collect();
    let cfg = MemCtlConfig {
        output_buffer_bytes: 128,
        burst_registers: 2,
        lane_width,
        ..MemCtlConfig::default()
    };
    // At most one token per virtual cycle, and a token costs at most
    // five of them (two concurrent loops of at most four iterations).
    let out_alloc = |s: &Vec<u8>| (s.len() / in_tok + 2) * 5 * out_tok + cfg.burst_bytes;
    let align = |n: usize| n.div_ceil(BEAT_BYTES) * BEAT_BYTES;
    let in_total: usize = streams.iter().map(|s| align(s.len())).sum();
    let out_total: usize = streams.iter().map(|s| align(out_alloc(s))).sum();
    let mut dram = DramChannel::new(DramConfig::default(), in_total + out_total);
    let (mut in_at, mut out_at) = (0, in_total);
    let mut assigns = Vec::new();
    for s in &streams {
        dram.mem_mut()[in_at..in_at + s.len()].copy_from_slice(s);
        let out_capacity = align(out_alloc(s));
        assigns.push(StreamAssignment {
            in_start: in_at,
            in_len: s.len(),
            out_start: out_at,
            out_capacity,
        });
        in_at += align(s.len());
        out_at += out_capacity;
    }
    let unit = CompiledUnit::new(&spec);
    let units = (0..UNITS).map(|_| unit.replicate()).collect();
    ChannelEngine::with_sink(cfg, dram, units, assigns, in_tok, out_tok, CounterSink::new())
}

/// Asserts two finished engines are observably identical, final unit
/// state included.
fn assert_same(label: &str, want: &mut Engine, got: &mut Engine) {
    want.flush_trace();
    got.flush_trace();
    assert_eq!(want.stats(), got.stats(), "{label}: stats");
    assert_eq!(want.unit_vcycles(), got.unit_vcycles(), "{label}: virtual cycles");
    assert_eq!(want.sink(), got.sink(), "{label}: trace counters");
    for p in 0..UNITS {
        let (w, g) = (&want.units()[p], &got.units()[p]);
        assert_eq!(want.output_bytes(p), got.output_bytes(p), "{label}: unit {p} output");
        assert_eq!(w.counters(), g.counters(), "{label}: unit {p} cycle classes");
        assert_eq!(w.state(), g.state(), "{label}: unit {p} final state");
    }
}

/// The property: the fast drive at every lane width equals the naive one.
fn check(words: &[u32]) {
    let mut naive = build(words, 1);
    while !naive.done() {
        naive.tick_naive();
        assert!(naive.stats().cycles < MAX_CYCLES, "naive drive did not finish");
    }
    for width in [1, 8, 64] {
        let mut fast = build(words, width);
        fast.run_channel(MAX_CYCLES, None, 1).expect("fast drive finishes");
        assert_same(&format!("lane width {width}"), &mut naive, &mut fast);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lane widths {1, 8, 64} against the naive drive:
    /// stats, outputs, virtual cycles, cycle classes, trace counters and
    /// every unit's final state.
    #[test]
    fn generated_units_tick_like_tick_naive(words in proptest::collection::vec(any::<u32>(), 0..=96)) {
        check_choices(&words, check);
    }
}
