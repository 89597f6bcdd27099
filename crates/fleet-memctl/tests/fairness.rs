//! Round-robin fairness and conservation properties of the memory
//! controller.

use fleet_axi::{DramChannel, DramConfig, BEAT_BYTES};
use fleet_compiler::PuExec;
use fleet_lang::{UnitBuilder, UnitSpec};
use fleet_memctl::{Addressing, ChannelEngine, MemCtlConfig, StreamAssignment};

fn identity() -> UnitSpec {
    let mut u = UnitBuilder::new("Identity", 8, 8);
    let inp = u.input();
    let nf = u.stream_finished().not_b();
    u.if_(nf, |u| u.emit(inp.clone()));
    u.build().unwrap()
}

fn engine(
    spec: &UnitSpec,
    cfg: MemCtlConfig,
    streams: &[Vec<u8>],
    out_cap: usize,
) -> ChannelEngine<PuExec> {
    let n = streams.len();
    let in_alloc: Vec<usize> =
        streams.iter().map(|s| s.len().div_ceil(BEAT_BYTES) * BEAT_BYTES).collect();
    let out_alloc = out_cap.div_ceil(BEAT_BYTES) * BEAT_BYTES + cfg.burst_bytes;
    let total_in: usize = in_alloc.iter().sum();
    let mut dram = DramChannel::new(DramConfig::default(), total_in + n * out_alloc);
    let mut assigns = Vec::new();
    let mut off = 0usize;
    for (k, s) in streams.iter().enumerate() {
        dram.mem_mut()[off..off + s.len()].copy_from_slice(s);
        assigns.push(StreamAssignment {
            in_start: off,
            in_len: s.len(),
            out_start: total_in + k * out_alloc,
            out_capacity: out_alloc,
        });
        off += in_alloc[k];
    }
    let units = (0..n).map(|_| PuExec::new(spec)).collect();
    ChannelEngine::new(cfg, dram, units, assigns, 1, 1)
}

#[test]
fn equal_streams_all_complete_and_conserve_bytes() {
    let spec = identity();
    let streams: Vec<Vec<u8>> =
        (0..24).map(|p| (0..1500u32).map(|i| ((i * 7 + p * 13) % 256) as u8).collect()).collect();
    let mut eng = engine(&spec, MemCtlConfig::default(), &streams, 2048);
    eng.run_channel(50_000_000, None, 1).unwrap();
    let total_in: u64 = streams.iter().map(|s| s.len() as u64).sum();
    assert_eq!(eng.stats().input_bytes, total_in, "every input byte delivered once");
    assert_eq!(eng.stats().output_bytes, total_in, "identity output conserved");
    for (p, s) in streams.iter().enumerate() {
        assert_eq!(&eng.output_bytes(p), s);
    }
}

#[test]
fn nonblocking_input_matches_blocking_on_uniform_load() {
    // With equal-rate consumers, the input policy should not matter
    // much; both must finish and produce identical outputs.
    let spec = identity();
    let streams: Vec<Vec<u8>> = (0..8).map(|p| vec![p as u8; 2000]).collect();
    let mut cycles = Vec::new();
    for policy in [Addressing::Blocking, Addressing::Nonblocking] {
        let cfg = MemCtlConfig { input_addressing: policy, ..MemCtlConfig::default() };
        let mut eng = engine(&spec, cfg, &streams, 2560);
        let c = eng.run_channel(50_000_000, None, 1).unwrap();
        for (p, s) in streams.iter().enumerate() {
            assert_eq!(&eng.output_bytes(p), s, "policy {policy:?} stream {p}");
        }
        cycles.push(c as f64);
    }
    let ratio = cycles[0] / cycles[1];
    assert!(
        (0.7..=1.4).contains(&ratio),
        "uniform load should not separate the policies: {cycles:?}"
    );
}

#[test]
fn tiny_streams_shorter_than_a_burst() {
    let spec = identity();
    let streams: Vec<Vec<u8>> = (1..6).map(|p| vec![p as u8; p as usize * 7]).collect();
    let mut eng = engine(&spec, MemCtlConfig::default(), &streams, 512);
    eng.run_channel(5_000_000, None, 1).unwrap();
    for (p, s) in streams.iter().enumerate() {
        assert_eq!(&eng.output_bytes(p), s);
    }
}

#[test]
fn empty_output_unit_still_terminates() {
    let mut u = UnitBuilder::new("Sink", 8, 8);
    let acc = u.reg("acc", 8, 0);
    let inp = u.input();
    u.set(acc, acc ^ inp);
    let spec = u.build().unwrap();
    let streams: Vec<Vec<u8>> = (0..4).map(|_| vec![1u8; 900]).collect();
    let mut eng = engine(&spec, MemCtlConfig::default(), &streams, 128);
    eng.run_channel(5_000_000, None, 1).unwrap();
    for p in 0..4 {
        assert!(eng.output_bytes(p).is_empty());
    }
}
