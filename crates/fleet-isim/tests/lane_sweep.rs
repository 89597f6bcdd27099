//! Differential test of the lane sweep: `PackedProg::eval_lanes` and
//! `PackedProg::eval_lanes32` against per-lane `PackedProg::eval`, on
//! the six paper apps, at lane counts on both sides of every vector
//! width and with the unenrolled lanes of the plane poisoned.

use fleet_apps::{App, AppKind};
use fleet_isim::{bytes_to_tokens, Interpreter, PackedProg, SsaProg, UnitState};
use fleet_lang::UnitSpec;

const LANE_COUNTS: [usize; 10] = [1, 2, 7, 8, 9, 31, 33, 47, 63, 64];
const PLANE_WIDTHS: [usize; 2] = [8, 64];
/// Sweeps compared per (lane count, plane width) pair.
const ROUNDS: usize = 6;

/// One replica, its state advanced a token at a time by the reference
/// interpreter.
struct Lane {
    sim: Interpreter,
    tokens: Vec<u64>,
    pos: usize,
    /// The scalar evaluation buffer (seeded once, like a `PuExec`'s).
    vals: Vec<u64>,
}

impl Lane {
    /// The next virtual cycle's `(input, finished)`; a lane whose stream
    /// ran dry evaluates its cleanup cycle.
    fn input(&self) -> (u64, bool) {
        match self.tokens.get(self.pos) {
            Some(&t) => (t, false),
            None => (0, true),
        }
    }

    fn advance(&mut self) {
        if let Some(&t) = self.tokens.get(self.pos) {
            self.sim.step_token(t).expect("the apps run clean");
            self.pos += 1;
        }
    }
}

/// The conditions under which the `u32` plane is bit-exact (what
/// `CompiledUnit` checks before it picks the narrow plane).
fn narrow_ok(spec: &UnitSpec, opt: &SsaProg, packed: &PackedProg) -> bool {
    let small = |v: u64| v <= u64::from(u32::MAX);
    packed.fits_u32()
        && spec.input_token_bits <= 32
        && spec.regs.iter().all(|r| r.width <= 32 && small(r.init))
        && spec.vec_regs.iter().all(|v| v.width <= 32 && small(v.init))
        && spec.brams.iter().all(|b| b.data_width <= 32)
        && opt.seed_vals().iter().all(|&v| small(v))
}

/// A plane seeded for lanes `0..n` only; every other lane of every row
/// (the constant rows too) is all-ones, so a sweep that reads a lane it
/// was not given sees a value no program produces.
fn poisoned_plane<T: Copy>(seed: &[T], n: usize, width: usize, ones: T) -> Vec<T> {
    let mut plane = vec![ones; seed.len() * width];
    for (s, &v) in seed.iter().enumerate() {
        plane[s * width..s * width + n].fill(v);
    }
    plane
}

#[test]
fn lane_sweeps_match_scalar_eval_on_all_apps() {
    let mut narrow_apps = 0;
    for kind in AppKind::all() {
        let app = App::new(kind);
        let (name, spec) = (app.name(), app.spec());
        let opt = SsaProg::build(&spec).optimized(&spec);
        let packed = PackedProg::new(&opt);
        let seed = opt.seed_vals();
        let slots = opt.slots();
        let narrow = narrow_ok(&spec, &opt, &packed);
        let seed32: Vec<u32> = seed.iter().map(|&v| v as u32).collect();
        narrow_apps += usize::from(narrow);

        // Lanes start from different depths of different streams, so
        // registers, vector registers and BRAMs differ across the plane.
        let mut lanes: Vec<Lane> = (0..64)
            .map(|l| {
                let stream = app.gen_stream(l as u64 + 1, 512);
                let tokens = bytes_to_tokens(&stream, spec.input_token_bits).expect("whole tokens");
                Lane { sim: Interpreter::new(&spec), tokens, pos: 0, vals: seed.clone() }
            })
            .collect();
        for (l, lane) in lanes.iter_mut().enumerate() {
            for _ in 0..3 * l + 5 {
                lane.advance();
            }
        }

        for width in PLANE_WIDTHS {
            for n in LANE_COUNTS.into_iter().filter(|&n| n <= width) {
                let mut wide = poisoned_plane(&seed, n, width, u64::MAX);
                let mut slim = poisoned_plane(&seed32, n, width, u32::MAX);
                for round in 0..ROUNDS {
                    let (inputs, finished): (Vec<u64>, Vec<bool>) =
                        lanes[..n].iter().map(Lane::input).unzip();
                    let states: Vec<&UnitState> = lanes[..n].iter().map(|l| l.sim.state()).collect();
                    packed.eval_lanes(&states, &inputs, &finished, width, &mut wide);
                    if narrow {
                        packed.eval_lanes32(&states, &inputs, &finished, width, &mut slim);
                    }
                    for (l, lane) in lanes[..n].iter_mut().enumerate() {
                        packed.eval(lane.sim.state(), inputs[l], finished[l], &mut lane.vals);
                        for s in 0..slots {
                            assert_eq!(
                                wide[s * width + l],
                                lane.vals[s],
                                "{name}, u64 plane: lane {l} of {n}, width {width}, slot {s}, round {round}"
                            );
                            if narrow {
                                assert_eq!(
                                    u64::from(slim[s * width + l]),
                                    lane.vals[s],
                                    "{name}, u32 plane: lane {l} of {n}, width {width}, slot {s}, round {round}"
                                );
                            }
                        }
                        lane.advance();
                    }
                }
            }
        }
    }
    assert!(narrow_apps >= 2, "the u32 plane was exercised on {narrow_apps} apps");
}
