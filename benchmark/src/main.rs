//! The repo's wall-clock benchmark. See `README.md` for the workloads, the
//! metrics and how to read the output.
//!
//! ```text
//! benchmark run [--seed N] [--seconds S]               every workload, untraced then traced
//! benchmark run --workload W --seed N --seconds S --trace 0|1     one workload (the driver's form)
//! benchmark sim-stats [--seed N]                        sim-clock metrics only, canonical JSON;
//!                                                       fails if they differ from sim_stats.json
//! benchmark repeat [--sets K] [--workload W] [--seed N] [--seconds S]   A/A check
//! ```

mod metrics;
mod rss;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{end_to_end, per_layer, Clock, Metric, Values, WORKLOADS};
use spans::{layer_of, Recorder};
use stats::{median, quartiles, spread};
use workloads::{put, Rep, Workload};

/// An untraced run sets its workload up again and again for this long (at
/// least [`MIN_SETUPS`] times) and reports the median as `setup_s`: most
/// set-ups take milliseconds or less, and one sample of that is noise.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUPS: usize = 5;
/// Fewest timed passes a run reports a median over.
const MIN_REPS: usize = 3;
/// Wall seconds a traced run gives its workload's isolated layer drives.
const LAYER_BUDGET_S: f64 = 2.0;
/// Seed when `--seed` is absent; `sim_stats.json` holds this seed's values.
const DEFAULT_SEED: u64 = 42;
/// Runs (one seed each) per set of `repeat`: the ten the acceptance check
/// takes its quartiles over, so its spreads compare with the bounds.
const RUNS_PER_SET: u64 = 10;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing subcommand: run, sim-stats or repeat")?;
    let mut args =
        Args { command, workload: None, seed: DEFAULT_SEED, seconds: 12.0, trace: false, sets: 2 };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--sets" => args.sets = value.parse().map_err(|_| bad("a whole number"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 3600.0) || args.sets == 0 {
        return Err("--seconds must be 0..=3600 and --sets at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (args.command.as_str(), &args.workload) {
        ("run", Some(name)) => run_one(name, &args),
        ("run", None) => run_all(&args),
        ("sim-stats", _) => sim_stats(&args),
        ("repeat", _) => repeat(&args),
        (other, _) => Err(format!("unknown subcommand {other}: want run, sim-stats or repeat")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Where trace and result files go: `benchmark/out/`.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn clock_name(clock: Clock) -> &'static str {
    match clock {
        Clock::Host => "host",
        Clock::Sim => "sim",
    }
}

/// A workload's timed passes.
struct Passes {
    /// The first pass: untimed, it warms caches and fixes the sim values
    /// every later pass must reproduce.
    first: Rep,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Whether every pass reproduced the first pass's sim values.
    deterministic: bool,
}

/// Repeats the workload for `seconds` (at least [`MIN_REPS`] untraced
/// passes; with `trace`, alternating untraced and span-recorded passes).
fn run_passes(wl: &mut dyn Workload, rec: &mut Recorder, seconds: f64, trace: bool) -> Passes {
    rec.set_enabled(false);
    let first = wl.rep(rec);
    let mut p = Passes {
        attempted: first.attempted,
        failed: first.failed,
        first,
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        deterministic: true,
    };
    let started = Instant::now();
    loop {
        let traced = trace && p.untraced_s.len() > p.traced_s.len();
        rec.set_enabled(traced);
        if traced {
            rec.next_rep();
        }
        let rep = wl.rep(rec);
        p.attempted += rep.attempted;
        p.failed += rep.failed;
        p.deterministic &= rep.sim == p.first.sim && rep.cycles == p.first.cycles;
        if traced { &mut p.traced_s } else { &mut p.untraced_s }.push(rep.wall_s);
        let enough = p.untraced_s.len() >= MIN_REPS && (!trace || p.traced_s.len() >= MIN_REPS);
        if enough && started.elapsed().as_secs_f64() >= seconds {
            rec.set_enabled(trace);
            rec.end_reps();
            return p;
        }
    }
}

/// One workload in this process: set up, repeat, check, report. The last
/// line of standard output is the result object the driver reads.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let mut rec = Recorder::new(args.trace);
    let mut setup_s = Vec::new();
    let mut wl = None;
    // A traced run sets up once, inside spans, and reports no `setup_s`.
    let setups_started = Instant::now();
    loop {
        drop(wl.take());
        let t = Instant::now();
        wl = Some(
            rec.span("bench.setup", name, |rec| workloads::setup(name, args.seed, rec))
                .ok_or(format!("unknown workload {name}"))?,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        let spent = setups_started.elapsed().as_secs_f64();
        let enough = setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S;
        if args.trace || enough {
            break;
        }
    }
    let mut wl = wl.expect("at least one set-up");
    let p = run_passes(wl.as_mut(), &mut rec, args.seconds, args.trace);

    let defs = if args.trace { per_layer() } else { end_to_end() };
    let mut values = Values::new();
    println!("# {name}: seed {}, {} s, trace {}", args.seed, args.seconds, u8::from(args.trace));
    if args.trace {
        front_end(&rec, p.first.input_bytes, &mut values);
        wl.layers(&mut rec, p.traced_s.len(), LAYER_BUDGET_S, &mut values);
        let overhead = median(&p.traced_s) / median(&p.untraced_s) - 1.0;
        put(&mut values, "bench.trace_overhead_share", overhead);
        values.extend(p.first.sim.clone());
        let path = out_dir()?.join(format!("trace.{name}.json"));
        write_file(&path, &rec.to_chrome_json())?;
        print_self_times(&rec);
        println!("spans written to {}", path.display());
    } else {
        // Rates use the median pass; the quartiles beside them are of
        // the per-pass rates.
        let rate = |amount: f64| -> (f64, Vec<f64>) {
            (amount / median(&p.untraced_s), p.untraced_s.iter().map(|w| amount / w).collect())
        };
        let mut shown = BTreeMap::new();
        for (metric, amount) in [
            ("sim_kcycles_per_wall_s", p.first.cycles as f64 / 1e3),
            ("input_mb_per_wall_s", p.first.input_bytes as f64 / 1e6),
            ("jobs_per_wall_s", p.first.attempted as f64),
        ] {
            let (value, samples) = rate(amount);
            put(&mut values, metric, value);
            shown.insert(metric, samples);
        }
        put(&mut values, "setup_s", median(&setup_s));
        shown.insert("setup_s", setup_s);
        put(&mut values, "peak_rss_mb", rss::peak_rss_mb()?);
        values.extend(p.first.sim.clone());
        let walls: Vec<String> = p.untraced_s.iter().map(|w| format!("{w:.4}")).collect();
        println!("  pass wall seconds: {}", walls.join(" "));
        for (metric, samples) in shown {
            let [q1, _, q3] = quartiles(&samples);
            println!("  {metric}: quartiles {q1:.4} .. {q3:.4} over {} samples", samples.len());
        }
    }

    // Exactly the contract's names. A traced run reads 0 for a layer its
    // workload left out because it is off its path; any other missing,
    // non-finite or (end to end) non-positive value is a bug in the
    // benchmark and must not pass for a measurement.
    let known: Vec<String> = end_to_end().into_iter().chain(per_layer()).map(|m| m.name).collect();
    let mut broken: Vec<String> = values
        .keys()
        .filter(|name| !known.contains(name))
        .map(|name| format!("{name} is not a metric of BENCHMARK.json"))
        .collect();
    let metrics: Vec<(Metric, f64)> = defs
        .into_iter()
        .map(|m| {
            let v = match values.get(&m.name) {
                // (`+ 0.0` turns the -0.0 an empty sum gives into 0.)
                Some(&v) if v.is_finite() && (args.trace || v > 0.0) => v + 0.0,
                None if args.trace => 0.0,
                other => {
                    broken.push(format!("{} is {other:?}", m.name));
                    0.0
                }
            };
            (m, v)
        })
        .collect();
    println!("{:<40} {:>16} {:<10} clock", "metric", "value", "unit");
    for (m, v) in &metrics {
        println!("{:<40} {:>16.4} {:<10} {}", m.name, v, m.unit, clock_name(m.clock));
    }
    let correct = p.failed == 0 && p.deterministic && broken.is_empty();
    if !p.deterministic {
        println!("FAILED: sim-clock values differed between passes of one run");
    }
    for problem in &broken {
        println!("FAILED: {problem}");
    }
    println!(
        "{} passes ({} traced), {} operations, {} failed (failed share {})",
        1 + p.untraced_s.len() + p.traced_s.len(),
        p.traced_s.len(),
        p.attempted,
        p.failed,
        p.failed as f64 / p.attempted as f64
    );

    // For `repeat`, which reads its children's metrics back.
    let tsv: String =
        metrics.iter().map(|(m, v)| format!("{}\t{v}\t{}\n", m.name, m.unit)).collect();
    let result = format!("result.{name}.seed{}.trace{}.tsv", args.seed, u8::from(args.trace));
    write_file(&out_dir()?.join(result), &tsv)?;
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        p.attempted,
        p.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Front-end metrics from the set-up spans of a traced run.
fn front_end(rec: &Recorder, input_bytes: u64, out: &mut Values) {
    // A workload that never makes the call (`cluster_model` generates no
    // streams up front, the `mem_*` units need no golden model) leaves
    // the metric out.
    for (metric, span, rate) in [
        ("lang.spec_build_us", "lang.spec_build", false),
        ("compiler.compile_us", "compiler.compile", false),
        ("apps.gen_stream_mb_per_s", "apps.gen_stream", true),
        ("apps.golden_mb_per_s", "apps.golden", true),
    ] {
        let s = rec.total_s(span, None);
        if s > 0.0 {
            put(out, metric, if rate { input_bytes as f64 / 1e6 / s } else { s * 1e6 });
        }
    }
}

/// Prints self time per span name and per layer, largest first.
fn print_self_times(rec: &Recorder) {
    let times = rec.self_times();
    let all: u64 = times.iter().map(|t| t.self_ns).sum();
    let share = |ns: u64| 100.0 * ns as f64 / all.max(1) as f64;
    println!("{:<32} {:>7} {:>12} {:>12} {:>7}", "span", "count", "total ms", "self ms", "self %");
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for t in &times {
        *layers.entry(layer_of(t.name)).or_default() += t.self_ns;
        println!(
            "{:<32} {:>7} {:>12.3} {:>12.3} {:>7.2}",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            share(t.self_ns)
        );
    }
    let mut layers: Vec<(&str, u64)> = layers.into_iter().collect();
    layers.sort_by_key(|l| std::cmp::Reverse(l.1));
    let line: Vec<String> =
        layers.iter().map(|(l, ns)| format!("{l} {:.1}%", share(*ns))).collect();
    println!("self time by layer: {}", line.join(", "));
}

/// Runs this executable again with `extra` arguments.
fn child(extra: &[String], quiet: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(extra);
    if quiet {
        cmd.stdout(Stdio::null());
    }
    let status = cmd.status().map_err(|e| format!("cannot start a workload process: {e}"))?;
    Ok(status.success())
}

fn workload_args(name: &str, seed: u64, seconds: f64, trace: bool) -> Vec<String> {
    format!("run --workload {name} --seed {seed} --seconds {seconds} --trace {}", u8::from(trace))
        .split(' ')
        .map(str::to_string)
        .collect()
}

/// Every workload, each in its own process (so `peak_rss_mb` is per
/// workload), untraced then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            ok &= child(&workload_args(name, args.seed, args.seconds, trace), false)?;
            println!();
        }
    }
    println!("{}", if ok { "all workloads correct" } else { "FAILED: see above" });
    Ok(ok)
}

/// The sim-clock values of one workload: its sim end-to-end metrics and
/// its exact per-layer counts. Host-clock values are measured and thrown
/// away.
fn sim_values(name: &str, seed: u64) -> Result<Values, String> {
    let mut rec = Recorder::new(true);
    let mut wl =
        workloads::setup(name, seed, &mut rec).ok_or(format!("unknown workload {name}"))?;
    rec.next_rep();
    let rep = wl.rep(&mut rec);
    rec.end_reps();
    if rep.failed > 0 {
        return Err(format!("{name}: {} of {} operations failed", rep.failed, rep.attempted));
    }
    let mut values = Values::new();
    wl.layers(&mut rec, 1, 0.0, &mut values);
    values.extend(rep.sim);
    let sim: Vec<String> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .filter(|m| m.clock == Clock::Sim)
        .map(|m| m.name)
        .collect();
    values.retain(|name, _| sim.contains(name));
    Ok(values)
}

/// Prints only what the simulator computes — never what the host clock
/// measures — as one canonical JSON object, and compares it with the
/// stored `benchmark/sim_stats.json`. Two invocations must print the same
/// bytes, and a change meant only to speed the simulator up must leave
/// them equal to the stored ones: any difference is listed on standard
/// error and fails the command. A change to the modelled design
/// regenerates the file (`sim-stats > benchmark/sim_stats.json`) and
/// explains the delta.
fn sim_stats(args: &Args) -> Result<bool, String> {
    let mut blocks = Vec::new();
    for (name, _) in WORKLOADS {
        let lines: Vec<String> = sim_values(name, args.seed)?
            .iter()
            .map(|(metric, v)| format!("      \"{metric}\": {v}"))
            .collect();
        blocks.push(format!("    \"{name}\": {{\n{}\n    }}", lines.join(",\n")));
    }
    let text = format!(
        "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}",
        args.seed,
        blocks.join(",\n")
    );
    println!("{text}");
    if args.seed != DEFAULT_SEED {
        eprintln!(
            "sim_stats.json holds seed {DEFAULT_SEED}: nothing to compare seed {} with",
            args.seed
        );
        return Ok(true);
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("sim_stats.json");
    let stored = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (now, then): (Vec<&str>, Vec<&str>) = (text.lines().collect(), stored.lines().collect());
    if now == then {
        return Ok(true);
    }
    eprintln!("FAILED: sim-clock values differ from {}", path.display());
    for i in 0..now.len().max(then.len()) {
        let (a, b) = (then.get(i).unwrap_or(&"<no line>"), now.get(i).unwrap_or(&"<no line>"));
        if a != b {
            eprintln!("  line {}: stored {}  now {}", i + 1, a.trim(), b.trim());
        }
    }
    Ok(false)
}

/// Reads back the metrics a `run --workload` child wrote.
fn read_result(name: &str, seed: u64) -> Result<Values, String> {
    let path = out_dir()?.join(format!("result.{name}.seed{seed}.trace0.tsv"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut values = Values::new();
    for line in text.lines() {
        let mut cols = line.split('\t');
        if let (Some(metric), Some(v), Some(_unit)) = (cols.next(), cols.next(), cols.next()) {
            let v = v.parse().map_err(|_| format!("{}: bad value {v:?}", path.display()))?;
            values.insert(metric.to_string(), v);
        }
    }
    Ok(values)
}

/// How much worse `after` is than `before`, as a share of `before`.
fn worse_by(m: &Metric, before: f64, after: f64) -> f64 {
    let delta = if m.higher_is_better { before - after } else { after - before };
    delta / before.abs()
}

/// The A/A check the benchmark's acceptance rests on: `--sets` sets of
/// [`RUNS_PER_SET`] untraced runs per workload, each run with another
/// seed. Per metric it prints every set's median and spread
/// (interquartile range over median) and fails if a later set's median is
/// worse than the first's by more than the metric's bound, if a sim-clock
/// metric differs at all between sets for the same seed, or if the seeds
/// alone spread a sim-clock metric over its bound. A host-clock metric
/// (other than `setup_s`) whose spread exceeds its bound is *unresolved*:
/// the box is too noisy for the runs to say anything, and the answer is a
/// quieter box, not a wider bound. That fails the command too.
fn repeat(args: &Args) -> Result<bool, String> {
    let defs = end_to_end();
    let (mut failed, mut unresolved) = (false, false);
    let only = args.workload.as_deref();
    for (name, _) in WORKLOADS.into_iter().filter(|w| only.is_none_or(|o| o == w.0)) {
        // samples[set][metric] = one value per seed.
        let mut samples: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        for _ in 0..args.sets {
            let mut set: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for seed in args.seed..args.seed + RUNS_PER_SET {
                if !child(&workload_args(name, seed, args.seconds, false), true)? {
                    println!("FAILED: {name} seed {seed} was not correct");
                    failed = true;
                }
                for (metric, v) in read_result(name, seed)? {
                    set.entry(metric).or_default().push(v);
                }
            }
            samples.push(set);
        }
        println!("# {name}: {} sets of {RUNS_PER_SET} runs", args.sets);
        println!(
            "{:<26} {:<5} {:>6} {:>14} {:>8} {:>14} {:>8} {:>8}  verdict",
            "metric", "clock", "bound", "median[0]", "spread", "median[last]", "spread", "worse"
        );
        for m in &defs {
            let of = |set: usize| samples[set][&m.name].as_slice();
            let (first, last) = (of(0), of(args.sets - 1));
            let widest = (0..args.sets).map(|s| spread(of(s))).fold(0.0, f64::max);
            let worst = (1..args.sets)
                .map(|s| worse_by(m, median(first), median(of(s))))
                .fold(0.0, f64::max);
            let verdict = if m.clock == Clock::Sim && (1..args.sets).any(|s| of(s) != first) {
                failed = true;
                "FAILED: sim value differs between sets"
            } else if m.clock == Clock::Sim && widest > m.bound {
                failed = true;
                "FAILED: seeds spread it over its bound"
            } else if widest > m.bound && m.name != "setup_s" {
                unresolved = true;
                "unresolved: spread over bound"
            } else if worst > m.bound {
                failed = true;
                "FAILED: median moved over bound"
            } else {
                "ok"
            };
            println!(
                "{:<26} {:<5} {:>6.3} {:>14.4} {:>8.4} {:>14.4} {:>8.4} {:>8.4}  {verdict}",
                m.name,
                clock_name(m.clock),
                m.bound,
                median(first),
                spread(first),
                median(last),
                spread(last),
                worst,
            );
        }
        println!();
    }
    println!(
        "{}",
        match (failed, unresolved) {
            (true, _) => "FAILED: see verdicts above",
            (false, true) =>
                "UNRESOLVED: this box is too noisy for the bounds; rerun on a quiet one",
            (false, false) => "repeatable within every bound",
        }
    );
    Ok(!failed && !unresolved)
}
