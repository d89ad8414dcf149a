//! The repository's benchmark: three workloads (`study`, `recover`,
//! `serve`) that drive the program's public API from outside, check its
//! outputs, and report end-to-end metrics (binary `perfbench`) or
//! per-layer metrics (binary `perfbench-traced`). `run.py` builds both
//! and assembles the result line; `README.md` explains every metric.

pub mod instr;
mod layers;
mod recover;
mod serve;
mod speed;
mod study;

use speed::Speed;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One run's settings, parsed from the command line.
struct Opts {
    /// `study`, `recover` or `serve`.
    workload: String,
    /// Seed every input is generated from.
    seed: u64,
    /// Measuring window; every measured loop runs at least until it ends.
    seconds: f64,
    /// Pool workers (`<= nproc`).
    workers: usize,
    /// Cores available to this process.
    nproc: usize,
    /// Run the tiny sizes the benchmark's own test uses.
    tiny: bool,
    /// This is the traced binary: report per-layer metrics.
    traced: bool,
}

/// Named metrics with units, in emission order.
#[derive(Default, Clone)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Element-wise median of several runs that emitted the same names.
    fn median_of(runs: &[Metrics]) -> Metrics {
        let Some(first) = runs.first() else {
            return Metrics::default();
        };
        let mut out = Metrics::default();
        for (i, (name, _, unit)) in first.0.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|m| m.0[i].1).collect();
            out.put(name.clone(), median(&values), unit);
        }
        out
    }
}

/// What one workload run reports back to `main`.
struct Outcome {
    scale: f64,
    /// Digest of the checked output (rendered report or response stream).
    digest: u64,
    attempted: u64,
    failed: u64,
    /// Every output check passed.
    correct: bool,
    /// Median wall time of the workload's main measured operation; the
    /// traced and untraced values give the tracing overhead.
    primary_s: f64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    metrics: Metrics,
    /// The same measurements under the names used in the docs (`study_s`,
    /// `staged_s`, ...), printed alongside the result for readers.
    info: Metrics,
}

/// Median of `v` (0 for an empty slice).
fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `v` (0 when empty).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Run `op` repeatedly until `seconds` of wall time have passed, and at
/// least `min` times, probing the host speed after every rep. (Not
/// before: in the first half second or so of a process, the guest
/// scheduler often runs freshly spawned threads on one core, which would
/// read as a host twice as slow.)
fn repeat<T>(
    seconds: f64,
    min: usize,
    speed: &mut Speed,
    mut op: impl FnMut(&mut Speed) -> T,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(op(speed));
        speed.probe();
    }
    out
}

/// Set up `n` times, dropping each result before the next, and return the
/// last result with the wall seconds of every set-up. Workloads set up
/// once before the measured loop, as a user does, and again before every
/// rep, so that `setup_s` is a median over the whole window and not over
/// one moment of it.
fn set_up<T>(n: usize, mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut last = None;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        drop(last.take());
        let (dt, made) = timed(&mut make);
        times.push(dt);
        last = Some(made);
    }
    (last.expect("at least one set-up"), times)
}

/// Wall seconds of one call of `op`, with its result.
fn timed<T>(op: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = op();
    (t.elapsed().as_secs_f64(), out)
}

fn parse_args(traced: bool) -> Result<Opts, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        workers: nproc,
        nproc,
        tiny: false,
        traced,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--workers" => opts.workers = value.parse().map_err(|_| bad())?,
            "--size" => match value.as_str() {
                "full" => opts.tiny = false,
                "tiny" => opts.tiny = true,
                _ => return Err(format!("--size is full or tiny, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workers == 0 || opts.workers > nproc {
        return Err(format!(
            "refusing workers = {}: this host has {nproc} cores, and load must not \
             run more threads than cores",
            opts.workers
        ));
    }
    Ok(opts)
}

/// Entry point of both binaries.
pub fn main(traced: bool) -> ExitCode {
    let opts = match parse_args(traced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if traced {
        instr::counting_on();
    }
    let outcome = match opts.workload.as_str() {
        "study" => study::run(&opts),
        "recover" => recover::run(&opts),
        "serve" => serve::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (study, recover, serve)");
            return ExitCode::from(2);
        }
    };
    println!("{}", render(&opts, &outcome));
    ExitCode::SUCCESS
}

fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

fn metrics_json(m: &Metrics) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*value)
        );
    }
    s.push('}');
    s
}

fn render(o: &Opts, out: &Outcome) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"scale\":{},\"workers\":{},\"nproc\":{},\
         \"profile\":\"{}\",\"traced\":{},\"digest\":\"{:016x}\",\"correct\":{},\
         \"attempted\":{},\"failed\":{},\"primary_s\":{},\"metrics\":{},\"info\":{}}}",
        o.workload,
        o.seed,
        num(out.scale),
        o.workers,
        o.nproc,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        o.traced,
        out.digest,
        out.correct,
        out.attempted,
        out.failed,
        num(out.primary_s),
        metrics_json(&out.metrics),
        metrics_json(&out.info),
    )
}
