//! `study`: the `repro` user's path. Build the calibrated paper world, run
//! the batch study (`run_study_with`), render every table and the annex.
//! The experiment stages do almost all the work; checkpointing and the
//! gateway do none.

use crate::layers::{self, Profile, Staged};
use crate::{median, repeat, set_up, timed, Metrics, Opts, Outcome, Speed};
use substrate::hash::stable64;
use tft_core::{run_study_with, ExecOptions, StudyConfig};
use worldgen::paper_spec;

const SCALE: f64 = 0.05;
const TINY_SCALE: f64 = 0.004;
/// World builds timed for `setup_s` before the loop and before each rep.
const SETUP_REPS: usize = 5;
/// Batch studies measured at least, whatever the window.
const MIN_REPS: usize = 2;

pub fn run(o: &Opts) -> Outcome {
    let scale = if o.tiny { TINY_SCALE } else { SCALE };
    let spec = paper_spec(scale, o.seed);
    let cfg = StudyConfig::scaled(scale);
    let exec = ExecOptions::with_workers(o.workers);
    let build = || worldgen::build(&spec).world;
    let mut speed = Speed::new();
    let (_, mut setups) = set_up(SETUP_REPS, build);

    let mut probes = 0;
    let reps = repeat(o.seconds, MIN_REPS, &mut speed, |_| {
        setups.extend(set_up(SETUP_REPS, build).1);
        // A fresh world per rep, as `repro` studies a freshly built one.
        let mut world = build();
        let (dt, (report, text)) = timed(|| {
            let report = run_study_with(&mut world, &cfg, &exec);
            let text = layers::render(&report, &cfg);
            (report, text)
        });
        probes = layers::probes(&report);
        eprintln!("study: batch study + render {dt:.3} s");
        (dt, stable64(text.as_bytes()))
    });
    let walls: Vec<f64> = reps.iter().map(|r| r.0).collect();
    let digest = reps[0].1;
    let study_s = median(&walls);
    let setup_s = median(&setups);

    // Driver ≡ batch: the same study stepped stage by stage must render the
    // same bytes. The traced binary takes its per-stage profile from it.
    let staged: Staged = layers::run_staged(build(), &spec, &cfg, o.workers, false);
    let mismatches =
        reps.iter().filter(|r| r.1 != digest).count() + usize::from(staged.digest(&cfg) != digest);

    let metrics = if o.traced {
        layers::per_layer(&Profile::of(&staged, &cfg, setup_s), o.workers, None, None)
    } else {
        let f = speed.factor();
        let mut m = Metrics::default();
        m.put("setup_s", setup_s * f, "s");
        m.put("throughput_per_s", probes as f64 / (study_s * f), "1/s");
        m.put("latency_ms", study_s * f * 1e3, "ms");
        m.put("peak_rss_mb", crate::instr::peak_rss_mb(), "MiB");
        m
    };
    let mut info = Metrics::default();
    info.put("setup_s", setup_s, "s");
    info.put("study_s", study_s, "s");
    info.put("driver_s", staged.wall_s, "s");
    info.put("probes", probes as f64, "count");
    info.put("reps", reps.len() as f64, "count");
    speed.stamp(&mut info);
    Outcome {
        scale,
        digest,
        attempted: reps.len() as u64 + 1,
        failed: mismatches as u64,
        correct: mismatches == 0,
        primary_s: study_s,
        metrics,
        info,
    }
}
