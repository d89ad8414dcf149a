//! `recover`: the staged, checkpointed path the gateway uses, then a crash
//! recovery. The study is stepped through `StudyDriver::step` with a
//! canonical-JSON checkpoint sealed after every experiment stage; the
//! post-Monitor checkpoint is then parsed, restored and resumed to the
//! final report. Checkpoint serialisation and `substrate::json` dominate.

use crate::layers::{self, Profile, Restore};
use crate::{median, repeat, set_up, timed, Metrics, Opts, Outcome, Speed};
use tft_core::{ExecOptions, StudyCheckpoint, StudyConfig, StudyDriver};
use worldgen::paper_spec;

const SCALE: f64 = 0.01;
const TINY_SCALE: f64 = 0.002;
/// World builds timed for `setup_s` before the loop and before each rep.
const SETUP_REPS: usize = 20;
const MIN_REPS: usize = 2;
/// Recoveries from each staged run's last checkpoint.
const RECOVERIES: usize = 3;

struct Rep {
    staged_s: f64,
    /// Share of `staged_s` inside the timed steps and checkpoints.
    parts_frac: f64,
    /// One entry per recovery from the post-Monitor checkpoint.
    restores: Vec<Restore>,
    /// Every restored report rendered byte-identical to the uninterrupted
    /// one.
    identical: bool,
    digest: u64,
    probes: usize,
    layers: Option<Profile>,
}

pub fn run(o: &Opts) -> Outcome {
    let scale = if o.tiny { TINY_SCALE } else { SCALE };
    let spec = paper_spec(scale, o.seed);
    let cfg = StudyConfig::scaled(scale);
    let exec = ExecOptions::with_workers(o.workers);
    let build = || worldgen::build(&spec).world;
    let mut speed = Speed::new();
    let (_, mut setups) = set_up(SETUP_REPS, build);

    let reps = repeat(o.seconds, MIN_REPS, &mut speed, |speed| {
        setups.extend(set_up(SETUP_REPS, build).1);
        // The build time so far stands in for the profile's set-up.
        let setup_s = median(&setups);
        let staged = layers::run_staged(build(), &spec, &cfg, o.workers, true);
        let reference = layers::render(&staged.report, &cfg);
        let layers = o.traced.then(|| Profile::of(&staged, &cfg, setup_s));
        let probes = layers::probes(&staged.report);
        let staged_s = staged.wall_s;
        let parts_frac = staged.parts_frac();
        let json = staged.last_checkpoint.expect("checkpoints were sealed");
        drop((staged.report, staged.world));

        // Several recoveries from the one checkpoint: each is short, so
        // more samples of it steady `recover_s`.
        let mut restores = Vec::with_capacity(RECOVERIES);
        let mut identical = true;
        for _ in 0..RECOVERIES {
            let (parse_s, cp) = timed(|| StudyCheckpoint::from_json_str(&json));
            let cp = cp.expect("a sealed checkpoint parses");
            let (rebuild_s, driver) = timed(|| StudyDriver::restore(&cp, &exec));
            drop(cp);
            let mut driver = driver.expect("a sealed checkpoint restores");
            let (resume_s, ()) = timed(|| driver.run_to_completion());
            let (report, _world) = driver.into_parts();
            identical &= layers::render(&report, &cfg) == reference;
            eprintln!(
                "recover: staged {staged_s:.3} s, parse {parse_s:.3} s, rebuild {rebuild_s:.3} s, \
                 resume {resume_s:.3} s"
            );
            restores.push(Restore {
                parse_s,
                rebuild_s,
                resume_s,
            });
            // Host speed samples between the recoveries, too: they are
            // short, and the host can change speed within one rep.
            speed.sample();
        }
        Rep {
            staged_s,
            parts_frac,
            restores,
            identical,
            digest: substrate::hash::stable64(reference.as_bytes()),
            probes,
            layers,
        }
    });

    let setup_s = median(&setups);
    let staged_s = median(&reps.iter().map(|r| r.staged_s).collect::<Vec<_>>());
    let recover_s = median(
        &reps
            .iter()
            .flat_map(|r| &r.restores)
            .map(Restore::total_s)
            .collect::<Vec<_>>(),
    );
    let digest = reps[0].digest;
    let failed = reps
        .iter()
        .filter(|r| !r.identical || r.digest != digest)
        .count();
    let metrics = if o.traced {
        let runs: Vec<Metrics> = reps
            .iter()
            .map(|r| {
                let p = r.layers.as_ref().expect("traced reps are profiled");
                let median_of =
                    |f: fn(&Restore) -> f64| median(&r.restores.iter().map(f).collect::<Vec<_>>());
                let restore = Restore {
                    parse_s: median_of(|x| x.parse_s),
                    rebuild_s: median_of(|x| x.rebuild_s),
                    resume_s: median_of(|x| x.resume_s),
                };
                layers::per_layer(p, o.workers, Some(restore), None)
            })
            .collect();
        Metrics::median_of(&runs)
    } else {
        let f = speed.factor();
        let mut m = Metrics::default();
        m.put("setup_s", setup_s * f, "s");
        m.put(
            "throughput_per_s",
            reps[0].probes as f64 / (staged_s * f),
            "1/s",
        );
        m.put("latency_ms", recover_s * f * 1e3, "ms");
        m.put("peak_rss_mb", crate::instr::peak_rss_mb(), "MiB");
        m
    };
    let mut info = Metrics::default();
    info.put("setup_s", setup_s, "s");
    info.put("staged_s", staged_s, "s");
    info.put("recover_s", recover_s, "s");
    info.put(
        "staged_parts_frac",
        median(&reps.iter().map(|r| r.parts_frac).collect::<Vec<_>>()),
        "ratio",
    );
    info.put("probes", reps[0].probes as f64, "count");
    info.put("reps", reps.len() as f64, "count");
    speed.stamp(&mut info);
    Outcome {
        scale,
        digest,
        attempted: reps.len() as u64,
        failed: failed as u64,
        correct: failed == 0,
        primary_s: staged_s,
        metrics,
        info,
    }
}
