//! Per-layer measurement shared by the workloads: a study stepped through
//! `StudyDriver` with every stage (and optionally every stage-boundary
//! checkpoint) timed from outside, and the assembly of the full per-layer
//! metric list.
//!
//! Every workload emits every per-layer metric. A layer the workload does
//! not run reports 0: checkpointing and restore on `study`, the gateway on
//! `study` and `recover`, restore on `serve`. Those zeros are the
//! prediction "this workload bypasses that layer", not missing data.

use crate::{instr, median, timed, Metrics};
use proxynet::World;
use substrate::hash::stable64;
use tft_core::analysis;
use tft_core::{
    render_annex, render_tables, ExecOptions, StudyConfig, StudyDriver, StudyReport, StudyStage,
};
use worldgen::WorldSpec;

/// The four experiment stages, in driver order, with their metric labels.
pub const STAGES: [(StudyStage, &str); 4] = [
    (StudyStage::Dns, "dns"),
    (StudyStage::Http, "http"),
    (StudyStage::Https, "https"),
    (StudyStage::Monitor, "monitor"),
];

/// The user-visible output of a study: every table plus the annex.
pub fn render(report: &StudyReport, cfg: &StudyConfig) -> String {
    let mut out = render_tables(report);
    out.push_str(&render_annex(report, cfg));
    out
}

/// Probes issued by all four experiments.
pub fn probes(report: &StudyReport) -> usize {
    report.dns_data.samples_issued
        + report.http_data.samples_issued
        + report.https_data.samples_issued
        + report.monitor_data.samples_issued
}

/// Cost of one experiment stage as seen from outside `StudyDriver::step`.
#[derive(Default, Clone, Copy)]
struct Stage {
    wall_s: f64,
    cpu_s: f64,
    allocs: u64,
    probes: usize,
    quarantined: usize,
    observations: usize,
}

/// One study driven stage by stage.
pub struct Staged {
    pub report: StudyReport,
    pub world: World,
    /// Wall seconds of every step and every checkpoint together.
    pub wall_s: f64,
    /// The post-Monitor checkpoint, when checkpoints were sealed.
    pub last_checkpoint: Option<String>,
    stages: [Stage; 4],
    /// Seconds and bytes of the checkpoint sealed after each stage.
    checkpoints: [(f64, usize); 4],
}

/// Drive a study over `world` one `StudyDriver::step` at a time. With
/// `seal`, serialise a checkpoint after every experiment stage, as the
/// gateway does.
pub fn run_staged(
    world: World,
    spec: &WorldSpec,
    cfg: &StudyConfig,
    workers: usize,
    seal: bool,
) -> Staged {
    let mut stages = [Stage::default(); 4];
    let mut checkpoints = [(0.0, 0); 4];
    let mut last_checkpoint = None;
    let (wall_s, driver) = timed(|| {
        let mut driver = StudyDriver::new(world, cfg.clone(), &ExecOptions::with_workers(workers));
        for (i, (stage, _)) in STAGES.iter().enumerate() {
            let (cpu0, allocs0) = (instr::cpu_s(), instr::alloc_events());
            let (dt, ran) = timed(|| driver.step());
            assert_eq!(ran, *stage, "driver stages run in order");
            stages[i].wall_s = dt;
            stages[i].cpu_s = instr::cpu_s() - cpu0;
            stages[i].allocs = instr::alloc_events() - allocs0;
            if seal {
                let (dt, json) = timed(|| {
                    driver
                        .checkpoint(spec)
                        .expect("a stage boundary before Done checkpoints")
                        .to_canonical_json()
                });
                checkpoints[i] = (dt, json.len());
                last_checkpoint = Some(json);
            }
        }
        driver.run_to_completion();
        driver
    });
    let (report, world) = driver.into_parts();
    let datasets = [
        (
            &report.dns_data.quality,
            report.dns_data.samples_issued,
            report.dns_data.observations.len(),
        ),
        (
            &report.http_data.quality,
            report.http_data.samples_issued,
            report.http_data.observations.len(),
        ),
        (
            &report.https_data.quality,
            report.https_data.samples_issued,
            report.https_data.observations.len(),
        ),
        (
            &report.monitor_data.quality,
            report.monitor_data.samples_issued,
            report.monitor_data.observations.len(),
        ),
    ];
    for (stage, (quality, issued, observations)) in stages.iter_mut().zip(datasets) {
        stage.probes = issued;
        stage.quarantined = quality.totals().in_quarantine();
        stage.observations = observations;
    }
    Staged {
        report,
        world,
        wall_s,
        last_checkpoint,
        stages,
        checkpoints,
    }
}

impl Staged {
    /// Share of `wall_s` spent inside the timed steps and checkpoints; the
    /// rest is the Analyze step and the timing itself.
    pub fn parts_frac(&self) -> f64 {
        let steps: f64 = self.stages.iter().map(|s| s.wall_s).sum();
        let checkpoints: f64 = self.checkpoints.iter().map(|c| c.0).sum();
        (steps + checkpoints) / self.wall_s
    }

    /// Digest of the rendered report.
    pub fn digest(&self, cfg: &StudyConfig) -> u64 {
        stable64(render(&self.report, cfg).as_bytes())
    }
}

/// Per-layer costs of one or more studies (sums when several).
#[derive(Default, Clone)]
pub struct Profile {
    build_s: f64,
    stages: [Stage; 4],
    analysis_s: [f64; 4],
    render_s: f64,
    checkpoints: [(f64, usize); 4],
}

impl Profile {
    /// Profile a finished staged study: its stage costs, plus timed calls
    /// of each `analysis::*::analyze` over the merged datasets and of the
    /// report rendering (medians of a few calls each).
    pub fn of(staged: &Staged, cfg: &StudyConfig, build_s: f64) -> Profile {
        let (r, w) = (&staged.report, &staged.world);
        let time3 = |f: &dyn Fn()| median(&[timed(f).0, timed(f).0, timed(f).0]);
        let analysis_s = [
            time3(&|| drop(analysis::dns::analyze(&r.dns_data, w, cfg))),
            time3(&|| drop(analysis::http::analyze(&r.http_data, w, cfg))),
            time3(&|| drop(analysis::https::analyze(&r.https_data, w, cfg))),
            time3(&|| drop(analysis::monitor::analyze(&r.monitor_data, w, cfg))),
        ];
        let render_s = time3(&|| drop(render(r, cfg)));
        Profile {
            build_s,
            stages: staged.stages,
            analysis_s,
            render_s,
            checkpoints: staged.checkpoints,
        }
    }

    /// Accumulate another study's costs (the serve workload's executions).
    pub fn add(&mut self, other: &Profile) {
        self.build_s += other.build_s;
        self.render_s += other.render_s;
        for i in 0..4 {
            let (a, b) = (&mut self.stages[i], other.stages[i]);
            a.wall_s += b.wall_s;
            a.cpu_s += b.cpu_s;
            a.allocs += b.allocs;
            a.probes += b.probes;
            a.quarantined += b.quarantined;
            a.observations += b.observations;
            self.analysis_s[i] += other.analysis_s[i];
            self.checkpoints[i].0 += other.checkpoints[i].0;
            self.checkpoints[i].1 += other.checkpoints[i].1;
        }
    }
}

/// Restore costs of one recovery.
#[derive(Default, Clone, Copy)]
pub struct Restore {
    pub parse_s: f64,
    pub rebuild_s: f64,
    pub resume_s: f64,
}

impl Restore {
    /// Parse, restore and resume: the time to recover.
    pub fn total_s(&self) -> f64 {
        self.parse_s + self.rebuild_s + self.resume_s
    }
}

/// The complete per-layer metric list, in a fixed order, with zeros for
/// the layers this workload bypasses.
pub fn per_layer(
    p: &Profile,
    workers: usize,
    restore: Option<Restore>,
    gateway: Option<&Metrics>,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("worldgen.build_s", p.build_s, "s");
    for (i, (_, label)) in STAGES.iter().enumerate() {
        let s = p.stages[i];
        let per_probe = |v: f64| {
            if s.probes == 0 {
                0.0
            } else {
                v / s.probes as f64
            }
        };
        m.put(format!("exec.{label}_s"), s.wall_s, "s");
        m.put(
            format!("exec.{label}_us_per_probe"),
            per_probe(s.wall_s * 1e6),
            "us",
        );
        m.put(
            format!("exec.{label}_cpu_util"),
            s.cpu_s / (s.wall_s * workers as f64),
            "ratio",
        );
        m.put(format!("exec.{label}_probes"), s.probes as f64, "count");
        m.put(
            format!("exec.{label}_quarantined"),
            s.quarantined as f64,
            "count",
        );
        m.put(
            format!("exec.{label}_useful_ratio"),
            per_probe(s.observations as f64),
            "ratio",
        );
        m.put(
            format!("alloc.{label}_per_probe"),
            per_probe(s.allocs as f64),
            "alloc/probe",
        );
        m.put(format!("analysis.{label}_s"), p.analysis_s[i], "s");
        m.put(format!("checkpoint.{label}_s"), p.checkpoints[i].0, "s");
        m.put(
            format!("checkpoint.{label}_bytes"),
            p.checkpoints[i].1 as f64,
            "bytes",
        );
    }
    m.put("report.render_s", p.render_s, "s");
    let r = restore.unwrap_or_default();
    m.put("restore.parse_s", r.parse_s, "s");
    m.put("restore.rebuild_s", r.rebuild_s, "s");
    m.put("restore.resume_s", r.resume_s, "s");
    let gateway = gateway
        .cloned()
        .unwrap_or_else(|| crate::serve::gateway_layer(None));
    m.0.extend(gateway.0);
    m
}
