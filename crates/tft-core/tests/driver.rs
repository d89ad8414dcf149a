//! `run_study_with` is a `StudyDriver` run to completion, which runs the
//! four experiments as one combined wave. Stepping the driver one stage at
//! a time runs one wave per experiment instead, and must reproduce the
//! combined wave byte-for-byte, at any worker count, including the
//! world-side effects (billing, server logs).

use substrate::pool::{FaultInjector, FaultPolicy};
use tft_core::report::figures::figure5;
use tft_core::{dns_exp, http_exp, https_exp, monitor_exp};
use tft_core::{
    render_annex, render_tables, run_study_with, ExecOptions, StudyConfig, StudyDriver, StudyStage,
};
use worldgen::{build, smoke_spec};

const SEED: u64 = 0x5E4E;

fn monolithic(workers: usize) -> (String, usize, u64, usize) {
    let mut built = build(&smoke_spec(SEED));
    let cfg = smoke_cfg();
    let report = run_study_with(&mut built.world, &cfg, &ExecOptions::with_workers(workers));
    (
        render_tables(&report),
        report.unique_nodes(),
        built.world.bytes_billed(&cfg.customer),
        built.world.web_server().log().len(),
    )
}

fn smoke_cfg() -> StudyConfig {
    StudyConfig {
        min_nodes_per_country: 5,
        min_nodes_per_dns_server: 3,
        ..StudyConfig::default()
    }
}

#[test]
fn driver_visits_every_stage_in_order() {
    let built = build(&smoke_spec(SEED));
    let mut driver = StudyDriver::new(built.world, smoke_cfg(), &ExecOptions::with_workers(2));
    assert!(!driver.is_done());
    assert!(driver.report().is_none());
    let mut visited = Vec::new();
    while !driver.is_done() {
        assert_eq!(driver.next_stage(), {
            let s = driver.step();
            visited.push(s);
            s
        });
    }
    assert_eq!(
        visited,
        [
            StudyStage::Dns,
            StudyStage::Http,
            StudyStage::Https,
            StudyStage::Monitor,
            StudyStage::Analyze,
        ]
    );
    // A step past Done is a no-op, not a panic.
    assert_eq!(driver.step(), StudyStage::Done);
    assert!(driver.report().is_some());
}

#[test]
fn driver_matches_run_study_with_exactly() {
    for workers in [1, 4] {
        let built = build(&smoke_spec(SEED));
        let cfg = smoke_cfg();
        let mut driver = StudyDriver::new(
            built.world,
            cfg.clone(),
            &ExecOptions::with_workers(workers),
        );
        while !driver.is_done() {
            driver.step();
        }
        let (report, world) = driver.into_parts();
        let stepped = (
            render_tables(&report),
            report.unique_nodes(),
            world.bytes_billed(&cfg.customer),
            world.web_server().log().len(),
        );
        assert_eq!(
            stepped,
            monolithic(workers),
            "single-stage waves diverged from the combined wave at workers={workers}"
        );
    }
}

#[test]
#[should_panic(expected = "before the study completed")]
fn into_parts_before_completion_panics() {
    let built = build(&smoke_spec(SEED));
    let driver = StudyDriver::new(built.world, smoke_cfg(), &ExecOptions::with_workers(1));
    let _ = driver.into_parts();
}

#[test]
#[should_panic(expected = "poisoned after 0 retries: Dns shard 0 (task 0)")]
fn a_shard_that_keeps_panicking_aborts_the_study_naming_it() {
    let built = build(&smoke_spec(SEED));
    let mut driver = StudyDriver::new(built.world, smoke_cfg(), &ExecOptions::with_workers(2));
    driver.set_fault_policy(
        FaultPolicy::retries(0).with_injector(FaultInjector::seeded(SEED, 1000, 1)),
    );
    driver.step();
}

/// The rendered smoke study at `SEED` — tables, annex and the Figure 5
/// delay plot — pinned. A refactor of the execution path must leave it
/// alone; a change that alters study output on purpose re-pins it and
/// says why.
#[test]
fn smoke_report_digest_is_pinned() {
    let mut built = build(&smoke_spec(SEED));
    let cfg = smoke_cfg();
    let report = run_study_with(&mut built.world, &cfg, &ExecOptions::with_workers(2));
    let rendered = format!(
        "{}{}{}",
        render_tables(&report),
        render_annex(&report, &cfg),
        figure5(&report.monitor)
    );
    assert_eq!(
        format!("{:#018x}", substrate::stable64(rendered.as_bytes())),
        "0x297e7576af3e237c"
    );
}

/// A direct `*_exp::run` is a one-experiment wave forked from the same
/// study-start world as the study's stage, so each returns that stage's
/// dataset byte for byte.
#[test]
fn a_direct_run_equals_the_study_stage() {
    let cfg = smoke_cfg();
    let fresh = || build(&smoke_spec(SEED)).world;
    let report = run_study_with(&mut fresh(), &cfg, &ExecOptions::with_workers(2));
    assert_eq!(
        format!("{:?}", dns_exp::run(&mut fresh(), &cfg)),
        format!("{:?}", report.dns_data),
        "DNS"
    );
    assert_eq!(
        format!("{:?}", http_exp::run(&mut fresh(), &cfg)),
        format!("{:?}", report.http_data),
        "HTTP"
    );
    assert_eq!(
        format!("{:?}", https_exp::run(&mut fresh(), &cfg)),
        format!("{:?}", report.https_data),
        "HTTPS"
    );
    assert_eq!(
        format!("{:?}", monitor_exp::run(&mut fresh(), &cfg)),
        format!("{:?}", report.monitor_data),
        "monitor"
    );
}
