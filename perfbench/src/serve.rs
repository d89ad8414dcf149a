//! `serve`: an open-loop trace of `POST /studies` and `GET /studies/{id}`
//! requests, on virtual time, fed to `tft_serve::Gateway::handle` as fast
//! as the gateway answers. Two hot smoke-sized specs take ~95% of POSTs
//! and a few cold specs the rest, at the gateway's default queue depth and
//! cache capacities, so the cache-hit path (HTTP parsing, spec JSON parsing
//! and validation, `StudyKey` hashing, seal verification, response
//! encoding) does most of the work.
//!
//! The trace is generated here from the seed (not by `tft_serve::loadgen`,
//! which is program code). Clients follow `429 Retry-After` up to three
//! attempts and poll an accepted study twice before a final drain fetches
//! every executed study's body.

use crate::layers::{self, Profile};
use crate::{instr, median, percentile, repeat, set_up, timed, Metrics, Opts, Outcome, Speed};
use netsim::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::time::Instant;
use substrate::Hasher64;
use tft_core::StudyConfig;
use tft_serve::{Gateway, GatewayConfig, GatewayStats, StudyKey};
use worldgen::{smoke_spec, WorldSpec};

const HOT_SPECS: usize = 2;
const COLD_SPECS: usize = 2;
const HOT_FRACTION: f64 = 0.95;
const CLIENTS: usize = 50_000;
const TINY_CLIENTS: usize = 300;
/// Virtual window the arrivals spread over.
const WINDOW_MS: u64 = 600_000;
/// Poll offsets after a `202`, virtual ms.
const POLLS_MS: [u64; 2] = [1_200, 3_600];
const MAX_ATTEMPTS: u8 = 3;
/// Request builds (each with a gateway construction) timed for `setup_s`
/// before the loop and before each rep.
const SETUP_REPS: usize = 300;
const MIN_REPS: usize = 2;
/// Requests between host speed samples inside a replay.
const PROBE_EVERY: u64 = 10_000;

/// splitmix64: the benchmark's own generator, so the trace does not move
/// when the program's RNG does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Post { spec: usize, attempt: u8 },
    Get { spec: usize },
}

/// The specs of one trace and their request bytes. Building them renders
/// and hashes spec JSON through the program, so it is timed as set-up.
struct Requests {
    specs: Vec<WorldSpec>,
    posts: Vec<Vec<u8>>,
    gets: Vec<Vec<u8>>,
}

fn requests(seed: u64) -> Requests {
    let mut rng = Rng(seed);
    let specs: Vec<WorldSpec> = (0..HOT_SPECS + COLD_SPECS)
        .map(|_| smoke_spec(rng.next()))
        .collect();
    let posts = specs
        .iter()
        .map(|s| {
            let body = worldgen::to_json(s).expect("smoke specs render");
            let mut wire = format!(
                "POST /studies HTTP/1.1\r\nHost: gateway\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            wire.extend_from_slice(body.as_bytes());
            wire
        })
        .collect();
    let gets = specs
        .iter()
        .map(|s| {
            let id = StudyKey::for_spec(s).study_id();
            format!("GET /studies/{id} HTTP/1.1\r\nHost: gateway\r\n\r\n").into_bytes()
        })
        .collect();
    Requests { specs, posts, gets }
}

/// The clients' arrivals `(virtual ms, spec)`. Pure arithmetic of the
/// benchmark's own generator, which no change to the program can move, so
/// it is made once and not timed: as set-up it only added noise.
fn arrivals(seed: u64, clients: usize) -> Vec<(u64, usize)> {
    let mut rng = Rng(!seed);
    (0..clients)
        .map(|_| {
            let at = rng.below(WINDOW_MS);
            let spec = if rng.chance(HOT_FRACTION) {
                rng.below(HOT_SPECS as u64) as usize
            } else {
                HOT_SPECS + rng.below(COLD_SPECS as u64) as usize
            };
            (at, spec)
        })
        .collect()
}

fn gateway(workers: usize) -> Gateway {
    Gateway::new(GatewayConfig {
        workers,
        ..GatewayConfig::default()
    })
}

fn status(raw: &[u8]) -> u16 {
    std::str::from_utf8(raw.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Value of response header `name` (exact case, as the gateway sets it).
fn header<'a>(raw: &'a [u8], name: &str) -> Option<&'a str> {
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    std::str::from_utf8(&raw[..end])
        .ok()?
        .split("\r\n")
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(": "))
}

/// What one replay of the trace against a fresh gateway measured.
pub struct Replay {
    digest: u64,
    requests: u64,
    failed: u64,
    wall_s: f64,
    hit_us: Vec<f64>,
    admit_us: Vec<f64>,
    poll_us: Vec<f64>,
    /// Calls that ran real study work (traced runs only).
    exec_ms: f64,
    /// Specs the gateway admitted as new studies, i.e. executed.
    executed: BTreeSet<usize>,
    hit_rate: f64,
    stats: GatewayStats,
}

fn replay(
    trace: &Requests,
    arrivals: &[(u64, usize)],
    mut gw: Gateway,
    traced: bool,
    speed: &mut Speed,
) -> Replay {
    let mut queue: BinaryHeap<Reverse<(u64, u64, Kind)>> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &(at, spec))| Reverse((at, i as u64, Kind::Post { spec, attempt: 1 })))
        .collect();
    let mut seq = arrivals.len() as u64;
    let mut digest = Hasher64::new();
    let mut r = Replay {
        digest: 0,
        requests: 0,
        failed: 0,
        wall_s: 0.0,
        hit_us: Vec::new(),
        admit_us: Vec::new(),
        poll_us: Vec::new(),
        exec_ms: 0.0,
        executed: BTreeSet::new(),
        hit_rate: 0.0,
        stats: GatewayStats::default(),
    };
    let mut last_ms = 0;
    let start = Instant::now();
    let mut call = |gw: &mut Gateway, wire: &[u8], at: u64, r: &mut Replay| {
        let before = traced.then(|| (instr::pool_runs(), gw.stats()));
        let t = Instant::now();
        let raw = gw.handle(wire, SimTime::from_millis(at));
        let us = t.elapsed().as_secs_f64() * 1e6;
        r.requests += 1;
        digest.update(&(raw.len() as u64).to_le_bytes());
        digest.update(&raw);
        let ran_stages = before.is_some_and(|(runs, s)| {
            let now = gw.stats();
            instr::pool_runs() != runs
                || now.worlds_built != s.worlds_built
                || now.studies_executed != s.studies_executed
        });
        if ran_stages {
            r.exec_ms += us / 1e3;
        }
        (raw, us, ran_stages)
    };
    // Host speed samples inside the replay, outside its wall time: one
    // replay is long enough for the host to change speed within it.
    let mut probe_s = 0.0;
    while let Some(Reverse((at, _, kind))) = queue.pop() {
        if r.requests % PROBE_EVERY == PROBE_EVERY / 2 {
            probe_s += speed.sample();
        }
        last_ms = at;
        match kind {
            Kind::Post { spec, attempt } => {
                let (raw, us, ran) = call(&mut gw, &trace.posts[spec], at, &mut r);
                match status(&raw) {
                    200 if header(&raw, "X-Cache") == Some("hit") => {
                        if !ran {
                            r.hit_us.push(us);
                        }
                    }
                    202 => {
                        if !ran {
                            r.admit_us.push(us);
                        }
                        if header(&raw, "X-Cache") == Some("miss") {
                            r.executed.insert(spec);
                        }
                        for off in POLLS_MS {
                            queue.push(Reverse((at + off, seq, Kind::Get { spec })));
                            seq += 1;
                        }
                    }
                    429 if attempt < MAX_ATTEMPTS => {
                        let secs: u64 = header(&raw, "Retry-After")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(1);
                        let retry = Kind::Post {
                            spec,
                            attempt: attempt + 1,
                        };
                        queue.push(Reverse((at + secs * 1_000, seq, retry)));
                        seq += 1;
                    }
                    _ => r.failed += 1,
                }
            }
            Kind::Get { spec } => {
                let (raw, us, ran) = call(&mut gw, &trace.gets[spec], at, &mut r);
                if !ran {
                    r.poll_us.push(us);
                }
                if status(&raw) != 200 {
                    r.failed += 1;
                }
            }
        }
    }
    // Drain: past the backlog, every executed study's complete body.
    let drain_ms = last_ms.max(gw.busy_until().as_millis()) + 1_000;
    for &spec in &r.executed.clone() {
        let (raw, _, _) = call(&mut gw, &trace.gets[spec], drain_ms, &mut r);
        if status(&raw) != 200 || header(&raw, "X-Study-Complete") != Some("true") {
            r.failed += 1;
        }
    }
    r.wall_s = start.elapsed().as_secs_f64() - probe_s;
    r.digest = digest.finish();

    eprintln!(
        "serve: {} requests in {:.3} s, hit p50 {:.1} us",
        r.requests,
        r.wall_s,
        percentile(&r.hit_us, 0.5)
    );
    r.stats = gw.stats();
    r.hit_rate = gw.cache_stats().1.hit_rate();
    r
}

/// The gateway layer's per-layer metrics for one replay; all zero for a
/// workload that never calls the gateway.
pub fn gateway_layer(r: Option<&Replay>) -> Metrics {
    let mut m = Metrics::default();
    let empty = Vec::new();
    for (class, v) in [
        ("hit", r.map_or(&empty, |r| &r.hit_us)),
        ("admit", r.map_or(&empty, |r| &r.admit_us)),
        ("poll", r.map_or(&empty, |r| &r.poll_us)),
    ] {
        m.put(format!("gateway.{class}_us_p50"), percentile(v, 0.5), "us");
        m.put(format!("gateway.{class}_us_p99"), percentile(v, 0.99), "us");
    }
    let stats = r.map_or(GatewayStats::default(), |r| r.stats);
    m.put("gateway.exec_call_ms", r.map_or(0.0, |r| r.exec_ms), "ms");
    m.put("gateway.hit_rate", r.map_or(0.0, |r| r.hit_rate), "ratio");
    m.put(
        "gateway.studies_executed",
        stats.studies_executed as f64,
        "count",
    );
    m.put("gateway.worlds_built", stats.worlds_built as f64, "count");
    m.put("gateway.rejected", stats.rejected as f64, "count");
    m
}

pub fn run(o: &Opts) -> Outcome {
    let clients = if o.tiny { TINY_CLIENTS } else { CLIENTS };
    let mut speed = Speed::new();
    let make = || (requests(o.seed), gateway(o.workers));
    let ((trace, _), mut setups) = set_up(SETUP_REPS, make);
    let arrivals = arrivals(o.seed, clients);
    let reps = repeat(o.seconds, MIN_REPS, &mut speed, |speed| {
        setups.extend(set_up(SETUP_REPS, make).1);
        replay(&trace, &arrivals, gateway(o.workers), o.traced, speed)
    });
    let setup_s = median(&setups);
    let digest = reps[0].digest;
    let mismatches = reps.iter().filter(|r| r.digest != digest).count() as u64;
    let attempted: u64 = reps.iter().map(|r| r.requests).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum::<u64>() + mismatches;
    let wall_s = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let rps = reps[0].requests as f64 / wall_s;
    let hit_p50_us = median(
        &reps
            .iter()
            .map(|r| percentile(&r.hit_us, 0.5))
            .collect::<Vec<_>>(),
    );

    let metrics = if o.traced {
        // The studies the gateway executed, re-run from outside with every
        // layer timed: the work inside `gateway.exec_call_ms`.
        let mut profile = Profile::default();
        for &i in &reps[0].executed {
            let spec = &trace.specs[i];
            let cfg = StudyConfig::scaled(spec.scale);
            let (build_s, world) = timed(|| worldgen::build(spec).world);
            let staged = layers::run_staged(world, spec, &cfg, o.workers, true);
            profile.add(&Profile::of(&staged, &cfg, build_s));
        }
        let gateway = Metrics::median_of(
            &reps
                .iter()
                .map(|r| gateway_layer(Some(r)))
                .collect::<Vec<_>>(),
        );
        layers::per_layer(&profile, o.workers, None, Some(&gateway))
    } else {
        let f = speed.factor();
        let mut m = Metrics::default();
        m.put("setup_s", setup_s * f, "s");
        m.put("throughput_per_s", rps / f, "1/s");
        m.put("latency_ms", hit_p50_us * f / 1e3, "ms");
        m.put("peak_rss_mb", instr::peak_rss_mb(), "MiB");
        m
    };
    let mut info = Metrics::default();
    info.put("setup_s", setup_s, "s");
    info.put("serve_rps", rps, "1/s");
    info.put("serve_hit_p50_us", hit_p50_us, "us");
    info.put("requests", reps[0].requests as f64, "count");
    info.put("studies_executed", reps[0].executed.len() as f64, "count");
    info.put("reps", reps.len() as f64, "count");
    speed.stamp(&mut info);
    // Share of a replay's wall time inside calls that ran study work; the
    // rest is the request path (traced runs only, 0 otherwise).
    info.put(
        "exec_share",
        median(
            &reps
                .iter()
                .map(|r| r.exec_ms / 1e3 / r.wall_s)
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );
    Outcome {
        scale: 1.0,
        digest,
        attempted,
        failed,
        correct: mismatches == 0,
        primary_s: wall_s,
        metrics,
        info,
    }
}
