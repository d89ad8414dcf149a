//! Host speed probe.
//!
//! On the shared 2-core VM this benchmark was tuned on, the same binary
//! ran 15–30% slower or faster for minutes at a time. `/proc/stat` showed
//! almost no steal time, and the process CPU time rose with the wall time,
//! so the cores themselves were slower (another tenant on the same
//! physical cores). More reps cannot remove a shift that outlasts a run.
//! So after every measured rep, the benchmark times a fixed probe (see
//! [`Speed`]) and reports its end-to-end times scaled by
//! `REFERENCE_S / median probe time` (and its rates by the inverse). The
//! probe is the benchmark's own code and calls nothing in the program, so
//! a change to the program moves the scaled figures exactly as it moves
//! the raw ones. It corrects only slowdowns that hit the probe and the
//! program alike.

use crate::{median, Metrics};
use std::hint::black_box;
use std::time::Instant;

/// Median probe time on the tuning host (2 vCPUs of a shared Xeon VM).
/// Times scaled by [`Speed::factor`] read as if measured at this speed.
pub const REFERENCE_S: f64 = 0.06;
/// Probes per call of [`Speed::probe`]: one probe is noisy, and a run's
/// median needs a few dozen.
const SAMPLES: usize = 4;
/// Dependent multiply-xorshift rounds of the arithmetic kernel.
const ROUNDS: u64 = 4_000_000;
/// Slots of the pointer-chasing ring: 8 MiB of `u32`, larger than the
/// last-level cache share a core gets.
const RING: usize = 1 << 21;
/// Dependent loads of the pointer-chasing kernel.
const HOPS: usize = 200_000;
/// Keys sorted by the branchy kernel, and how many times.
const SORT_LEN: u64 = 200_000;
const SORTS: u64 = 4;

/// The probe times of one run.
///
/// One probe runs three kernels on the calling thread, about equally long:
/// dependent arithmetic (core speed), pointer chasing over a ring larger
/// than the cache (memory latency), and sorting (branches and cache). The
/// program's hot paths are of the second and third kind, and a probe of
/// the first alone barely felt the slowdowns that moved them.
pub struct Speed {
    samples: Vec<f64>,
    ring: Vec<u32>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed {
            samples: Vec::new(),
            ring: ring(),
        }
    }

    /// Time [`SAMPLES`] probes.
    pub fn probe(&mut self) {
        for _ in 0..SAMPLES {
            self.sample();
        }
    }

    /// Time one probe, and return its wall seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        black_box(chain(black_box(1)));
        black_box(chase(&self.ring));
        black_box(sort());
        let dt = start.elapsed().as_secs_f64();
        self.samples.push(dt);
        dt
    }

    /// Median probe time of the run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Multiplier from a wall time measured in this run to the reference
    /// host speed (divide a rate by it).
    pub fn factor(&self) -> f64 {
        assert!(!self.samples.is_empty(), "the host speed was probed");
        REFERENCE_S / self.median_s()
    }

    /// Record the probe in a run's stamp, beside the raw wall times.
    pub fn stamp(&self, info: &mut Metrics) {
        info.put("speed_probe_s", self.median_s(), "s");
        info.put("speed_factor", self.factor(), "ratio");
    }
}

/// splitmix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`mix`] chained on itself: every round depends on the previous one.
fn chain(seed: u64) -> u64 {
    let mut z = seed;
    for i in 0..ROUNDS {
        z = mix(z ^ i);
    }
    z
}

/// One random cycle through all [`RING`] slots (Sattolo's shuffle), so a
/// chase never settles into a short loop that fits in the cache.
fn ring() -> Vec<u32> {
    let mut v: Vec<u32> = (0..RING as u32).collect();
    for i in (1..RING).rev() {
        let j = (mix(i as u64) % i as u64) as usize;
        v.swap(i, j);
    }
    v
}

fn chase(ring: &[u32]) -> u32 {
    let mut at = 0;
    for _ in 0..HOPS {
        at = ring[at as usize];
    }
    at
}

fn sort() -> u32 {
    let mut acc = 0;
    for round in 0..SORTS {
        let mut keys: Vec<u32> = (0..SORT_LEN).map(|i| mix(i ^ round << 32) as u32).collect();
        keys.sort_unstable();
        acc ^= keys[keys.len() / 2];
    }
    acc
}
