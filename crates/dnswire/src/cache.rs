//! A TTL-honoring resolver cache.
//!
//! Real recursive resolvers cache aggressively — which is exactly why the
//! paper generates a **unique domain name per probe**: a cached answer
//! would bypass the authoritative server and blind the measurement. This
//! cache makes that design constraint testable: wire it into a resolver
//! model and unique names always miss while repeated names stop hitting
//! the authority.
//!
//! Because every probe name is unique, almost every entry a measurement
//! resolver stores is dead on arrival. [`DnsCache::sweep_if_grown`] keeps
//! the cache from growing without bound: an amortised sweep, run whenever
//! the cache has doubled since the last one. A sweep drops only entries
//! that every later lookup would have missed anyway (see
//! [`DnsCache::sweep`]), so it never changes an answer or a counter.

use crate::name::DnsName;
use crate::wire::{QType, Rcode, Record};
use netsim::{SimDuration, SimTime};
use std::collections::HashMap;

/// A cached answer: either records or a negative (NXDOMAIN/NODATA) entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Positive answer.
    Records(Vec<Record>),
    /// Negative answer with the rcode that produced it.
    Negative(Rcode),
}

#[derive(Debug, Clone)]
struct Entry {
    answer: CachedAnswer,
    expires: SimTime,
}

/// A `(name, qtype)`-keyed cache with per-record TTLs and a negative TTL.
#[derive(Debug, Clone, Default)]
pub struct DnsCache {
    entries: HashMap<(DnsName, u16), Entry>,
    hits: u64,
    misses: u64,
    /// Entries left by the last sweep; the next amortised sweep waits
    /// until the cache has doubled past this.
    swept_len: usize,
    /// The latest sweep horizon. Lookups must not come earlier: a swept
    /// entry would have answered them.
    horizon: SimTime,
}

/// Negative answers are cached for the zone's SOA minimum in real life; we
/// use a flat five minutes.
pub const NEGATIVE_TTL: SimDuration = SimDuration::from_secs(300);

/// Smallest size at which [`DnsCache::sweep_if_grown`] sweeps, so a small
/// cache is not rescanned on every insert.
const SWEEP_FLOOR: usize = 64;

impl DnsCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a fresh entry.
    ///
    /// `now` must not precede the horizon of an earlier sweep.
    pub fn get(&mut self, name: &DnsName, qtype: QType, now: SimTime) -> Option<CachedAnswer> {
        debug_assert!(
            now >= self.horizon,
            "lookup at {now:?} precedes the sweep horizon {:?}",
            self.horizon
        );
        let key = (name.clone(), qtype.code());
        match self.entries.get(&key) {
            Some(e) if e.expires > now => {
                self.hits += 1;
                Some(e.answer.clone())
            }
            Some(_) => {
                self.entries.remove(&key);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a positive answer; the entry lives for the smallest record
    /// TTL.
    ///
    /// # Panics
    /// Panics on an empty record set — cache [`DnsCache::put_negative`]
    /// instead.
    pub fn put(&mut self, name: DnsName, qtype: QType, records: Vec<Record>, now: SimTime) {
        assert!(!records.is_empty(), "positive entries need records");
        // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "documented API-contract panic: the assert above guarantees records is non-empty")
        let ttl = records.iter().map(|r| r.ttl).min().expect("non-empty");
        self.entries.insert(
            (name, qtype.code()),
            Entry {
                answer: CachedAnswer::Records(records),
                expires: now + SimDuration::from_secs(ttl as u64),
            },
        );
    }

    /// Insert a negative answer.
    pub fn put_negative(&mut self, name: DnsName, qtype: QType, rcode: Rcode, now: SimTime) {
        self.entries.insert(
            (name, qtype.code()),
            Entry {
                answer: CachedAnswer::Negative(rcode),
                expires: now + NEGATIVE_TTL,
            },
        );
    }

    /// Entries currently stored (including expired-but-unswept).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Remove the entries expired at `horizon`.
    ///
    /// The caller promises that no later lookup comes before `horizon`
    /// (checked by a debug assertion in [`DnsCache::get`]). Under that
    /// promise a removed entry could only ever have been a miss, which
    /// `get` counts the same whether the entry is present or not, so
    /// sweeping changes no answer and no [`DnsCache::stats`] counter.
    pub fn sweep(&mut self, horizon: SimTime) {
        self.entries.retain(|_, e| e.expires > horizon);
        self.swept_len = self.entries.len();
        self.horizon = self.horizon.max(horizon);
    }

    /// [`DnsCache::sweep`] at `horizon`, but only once the cache holds
    /// twice as many entries as the last sweep left (and at least 64).
    /// Every sweep is paid for by the inserts since the previous one, so
    /// the cost per insert is amortised O(1), and the cache stays within
    /// twice its live entries (or the floor).
    pub fn sweep_if_grown(&mut self, horizon: SimTime) {
        if self.entries.len() >= (2 * self.swept_len).max(SWEEP_FLOOR) {
            self.sweep(horizon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::RData;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn a_record(n: &str, ttl: u32) -> Record {
        Record {
            name: name(n),
            ttl,
            rdata: RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        }
    }

    #[test]
    fn positive_hit_until_ttl() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("www.example.com"),
            QType::A,
            vec![a_record("www.example.com", 60)],
            t0,
        );
        assert!(c
            .get(
                &name("www.example.com"),
                QType::A,
                t0 + SimDuration::from_secs(59)
            )
            .is_some());
        assert!(c
            .get(
                &name("www.example.com"),
                QType::A,
                t0 + SimDuration::from_secs(61)
            )
            .is_none());
    }

    #[test]
    fn smallest_ttl_wins() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("x.example"),
            QType::A,
            vec![a_record("x.example", 300), a_record("x.example", 30)],
            t0,
        );
        assert!(c
            .get(
                &name("x.example"),
                QType::A,
                t0 + SimDuration::from_secs(31)
            )
            .is_none());
    }

    #[test]
    fn negative_caching() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put_negative(name("nope.example"), QType::A, Rcode::NxDomain, t0);
        assert_eq!(
            c.get(&name("nope.example"), QType::A, t0),
            Some(CachedAnswer::Negative(Rcode::NxDomain))
        );
        assert!(c
            .get(
                &name("nope.example"),
                QType::A,
                t0 + NEGATIVE_TTL + SimDuration::from_secs(1)
            )
            .is_none());
    }

    #[test]
    fn qtype_is_part_of_the_key() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("x.example"),
            QType::A,
            vec![a_record("x.example", 60)],
            t0,
        );
        assert!(c.get(&name("x.example"), QType::Aaaa, t0).is_none());
        assert!(c.get(&name("x.example"), QType::A, t0).is_some());
    }

    #[test]
    fn unique_probe_names_never_hit() {
        // The paper's design constraint: per-probe unique names defeat
        // caching entirely.
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        for i in 0..100 {
            let n = name(&format!("d1-{i}.tft-probe.example"));
            assert!(c.get(&n, QType::A, t0).is_none());
            c.put(n, QType::A, vec![a_record("x.example", 60)], t0);
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 100);
    }

    #[test]
    fn sweep_drops_expired() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("a.example"),
            QType::A,
            vec![a_record("a.example", 10)],
            t0,
        );
        c.put(
            name("b.example"),
            QType::A,
            vec![a_record("b.example", 1000)],
            t0,
        );
        c.sweep(t0 + SimDuration::from_secs(500));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unique_names_stay_bounded_under_amortised_sweeps() {
        // Per-probe unique names with the clock running far past
        // NEGATIVE_TTL: without sweeps this cache would hold all 100k
        // entries; with them it holds about two TTL windows' worth.
        let mut c = DnsCache::new();
        let step = SimDuration::from_millis(50);
        let mut t = SimTime::EPOCH;
        let mut peak = 0;
        for i in 0..100_000 {
            let n = name(&format!("d1-{i}.tft-probe.example"));
            assert!(c.get(&n, QType::A, t).is_none());
            c.put_negative(n, QType::A, Rcode::NxDomain, t);
            c.sweep_if_grown(t);
            peak = peak.max(c.len());
            t += step;
        }
        assert!(t.since(SimTime::EPOCH) > NEGATIVE_TTL * 10);
        // 300 s / 50 ms = 6000 live entries at any time.
        let live = (NEGATIVE_TTL.as_millis() / step.as_millis()) as usize;
        assert!(peak <= 2 * live + 1, "peak {peak} vs {live} live entries");
        assert_eq!(c.stats(), (0, 100_000));
    }

    #[test]
    fn sweeps_wait_for_the_cache_to_double() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        let later = t0 + SimDuration::from_secs(3600);
        for i in 0..SWEEP_FLOOR - 1 {
            c.put_negative(
                name(&format!("n{i}.example")),
                QType::A,
                Rcode::NxDomain,
                t0,
            );
            c.sweep_if_grown(later);
        }
        assert_eq!(c.len(), SWEEP_FLOOR - 1, "below the floor nothing sweeps");
        c.put_negative(name("last.example"), QType::A, Rcode::NxDomain, t0);
        c.sweep_if_grown(later);
        assert!(
            c.is_empty(),
            "reaching the floor sweeps every expired entry"
        );
    }
}
