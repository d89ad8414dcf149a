//! Property-based tests: wire-format roundtrips, decoder robustness, and
//! resolver-cache sweeps.

use dnswire::{
    decode, encode, CachedAnswer, DnsCache, DnsName, Message, QType, RData, Rcode, Record,
};
use netsim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};
use substrate::qc::{self, alphabet, Config, Gen};
use substrate::{qc_assert, qc_assert_eq};

fn cfg() -> Config {
    Config::with_cases(256)
}

/// `[a-z0-9][a-z0-9-]{0,14}` — one DNS label.
fn labels() -> Gen<String> {
    qc::tuple2(
        qc::string_of(alphabet::LOWER_ALNUM, 1..=1),
        qc::string_of("abcdefghijklmnopqrstuvwxyz0123456789-", 0..15),
    )
    .map(|(head, tail)| head + &tail)
}

fn names() -> Gen<DnsName> {
    qc::vec_of(labels(), 1..5)
        .map(|labels| DnsName::parse(&labels.join(".")).expect("generated labels are valid"))
}

fn qtypes() -> Gen<QType> {
    qc::one_of(vec![
        qc::just(QType::A),
        qc::just(QType::Ns),
        qc::just(QType::Cname),
        qc::just(QType::Txt),
        qc::just(QType::Aaaa),
        qc::just(QType::Soa),
    ])
}

fn rdatas() -> Gen<RData> {
    qc::one_of(vec![
        qc::any_u32().map(|v| RData::A(Ipv4Addr::from(v))),
        qc::any_u128().map(|v| RData::Aaaa(Ipv6Addr::from(v))),
        names().map(RData::Ns),
        names().map(RData::Cname),
        names().map(RData::Ptr),
        qc::vec_of(qc::string_of(alphabet::PRINTABLE, 0..41), 0..3).map(RData::Txt),
        qc::tuple4(names(), names(), qc::any_u32(), qc::any_u32()).map(
            |(mname, rname, serial, t)| RData::Soa {
                mname,
                rname,
                serial,
                refresh: t,
                retry: t / 2,
                expire: t.saturating_mul(2),
                minimum: 300,
            },
        ),
    ])
}

fn records() -> Gen<Record> {
    qc::tuple3(names(), qc::any_u32(), rdatas()).map(|(name, ttl, rdata)| Record {
        name,
        ttl,
        rdata,
    })
}

fn messages() -> Gen<Message> {
    let rcodes = qc::one_of(vec![
        qc::just(Rcode::NoError),
        qc::just(Rcode::NxDomain),
        qc::just(Rcode::ServFail),
    ]);
    qc::tuple5(
        qc::any_u16(),
        qc::tuple2(names(), qtypes()),
        qc::vec_of(records(), 0..6),
        qc::vec_of(records(), 0..3),
        rcodes,
    )
    .map(|(id, (qname, qtype), answers, authority, rcode)| {
        let q = Message::query(id, qname, qtype);
        let mut m = Message::respond(&q, rcode, answers);
        m.authority = authority;
        m
    })
}

/// encode → decode is the identity on well-formed messages, including
/// through the name-compression path.
#[test]
fn roundtrip() {
    qc::check("dns message roundtrip", &cfg(), &messages(), |msg| {
        let bytes = encode(msg).expect("encodable");
        let back = decode(&bytes).expect("decodable");
        qc_assert_eq!(&back, msg);
        qc::pass()
    });
}

/// The decoder never panics on arbitrary bytes.
#[test]
fn decoder_total_on_garbage() {
    qc::check(
        "decoder totality on garbage",
        &cfg(),
        &qc::bytes(0..512),
        |bytes| {
            let _ = decode(bytes);
            qc::pass()
        },
    );
}

/// The decoder never panics on corrupted valid messages (single-octet
/// mutations, the fault-injector model).
#[test]
fn decoder_total_on_corruption() {
    qc::check(
        "decoder totality on corruption",
        &cfg(),
        &qc::tuple3(messages(), qc::any_usize(), qc::ints(1u8..)),
        |(msg, idx, flip)| {
            let mut bytes = encode(msg).expect("encodable");
            if !bytes.is_empty() {
                let i = idx % bytes.len();
                bytes[i] ^= flip;
                let _ = decode(&bytes);
            }
            qc::pass()
        },
    );
}

/// Truncation at every length errors or yields a message, never panics.
#[test]
fn decoder_total_on_truncation() {
    qc::check(
        "decoder totality on truncation",
        &cfg(),
        &qc::tuple2(messages(), qc::floats(0.0..1.0)),
        |(msg, cut)| {
            let bytes = encode(msg).expect("encodable");
            let cut = (bytes.len() as f64 * cut) as usize;
            let _ = decode(&bytes[..cut]);
            qc::pass()
        },
    );
}

/// Name parse/display roundtrip.
#[test]
fn name_roundtrip() {
    qc::check("dns name roundtrip", &cfg(), &names(), |name| {
        let s = name.to_string();
        qc_assert_eq!(&DnsName::parse(&s).unwrap(), name);
        qc::pass()
    });
}

/// The cache without sweeps: expired entries stay forever and simply stop
/// answering.
#[derive(Default)]
struct NeverSwept {
    entries: HashMap<(DnsName, u16), (CachedAnswer, SimTime)>,
    hits: u64,
    misses: u64,
}

impl NeverSwept {
    fn get(&mut self, name: &DnsName, qtype: QType, now: SimTime) -> Option<CachedAnswer> {
        match self.entries.get(&(name.clone(), qtype.code())) {
            Some((answer, expires)) if *expires > now => {
                self.hits += 1;
                Some(answer.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, name: DnsName, qtype: QType, answer: CachedAnswer, expires: SimTime) {
        self.entries.insert((name, qtype.code()), (answer, expires));
    }
}

/// One cache operation: (kind, name pick, clock step in ms, TTL in s).
/// Kind 0 is `put`, 1 `put_negative`, anything else `get`. Name picks
/// below 4 reuse one of four names; pick `4 + k` names the unique name
/// of the operation `k` steps back, so most puts add a fresh name and
/// lookups find recently stored ones.
type CacheOp = (u8, u8, u64, u32);

fn cache_ops() -> Gen<Vec<CacheOp>> {
    qc::vec_of(
        qc::tuple4(
            qc::ints(0u8..4),
            qc::ints(0u8..16),
            qc::ints(0u64..20_000),
            qc::ints(1u32..120),
        ),
        0..400,
    )
}

/// Amortised sweeps at a non-decreasing clock change neither answers nor
/// counters: the swept cache agrees with a never-swept reference on every
/// lookup and on `stats()`, over a few reused and many unique names.
#[test]
fn cache_sweeps_are_invisible() {
    let swept_somewhere = std::cell::Cell::new(false);
    qc::check(
        "dns cache sweeps are invisible",
        &Config::with_cases(128),
        &cache_ops(),
        |ops| {
            let mut cache = DnsCache::new();
            let mut naive = NeverSwept::default();
            let mut now = SimTime::EPOCH;
            for (i, &(kind, pick, step_ms, ttl)) in ops.iter().enumerate() {
                now += SimDuration::from_millis(step_ms);
                let name = match pick.checked_sub(4) {
                    None => DnsName::parse(&format!("reused-{pick}.example")).unwrap(),
                    Some(back) => {
                        let step = i.saturating_sub(back as usize);
                        DnsName::parse(&format!("unique-{step}.example")).unwrap()
                    }
                };
                let qtype = if pick % 2 == 0 { QType::A } else { QType::Aaaa };
                match kind {
                    0 => {
                        let records = vec![Record {
                            name: name.clone(),
                            ttl,
                            rdata: RData::A(Ipv4Addr::new(192, 0, 2, pick)),
                        }];
                        let expires = now + SimDuration::from_secs(ttl as u64);
                        naive.put(
                            name.clone(),
                            qtype,
                            CachedAnswer::Records(records.clone()),
                            expires,
                        );
                        cache.put(name, qtype, records, now);
                    }
                    1 => {
                        let expires = now + dnswire::cache::NEGATIVE_TTL;
                        naive.put(
                            name.clone(),
                            qtype,
                            CachedAnswer::Negative(Rcode::NxDomain),
                            expires,
                        );
                        cache.put_negative(name, qtype, Rcode::NxDomain, now);
                    }
                    _ => {
                        qc_assert_eq!(cache.get(&name, qtype, now), naive.get(&name, qtype, now));
                    }
                }
                cache.sweep_if_grown(now);
                qc_assert_eq!(cache.stats(), (naive.hits, naive.misses));
            }
            qc_assert!(cache.len() <= naive.entries.len());
            if cache.len() < naive.entries.len() {
                swept_somewhere.set(true);
            }
            qc::pass()
        },
    );
    assert!(
        swept_somewhere.get(),
        "no generated case ever swept an entry"
    );
}
