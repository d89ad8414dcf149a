//! Resolver-cache semantics at the world level: repeated names collapse to
//! one authoritative query, unique probe names never do, and the shared
//! super-proxy cache reproduces footnote 8's same-instance hazard.

use dnswire::DnsName;
use httpwire::{Response, Uri};
use inetdb::{CountryCode, InternetRegistry};
use netsim::{SimDuration, SimRng, SimTime};
use proxynet::{ExitNode, NodeId, Platform, ResolverChoice, ResolverDef, UsernameOptions, World};
use std::net::Ipv4Addr;

fn cc(s: &str) -> CountryCode {
    CountryCode::new(s)
}

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn world(google_resolver_nodes: bool) -> World {
    let mut reg = InternetRegistry::new();
    let google = reg.register_org("Google", cc("US"));
    let gasn = reg.register_as_with_prefix(google, inetdb::GOOGLE_ANYCAST_NET.parse().unwrap());
    let isp_org = reg.register_org("ISP", cc("US"));
    let isp_asn = reg.register_as(isp_org, 1);
    let lab_org = reg.register_org("Lab", cc("US"));
    let lab_asn = reg.register_as(lab_org, 1);
    let web_ip = reg.alloc_ip(lab_asn);
    // One anycast instance only: every Google-DNS node shares the super
    // proxy's cache — the worst case of footnote 8.
    let anycast = vec![reg.alloc_ip(gasn)];
    let resolver = reg.alloc_ip(isp_asn);
    let node_ips: Vec<Ipv4Addr> = (0..3).map(|_| reg.alloc_ip(isp_asn)).collect();
    reg.snapshot_rib();

    let mut rng = SimRng::new(5);
    let (roots, _) = certs::RootStore::os_x_like(2, SimTime::EPOCH, &mut rng);
    let mut w = World::new(3, name("probe.example"), web_ip, anycast, reg, roots);
    w.add_resolver(ResolverDef {
        ip: resolver,
        asn: isp_asn,
        hijacker: None,
    });
    for (i, ip) in node_ips.iter().enumerate() {
        let choice = if google_resolver_nodes {
            ResolverChoice::GoogleDns
        } else {
            ResolverChoice::Isp(resolver)
        };
        w.add_node(ExitNode::new(
            NodeId(i as u32),
            *ip,
            isp_asn,
            cc("US"),
            Platform::Windows,
            choice,
        ));
    }
    w
}

fn provision(w: &mut World, label: &str) -> String {
    let apex = w.auth_apex().clone();
    let n = apex.child(label).unwrap();
    let host = n.to_string();
    let web_ip = w.web_ip();
    w.auth_server_mut().zone_mut().add_a(n, web_ip);
    w.web_server_mut()
        .put(&host, "/", Response::ok("text/html", b"x".to_vec()));
    host
}

#[test]
fn repeated_names_hit_the_cache() {
    let mut w = world(false);
    let host = provision(&mut w, "cached");
    for session in 0..6 {
        let opts = UsernameOptions::new("c").session(session).dns_remote();
        w.proxy_get(&opts, &Uri::http(&host, "/")).unwrap();
    }
    // 6 fetches; without caching that is 12 authoritative queries (super
    // proxy + exit each time). With caching: one from the super proxy's
    // instance, one from the ISP resolver.
    let queries = w.auth_server().queries_for(&name(&host)).count();
    assert_eq!(queries, 2, "cache should collapse repeated lookups");
}

#[test]
fn unique_probe_names_always_reach_the_authority() {
    let mut w = world(false);
    for i in 0..5 {
        let host = provision(&mut w, &format!("unique-{i}"));
        let opts = UsernameOptions::new("c").session(100 + i).dns_remote();
        w.proxy_get(&opts, &Uri::http(&host, "/")).unwrap();
        assert_eq!(
            w.auth_server().queries_for(&name(&host)).count(),
            2,
            "fresh name must be resolved by both super proxy and exit"
        );
    }
}

#[test]
fn shared_anycast_cache_hides_the_exit_query() {
    // Google-DNS nodes share the single anycast instance with the super
    // proxy: the super proxy's resolution warms the cache, so the exit
    // node's query never reaches our authority — exactly why the paper
    // filters same-instance nodes.
    let mut w = world(true);
    let host = provision(&mut w, "shared");
    let opts = UsernameOptions::new("c").session(1).dns_remote();
    w.proxy_get(&opts, &Uri::http(&host, "/")).unwrap();
    assert_eq!(
        w.auth_server().queries_for(&name(&host)).count(),
        1,
        "only the super proxy's query is visible"
    );
}

#[test]
fn footnote_8_hazard_survives_cache_sweeps() {
    // A campaign's worth of unique probe names, each outliving its TTL,
    // makes the shared instance's cache sweep its dead entries. Sweeping
    // must not change what the cache answers: the super proxy's positive
    // answer for a fresh name is still served to a node behind the same
    // instance, and the authority still sees only one query.
    let mut w = world(true);
    let instance = w.super_proxy_dns_src();
    let probes: u64 = 200;
    for i in 0..probes {
        let host = provision(&mut w, &format!("sweep-{i}"));
        let opts = UsernameOptions::new("c").session(i).dns_remote();
        w.proxy_get(&opts, &Uri::http(&host, "/")).unwrap();
        w.advance(SimDuration::from_secs(600));
    }
    let cache = w.resolver_cache(instance).expect("instance cached answers");
    assert!(
        cache.len() < probes as usize,
        "no sweep ran: {} entries after {probes} unique probes",
        cache.len()
    );
    assert_eq!(
        cache.stats(),
        (probes, probes),
        "each exit query hit the super proxy's entry, each super query missed"
    );

    let host = provision(&mut w, "after-sweep");
    let opts = UsernameOptions::new("c").session(probes).dns_remote();
    let resp = w.proxy_get(&opts, &Uri::http(&host, "/")).unwrap();
    assert_eq!(resp.body, b"x".to_vec());
    assert_eq!(
        w.auth_server().queries_for(&name(&host)).count(),
        1,
        "only the super proxy's query is visible"
    );
    let (hits, misses) = w.resolver_cache(instance).unwrap().stats();
    assert_eq!((hits, misses), (probes + 1, probes + 1));
}

#[test]
fn disabling_caching_restores_per_query_visibility() {
    let mut w = world(true);
    w.set_resolver_caching(false);
    let host = provision(&mut w, "uncached");
    let opts = UsernameOptions::new("c").session(1).dns_remote();
    w.proxy_get(&opts, &Uri::http(&host, "/")).unwrap();
    assert_eq!(
        w.auth_server().queries_for(&name(&host)).count(),
        2,
        "without caching both queries arrive"
    );
}
