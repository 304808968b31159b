//! The full-size `serve-bench` records are pure virtual time — the exact
//! admission decisions and event timeline of both serving loops — so they
//! must reproduce the committed fixtures byte for byte on any host and in
//! any build profile. A deliberate change to the serving loops' timeline
//! regenerates them with `tucker serve-bench --out tests/fixtures/serve_bench.json`
//! and `tucker serve-bench --shards 2 --replicas 2 --out tests/fixtures/failover_bench.json`.

use tucker_bench::{run_failover_bench, run_serve_bench};

#[test]
fn full_serve_bench_reproduces_the_fixture() {
    let r = run_serve_bench(false).expect("serve bench runs");
    assert_eq!(format!("{}\n", r.to_json()), include_str!("fixtures/serve_bench.json"));
}

#[test]
fn full_failover_bench_reproduces_the_fixture() {
    let r = run_failover_bench(false, 2, 2, None).expect("failover bench runs");
    assert_eq!(format!("{}\n", r.to_json()), include_str!("fixtures/failover_bench.json"));
}
