//! The benchmark's self-checks on reduced sizes: determinism per seed,
//! output checks on a second seed, thread-count independence of
//! `fleet-mc`, and agreement between `BENCHMARK.json`, `LAYERS.json` and
//! the metric tables.

use perfbench::common::Observe;
use perfbench::layers::{describe_json, END_TO_END, PER_LAYER};
use perfbench::runner::{self, Opts};
use perfbench::Workload;

fn small(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.0,
        trace,
        small: true,
        out_dir: None,
    }
}

#[test]
fn same_seed_gives_identical_counts_and_latencies() {
    for wl in Workload::ALL {
        let a = runner::run(&small(wl, 7, false));
        let b = runner::run(&small(wl, 7, false));
        assert!(a.correct(), "{}: {:?}", wl.name(), a.problems);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", wl.name());
        assert_eq!(a.sim_p50_ms, b.sim_p50_ms, "{}", wl.name());
        assert_eq!(a.sim_p99_ms, b.sim_p99_ms, "{}", wl.name());
        assert!(a.sim_p50_ms > 0.0 && a.sim_p99_ms >= a.sim_p50_ms);
        assert_eq!(a.failed, 0, "{}", wl.name());
    }
}

#[test]
fn a_second_seed_passes_every_output_check() {
    for wl in Workload::ALL {
        let a = runner::run(&small(wl, 7, false));
        let b = runner::run(&small(wl, 1234, false));
        assert!(b.correct(), "{}: {:?}", wl.name(), b.problems);
        assert_ne!(
            a.fingerprint,
            b.fingerprint,
            "{}: seed had no effect",
            wl.name()
        );
    }
}

#[test]
fn traced_run_reports_every_layer_metric() {
    for wl in Workload::ALL {
        let out = runner::run(&small(wl, 3, true));
        assert!(out.correct(), "{}: {:?}", wl.name(), out.problems);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", wl.name());
        assert_eq!(out.metric("simnet.msgs_dropped"), Some(0.0));
        assert_eq!(out.metric("core.datagrams_discarded"), Some(0.0));
        assert!(out.metric("simnet.events_per_call").unwrap() > 0.0);
    }
}

#[test]
fn fleet_mc_virtual_time_is_identical_at_one_and_two_threads() {
    for seed in [5, 6] {
        let one = Workload::FleetMc.run_rep(seed, &Observe::off(), true, Some(1));
        let two = Workload::FleetMc.run_rep(seed, &Observe::off(), true, Some(2));
        assert!(one.violations.is_empty(), "{:?}", one.violations);
        assert_eq!(one.fingerprint, two.fingerprint);
        assert_eq!(one.calls.lat_ns, two.calls.lat_ns);
        assert_eq!(one.bind_sim_ns, two.bind_sim_ns);
    }
}

fn manifest_file(name: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn layers_json_is_the_generated_table() {
    assert_eq!(manifest_file("LAYERS.json"), describe_json());
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let bench = manifest_file("../BENCHMARK.json");
    let entries = |section: &str| -> Vec<String> {
        let start = bench.find(&format!("\"{section}\"")).expect(section);
        let body = &bench[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split('{').skip(1).map(str::to_owned).collect()
    };
    let e2e = entries("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(END_TO_END) {
        assert!(
            entry.contains(&format!("\"name\": \"{}\"", m.name)),
            "{entry}"
        );
        assert!(
            entry.contains(&format!("\"unit\": \"{}\"", m.unit)),
            "{entry}"
        );
    }
    let layers = entries("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, m) in layers.iter().zip(PER_LAYER) {
        assert!(
            entry.contains(&format!("\"name\": \"{}\"", m.name)),
            "{entry}"
        );
        assert!(
            entry.contains(&format!("\"unit\": \"{}\"", m.unit)),
            "{entry}"
        );
        assert!(
            entry.contains(&format!("\"better\": \"{}\"", m.better)),
            "{entry}"
        );
    }
    let workloads = entries("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, wl) in workloads.iter().zip(Workload::ALL) {
        assert!(
            entry.contains(&format!("\"name\": \"{}\"", wl.name())),
            "{entry}"
        );
    }
}
