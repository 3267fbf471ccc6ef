//! Pieces every workload shares: the seeded input generator, the
//! simulation set-up switches, and the per-repetition result.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use simnet::{NetworkConfig, Simulation};

use crate::span::{Agg, Recorder, Span, Tracer, ROOT_RUN, ROOT_SETUP};

/// xorshift64* — the input generator. Every input a simulated process
/// receives is drawn from one of these, seeded from the run seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng((seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            | 1);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf distribution over `n` items with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf(cum)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// How a repetition is observed: with a tracer, the simnet trace,
/// profiler, flight recorder, obs self-measurement and benchmark spans
/// are all on; without one, none of them runs.
#[derive(Debug, Clone, Default)]
pub struct Observe {
    pub tracer: Option<Arc<Tracer>>,
}

impl Observe {
    pub fn off() -> Observe {
        Observe::default()
    }

    pub fn traced() -> Observe {
        Observe {
            tracer: Some(Tracer::new()),
        }
    }
}

/// Per-domain simnet trace ring size in the traced run.
const TRACE_RING: usize = 1 << 16;
/// Profiler frame-table capacity per writer lane.
const PROFILE_FRAMES: usize = 4096;

/// A simulation with the observation switches of `obs` applied.
pub fn new_sim(
    net: NetworkConfig,
    seed: u64,
    domains: usize,
    threads: usize,
    obs: &Observe,
) -> Simulation {
    let sim = Simulation::new(net, seed)
        .with_domains(domains)
        .with_threads(threads);
    if obs.tracer.is_some() {
        sim.enable_trace(TRACE_RING);
        sim.obs().enable_profile(PROFILE_FRAMES);
        sim.obs().enable_timeseries(10_000_000, 4096);
        sim.obs().enable_self_measure();
    }
    sim
}

/// Counts and virtual latencies of a set of client calls.
#[derive(Debug, Default, Clone)]
pub struct Calls {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Virtual issue-to-reply time of every settled call, in ns.
    pub lat_ns: Vec<u64>,
}

impl Calls {
    pub fn merge(&mut self, o: Calls) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.failed += o.failed;
        self.lat_ns.extend(o.lat_ns);
    }
}

/// One repetition's raw results.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds from `Simulation::new` to the start of `run`.
    pub setup_s: f64,
    /// Host seconds inside `Simulation::run`.
    pub run_s: f64,
    /// Process CPU seconds consumed during `run`.
    pub cpu_s: f64,
    /// Host nanoseconds of each benchmark-timed spawn call.
    pub spawn_ns: Vec<u64>,
    pub calls: Calls,
    /// Output-check failures (empty when every output was correct).
    pub violations: Vec<String>,
    pub net: obs::MetricsSnapshot,
    pub report: Option<obs::RunReport>,
    /// Workload-specific counters, by per-layer metric name.
    pub extra: Vec<(&'static str, f64)>,
    /// Virtual issue-to-bound time of every bind, in ns.
    pub bind_sim_ns: Vec<u64>,
    /// Benchmark spans of a traced repetition (kept for one repetition
    /// per run, to be written out) and their per-name totals.
    pub spans: Vec<Span>,
    pub span_agg: BTreeMap<&'static str, Agg>,
    /// Every count the seed determines, for the determinism checks.
    pub fingerprint: String,
}

impl Rep {
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Times the set-up and run phases of one repetition around the public
/// `Simulation` calls, with the benchmark's root spans.
pub struct Phases {
    rec: Recorder,
    t_new: Instant,
    setup: Option<crate::span::Open>,
    spawn_ns: Vec<u64>,
}

impl Phases {
    /// Call immediately before `Simulation::new`.
    pub fn start(obs: &Observe) -> Phases {
        let rec = Recorder::new(obs.tracer.as_ref());
        let setup = rec.open_root(ROOT_SETUP);
        Phases {
            rec,
            t_new: Instant::now(),
            setup,
            spawn_ns: Vec::new(),
        }
    }

    /// Times one spawn call (`spawn`, `spawn_poll`, `ServiceBuilder::spawn`).
    pub fn spawn<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let open = self.rec.open();
        let t0 = Instant::now();
        let r = f();
        self.spawn_ns.push(t0.elapsed().as_nanos() as u64);
        self.rec.close(open, "simnet.spawn", ROOT_SETUP, 0);
        r
    }

    /// Runs the simulation and fills the timing fields of `rep`.
    pub fn run(mut self, sim: &mut Simulation, rep: &mut Rep) -> simnet::RunReport {
        let setup_s = self.t_new.elapsed().as_secs_f64();
        self.rec.close(self.setup, "setup", 0, 0);
        let open = self.rec.open_root(ROOT_RUN);
        let cpu0 = crate::sys::cpu_seconds().unwrap_or(0.0);
        let t0 = Instant::now();
        let report = sim.run();
        let run_s = t0.elapsed().as_secs_f64();
        let cpu1 = crate::sys::cpu_seconds().unwrap_or(0.0);
        self.rec.close(open, "run", 0, 0);
        self.rec.flush();
        rep.setup_s = setup_s;
        rep.run_s = run_s;
        rep.cpu_s = cpu1 - cpu0;
        rep.spawn_ns = self.spawn_ns;
        rep.net = report.metrics;
        report
    }
}

/// Finishes a repetition: attaches the obs report and the spans.
pub fn harvest(sim: &Simulation, obs: &Observe, rep: &mut Rep) {
    rep.report = Some(sim.obs_report());
    if let Some(t) = &obs.tracer {
        rep.spans = t.take();
        rep.span_agg = crate::span::aggregate(&rep.spans);
    }
}

/// The counts and virtual times a seed fixes.
pub fn fingerprint(rep: &Rep, report: &simnet::RunReport) -> String {
    let lat = &rep.calls.lat_ns;
    let sum: u64 = lat.iter().sum();
    format!(
        "end={} sent={} bytes={} delivered={} events={} spawned={} attempted={} ok={} failed={} \
         p50={:?} p99={:?} lat_sum={sum}",
        report.end_time.as_nanos(),
        report.metrics.msgs_sent,
        report.metrics.bytes_sent,
        report.metrics.msgs_delivered,
        report.metrics.events_dispatched,
        report.metrics.processes_spawned,
        rep.calls.attempted,
        rep.calls.ok,
        rep.calls.failed,
        crate::stats::percentile_sorted(lat, 50.0),
        crate::stats::percentile_sorted(lat, 99.0),
    )
}
