//! # bench — the experiment harness
//!
//! One module per experiment in `DESIGN.md` §3 (E1–E12). Each experiment
//! builds a deterministic simulation, runs its workload sweep, prints the
//! table(s) the paper's evaluation would contain, and then *checks its
//! expected qualitative shape* (who wins, where the crossover falls) so a
//! regression in any layer turns the run red.
//!
//! Run one experiment: `cargo run -p bench --bin e2_cache_sweep`
//! Run everything:     `cargo run -p bench --bin all_experiments`
//!
//! Simulated-time results (latency, message counts) come from these
//! binaries; real-CPU-time results (marshalling throughput, dispatch
//! overhead — experiment E8) live in the Criterion bench
//! `benches/overhead.rs`.

pub mod experiments;
pub mod perfgate;

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A result table, printed with aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (stringified by the experiment).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n  {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("  | ");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$} | ", c, w = widths[i]);
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &sep);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// A labelled unified observability report, serialized as JSON.
///
/// Captured from a representative run of each experiment so the whole
/// suite emits machine-readable `obs::RunReport` records alongside its
/// human-readable tables.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Which run/configuration the report covers.
    pub label: String,
    /// The `obs::RunReport` JSON from [`simnet::Simulation::obs_report`].
    pub json: String,
}

/// Captures the unified run report of a finished simulation.
pub fn obs_report(label: impl Into<String>, sim: &simnet::Simulation) -> ObsReport {
    ObsReport {
        label: label.into(),
        json: sim.obs_report().to_json(),
    }
}

/// A labelled causal trace captured from a representative run.
///
/// `ExperimentOutput::print` exports each artifact to the trace
/// directory (`PROXIDE_TRACE_DIR`, default `target/traces`) in both the
/// compact JSONL format and the Chrome Trace Format, and validates the
/// Chrome output before writing it.
#[derive(Debug, Clone)]
pub struct TraceArtifact {
    /// Which run/configuration the trace covers.
    pub label: String,
    /// The merged span + network-event timeline.
    pub trace: obs::CausalTrace,
}

/// Captures the causal trace of a finished simulation. The simulation
/// must have had tracing enabled ([`simnet::Simulation::enable_trace`])
/// for network events to appear; spans are always present.
pub fn capture_trace(label: impl Into<String>, sim: &simnet::Simulation) -> TraceArtifact {
    TraceArtifact {
        label: label.into(),
        trace: sim.causal_trace(),
    }
}

/// Where exported traces land: `$PROXIDE_TRACE_DIR` or `target/traces`.
pub fn trace_dir() -> std::path::PathBuf {
    std::env::var_os("PROXIDE_TRACE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/traces"))
}

/// Lower-cases a label and replaces anything outside `[a-z0-9._-]` with
/// `-` so it is safe inside a file name.
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            let c = c.to_ascii_lowercase();
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// One asserted property of an experiment's shape.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Supporting numbers.
    pub detail: String,
}

/// One-line digest of a `RunReport` JSON blob for the experiment log:
/// the loss-shaped counters a reader would otherwise have to dig out of
/// the blob (network drops and duplicates next to the client
/// retransmissions and stale replies they should explain — retries on a
/// network that lost nothing are spurious — proxy-discarded datagrams,
/// trace-ring evictions) plus the
/// flight-recorder headlines (pinned exemplars, recorded windows) and
/// the obs-plane honesty counts (spans retired vs resident, time spent
/// inside the plane itself) and the profiler's (frames resident vs
/// evicted, fold overhead). `None` only when the blob does not parse.
fn obs_summary_line(json: &str) -> Option<String> {
    let doc = obs::json::parse(json).ok()?;
    let discarded: u64 = doc
        .get("proxies")
        .and_then(|p| p.as_obj())
        .map(|m| {
            m.values()
                .filter_map(|s| s.u64_field("datagrams_discarded"))
                .sum()
        })
        .unwrap_or(0);
    let net = doc.get("net");
    let dropped = net.and_then(|n| n.u64_field("msgs_dropped")).unwrap_or(0);
    let duplicated = net
        .and_then(|n| n.u64_field("msgs_duplicated"))
        .unwrap_or(0);
    let client = doc.get("rpc").and_then(|r| r.get("client"));
    let retries = client.and_then(|c| c.u64_field("retries")).unwrap_or(0);
    let stale = client
        .and_then(|c| c.u64_field("stale_replies"))
        .unwrap_or(0);
    let trace_evicted = doc.u64_field("trace_evicted").unwrap_or(0);
    let exemplars = doc
        .get("exemplars")
        .and_then(|e| e.as_arr())
        .map_or(0, <[obs::json::Json]>::len);
    let windows = doc
        .get("timeseries")
        .and_then(|t| t.get("windows"))
        .and_then(|w| w.as_arr())
        .map_or(0, <[obs::json::Json]>::len);
    let procs_spawned = net
        .and_then(|n| n.u64_field("processes_spawned"))
        .unwrap_or(0);
    let procs_peak = net.and_then(|n| n.u64_field("processes_peak")).unwrap_or(0);
    let inversions = net
        .and_then(|n| n.u64_field("sched_time_inversions"))
        .unwrap_or(0);
    let spans_retired = doc
        .get("obs")
        .and_then(|o| o.u64_field("spans_retired"))
        .unwrap_or(0);
    let spans_resident = doc
        .get("obs")
        .and_then(|o| o.u64_field("spans_resident"))
        .unwrap_or(0);
    let obs_self_us = doc
        .get("obs")
        .and_then(|o| o.u64_field("self_ns"))
        .unwrap_or(0)
        / 1_000;
    let prof = doc.get("profile");
    let prof_frames = prof
        .and_then(|p| p.u64_field("frames_resident"))
        .unwrap_or(0);
    let prof_evicted = prof
        .and_then(|p| p.u64_field("frames_evicted"))
        .unwrap_or(0);
    let prof_self_us = prof.and_then(|p| p.u64_field("self_ns")).unwrap_or(0) / 1_000;
    Some(format!(
        "msgs_dropped={dropped} msgs_duplicated={duplicated} \
         retries={retries} stale_replies={stale} \
         datagrams_discarded={discarded} trace_evicted={trace_evicted} \
         exemplars={exemplars} ts_windows={windows} \
         procs_spawned={procs_spawned} procs_peak={procs_peak} \
         sched_time_inversions={inversions} \
         spans_retired={spans_retired} spans_resident={spans_resident} \
         obs_self_us={obs_self_us} \
         prof_frames={prof_frames} prof_evicted={prof_evicted} \
         prof_self_us={prof_self_us}"
    ))
}

/// Builds a check.
pub fn check(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        pass,
        detail: detail.into(),
    }
}

/// Everything an experiment produces.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id, e.g. "E2".
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Shape assertions.
    pub checks: Vec<Check>,
    /// Unified observability reports from representative runs.
    pub reports: Vec<ObsReport>,
    /// Causal traces from representative runs, exported on print.
    pub traces: Vec<TraceArtifact>,
}

impl ExperimentOutput {
    /// Prints tables and checks, exports trace artifacts; returns
    /// whether every check passed (a trace whose Chrome export fails
    /// validation counts as a failed check).
    pub fn print(&self) -> bool {
        println!("\n================================================================");
        println!("{} — {}", self.id, self.title);
        println!("================================================================");
        for t in &self.tables {
            print!("{}", t.render());
        }
        println!();
        let mut all = true;
        for c in &self.checks {
            let mark = if c.pass { "PASS" } else { "FAIL" };
            println!("  [{mark}] {} — {}", c.name, c.detail);
            all &= c.pass;
        }
        for r in &self.reports {
            println!("  obs-report[{}] {}", r.label, r.json);
            if let Some(line) = obs_summary_line(&r.json) {
                println!("  obs-summary[{}] {}", r.label, line);
            }
        }
        all &= self.export_traces();
        all
    }

    /// Writes every trace artifact as `<id>-<label>.trace.jsonl` plus
    /// `<id>-<label>.chrome.json` under [`trace_dir`]. Returns false if
    /// any Chrome export fails validation (IO trouble only warns).
    fn export_traces(&self) -> bool {
        let mut ok = true;
        if self.traces.is_empty() {
            return ok;
        }
        let dir = trace_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            println!("  trace[*] cannot create {}: {e}", dir.display());
            return ok;
        }
        for a in &self.traces {
            let stem = format!(
                "{}-{}",
                self.id.to_ascii_lowercase(),
                sanitize_label(&a.label)
            );
            let jsonl_path = dir.join(format!("{stem}.trace.jsonl"));
            let chrome_path = dir.join(format!("{stem}.chrome.json"));
            let chrome = obs::to_chrome_json(&a.trace);
            match obs::validate_chrome(&chrome) {
                Ok(summary) => {
                    if let Err(e) = std::fs::write(&jsonl_path, obs::to_jsonl(&a.trace)) {
                        println!("  trace[{}] write failed: {e}", a.label);
                        continue;
                    }
                    if let Err(e) = std::fs::write(&chrome_path, &chrome) {
                        println!("  trace[{}] write failed: {e}", a.label);
                        continue;
                    }
                    println!(
                        "  trace[{}] {} events ({} spans, {} net, {} evicted) -> {} (+ .chrome.json: {} tracks)",
                        a.label,
                        a.trace.events.len(),
                        a.trace.spans().count(),
                        a.trace.net_events().count(),
                        a.trace.evicted,
                        jsonl_path.display(),
                        summary.tracks,
                    );
                }
                Err(e) => {
                    println!("  [FAIL] trace[{}] Chrome export invalid — {e}", a.label);
                    ok = false;
                }
            }
        }
        ok
    }
}

/// Shared single-value cell used to smuggle a measurement out of a
/// simulated process.
pub type Slot<T> = Arc<Mutex<Option<T>>>;

/// A slot for smuggling one value out of a simulated process.
pub fn slot<T>() -> (Slot<T>, Slot<T>) {
    let a = Arc::new(Mutex::new(None));
    (Arc::clone(&a), a)
}

/// Reads a slot after the simulation finished.
///
/// # Panics
///
/// Panics if the process never filled it.
pub fn take<T>(s: Slot<T>) -> T {
    s.lock()
        .unwrap()
        .take()
        .expect("measurement never recorded")
}

/// Formats a duration as microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Formats a mean per-op duration from a total and a count.
pub fn us_per_op(total: Duration, ops: u64) -> String {
    if ops == 0 {
        "-".into()
    } else {
        format!("{:.1}", total.as_secs_f64() * 1e6 / ops as f64)
    }
}

/// Mean microseconds per op as a number (for shape checks).
pub fn us_per_op_f(total: Duration, ops: u64) -> f64 {
    total.as_secs_f64() * 1e6 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["long-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("long-name"));
        // Both data rows have the same width.
        let lines: Vec<&str> = r.lines().filter(|l| l.contains('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(Duration::from_micros(1500)), "1500.0");
        assert_eq!(us_per_op(Duration::from_millis(1), 10), "100.0");
        assert_eq!(us_per_op(Duration::ZERO, 0), "-");
    }

    #[test]
    fn slot_roundtrip() {
        let (w, r) = slot::<u32>();
        *w.lock().unwrap() = Some(7);
        assert_eq!(take(r), 7);
    }
}
