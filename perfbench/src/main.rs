//! Command line for the proxide benchmark.
//!
//! ```text
//! perfbench --workload <kv-lan|fleet-mc|bulk-wan|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and sample count, then, as
//! the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits nonzero when an output check fails. Run it from the root of a
//! checkout (`cargo run --release --manifest-path perfbench/Cargo.toml
//! -- ...`); the traced run writes its spans under `perfbench/out/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::runner::{self, Opts, Outcome};
use perfbench::{sys, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// FNV-1a over the workspace sources the benchmark builds, so a result
/// can be matched to the code it measured without a git checkout.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

/// The commit checked out in the working directory, read from `.git`:
/// `unknown` where there is none (a checkout need not be a repository).
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

fn print_outcome(a: &Args, wl: Workload, out: &Outcome) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={} git_rev={} source={}",
        wl.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        sys::host_cores(),
        git_rev(),
        source_fingerprint(),
    );
    println!("fingerprint {}", out.fingerprint);
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        let na = if m.applicable {
            ""
        } else {
            " NOT APPLICABLE on this workload"
        };
        println!(
            "metric {} = {} {} [{}]{na}",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    for p in &out.problems {
        println!("CHECK FAILED {p}");
        eprintln!("CHECK FAILED {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{}",
        result_line(
            out.correct(),
            out.attempted,
            out.failed,
            &metrics.join(", ")
        )
    );
}

/// Runs every workload in its own child process (so peak memory is
/// per workload) and summarises.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut summary = Vec::new();
    for wl in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", wl.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        let child = match cmd.output() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: could not run {}: {e}", wl.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let ok = child.status.success() && last.starts_with("{\"correct\": true");
        correct &= ok;
        let field = |k: &str| -> u64 {
            last.split(&format!("\"{k}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        let metrics = last
            .split_once("\"metrics\": ")
            .map_or("{}", |(_, m)| &m[..m.len().saturating_sub(1)]);
        summary.push(format!("\"{}\": {metrics}", wl.name()));
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, &summary.join(", "))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let Some(wl) = Workload::from_name(&a.workload) else {
        eprintln!("perfbench: unknown workload {}", a.workload);
        return ExitCode::from(2);
    };
    let out = runner::run(&Opts {
        workload: wl,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        small: false,
        out_dir: Some(PathBuf::from("perfbench/out")),
    });
    print_outcome(&a, wl, &out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
