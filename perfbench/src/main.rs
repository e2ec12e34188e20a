//! `tfc-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload incast_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation measures one workload. Every measured run executes in
//! a child process of this binary, so peak RSS is isolated per run and
//! no run inherits another's heap. With `--trace 0` the parent repeats
//! untraced runs until `--seconds` have passed and reports the
//! end-to-end metrics (host times as medians over the runs, simulated
//! metrics from the first run: they repeat exactly). With `--trace 1` it
//! makes one traced run, then untraced runs for the rest of the time,
//! and reports the per-layer metrics of the traced run plus its overhead
//! over the untraced median. Either way the outputs are checked, each
//! metric is printed with its unit and time base, the full result with
//! provenance is written under `perfbench/out/`, and the last line of
//! standard output is the JSON summary.
//!
//! See `perfbench/README.md` for the workloads and every metric.

mod adapters;
mod check;
mod run;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use telemetry::json::{self, Map, Value};

use crate::run::Sample;
use crate::workload::{Inputs, Workload};

/// Whether a metric is wall-clock time on the host or a quantity of the
/// simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    Host,
    Sim,
}

impl Base {
    fn label(self) -> &'static str {
        match self {
            Base::Host => "host",
            Base::Sim => "simulated",
        }
    }
}

/// `(name, unit, time base)` of every end-to-end metric.
const END_TO_END: &[(&str, &str, Base)] = &[
    ("setup_s", "s", Base::Host),
    ("run_s", "s", Base::Host),
    ("export_s", "s", Base::Host),
    ("peak_rss_mb", "MB", Base::Host),
    ("short_fct_p50_us", "us", Base::Sim),
    ("short_fct_p99_us", "us", Base::Sim),
    ("slowdown_p99", "ratio", Base::Sim),
];

/// End-to-end metrics reported as the median over the run's samples;
/// the rest repeat exactly and come from the first sample.
const HOST_MEDIANS: &[&str] = &["setup_s", "run_s", "export_s", "peak_rss_mb"];

/// `(name, unit, time base)` of every per-layer metric, all from the
/// traced run except `trace_overhead`.
const PER_LAYER: &[(&str, &str, Base)] = &[
    ("topology.build_s", "s", Base::Host),
    ("sim.new_s", "s", Base::Host),
    ("workload.install_s", "s", Base::Host),
    ("handlers.arrival.count", "count", Base::Sim),
    ("handlers.arrival.s", "s", Base::Host),
    ("handlers.arrival.batch_factor", "ratio", Base::Sim),
    ("handlers.tx_done.count", "count", Base::Sim),
    ("handlers.tx_done.s", "s", Base::Host),
    ("handlers.nic_enqueue.count", "count", Base::Sim),
    ("handlers.nic_enqueue.s", "s", Base::Host),
    ("handlers.host_timer.count", "count", Base::Sim),
    ("handlers.policy_timer.count", "count", Base::Sim),
    ("handlers.policy_timer.s", "s", Base::Host),
    ("handlers.app_timer.count", "count", Base::Sim),
    ("handlers.app_timer.s", "s", Base::Host),
    ("handlers.fault.count", "count", Base::Sim),
    ("sched.self_s", "s", Base::Host),
    ("sched.ns_per_event", "ns", Base::Host),
    ("tfc.switch.calls", "count", Base::Sim),
    ("tfc.switch.s", "s", Base::Host),
    ("tfc.switch.ns_per_call", "ns", Base::Host),
    ("tfc.token_wait_mean_us", "us", Base::Sim),
    ("simnet.fabric_self_s", "s", Base::Host),
    ("simnet.ns_per_arrival", "ns", Base::Host),
    ("transport.calls", "count", Base::Sim),
    ("transport.s", "s", Base::Host),
    ("transport.timeouts", "count", Base::Sim),
    ("transport.retransmits", "count", Base::Sim),
    ("app.s", "s", Base::Host),
    ("flowtable.slab_capacity", "count", Base::Sim),
    ("flowtable.slab_peak", "count", Base::Sim),
    ("arena.capacity", "count", Base::Sim),
    ("arena.allocated", "count", Base::Sim),
    ("telemetry.events_recorded", "count", Base::Sim),
    ("export.bytes", "bytes", Base::Host),
    ("queue.sw_q_mean_us", "us", Base::Sim),
    ("drops.queue", "count", Base::Sim),
    ("drops.fault", "count", Base::Sim),
    ("drops.no_route", "count", Base::Sim),
    ("events.total", "count", Base::Sim),
    ("sim_end_ns", "ns", Base::Sim),
    ("trace_overhead", "ratio", Base::Host),
];

/// Untraced runs per invocation, at least.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num(value)?),
            "--seconds" => seconds = Some(num(value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.unwrap_or(false),
    })
}

/// Where results, artifacts and spans go: `perfbench/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn export_name(args: &Args, traced: bool) -> String {
    let mode = if traced { "traced" } else { "untraced" };
    format!(
        "perfbench-{}-seed{}-{mode}",
        args.workload.name(),
        args.seed
    )
}

/// Child mode: one run, its sample as JSON on standard output.
fn child(args: &Args) -> ExitCode {
    let inputs = Inputs::generate(args.workload, args.seed);
    let export = export_name(args, args.trace);
    let spans = args
        .trace
        .then(|| out_dir().join(format!("{export}.spans.jsonl")));
    let s = run::run_once(&inputs, Some(&export), args.trace, spans.as_deref());
    println!("{}", s.to_json().pretty());
    ExitCode::SUCCESS
}

fn spawn(args: &Args, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            "0",
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .env("TFC_RESULTS_DIR", out_dir().join("results"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    if !out.status.success() {
        return Err(format!("run exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("run output: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("run output: {e}"))?;
    Sample::from_json(&doc).map_err(|e| format!("run output: {e}"))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let is_child = raw.first().is_some_and(|a| a == "--child");
    if is_child {
        raw.remove(0);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tfc-perfbench: {e}");
            eprintln!(
                "usage: tfc-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir().join("results")) {
        eprintln!("tfc-perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    if is_child {
        return child(&args);
    }
    match measure(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tfc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn measure(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let traced = if args.trace {
        Some(spawn(args, true)?)
    } else {
        None
    };
    let min_runs = if args.trace { 1 } else { MIN_RUNS };
    let mut untraced = Vec::new();
    while untraced.len() < min_runs || t0.elapsed().as_secs_f64() < args.seconds {
        untraced.push(spawn(args, false)?);
    }
    let mut all = untraced.clone();
    all.extend(traced.iter().cloned());
    let verdict = check::verify(args.workload, &all);
    for p in &verdict.problems {
        eprintln!("tfc-perfbench: check failed: {p}");
    }

    let median_of = |name: &str| median(untraced.iter().map(|s| s.get(name)).collect());
    let mut metrics: Vec<(&str, &str, Base, f64)> = Vec::new();
    if let Some(t) = &traced {
        for &(name, unit, base) in PER_LAYER {
            let v = if name == "trace_overhead" {
                t.get("run_s") / median_of("run_s")
            } else {
                t.get(name)
            };
            metrics.push((name, unit, base, v));
        }
    } else {
        for &(name, unit, base) in END_TO_END {
            let v = if HOST_MEDIANS.contains(&name) {
                median_of(name)
            } else {
                untraced[0].get(name)
            };
            metrics.push((name, unit, base, v));
        }
    }

    let nproc = command_line("nproc", &[]);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = telemetry::export::git_describe();
    let rustc = command_line("rustc", &["-V"]);
    let provenance = telemetry::json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc.as_str(),
        "available_parallelism": parallelism,
        "git_describe": git.as_str(),
        "rustc": rustc.as_str(),
        "untraced_runs": untraced.len(),
    });
    let metric_json: Map = metrics
        .iter()
        .map(|&(name, unit, base, v)| {
            (
                name.to_string(),
                telemetry::json!({"value": v, "unit": unit, "time_base": base.label()}),
            )
        })
        .collect();
    let result = telemetry::json!({
        "schema": "tfc-perfbench/v1",
        "provenance": provenance,
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": Value::Array(verdict.problems.iter().map(|p| Value::from(p.as_str())).collect()),
        "metrics": Value::Object(metric_json),
        "untraced": Value::Array(untraced.iter().map(Sample::to_json).collect()),
        "traced": traced.as_ref().map_or(Value::Null, Sample::to_json),
    });
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, result.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;

    println!(
        "# {} seed {} ({} untraced run(s){}), nproc {nproc}, available_parallelism {parallelism}, {rustc}, git {git}",
        args.workload.name(),
        args.seed,
        untraced.len(),
        if args.trace { " + 1 traced" } else { "" },
    );
    for &(name, unit, base, v) in &metrics {
        println!("{name:<32} {v:>16.6} {unit:<6} {}", base.label());
    }
    println!("# full result: {}", path.display());
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, _, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let declared = |table: &[(&str, &str, Base)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), declared(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload fat_tree_faults --seed 3 --seconds 5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(ok.workload, Workload::FatTreeFaults);
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 5.0);
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload incast_mix --seconds 1",
            "--workload incast_mix --seed x --seconds 1",
            "--workload incast_mix --seed 1 --seconds 1 --trace 2",
            "--workload incast_mix --seed 1 --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
