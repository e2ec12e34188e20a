//! One measured run of a workload: setup, `Simulator::run`, export,
//! then the outcome the checks and metrics read. Untraced runs time the
//! phases around public calls only; a traced run also wraps the plug-in
//! traits in the timing adapters and turns on the handler profile and
//! sampled lifecycle spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use simnet::app::Application;
use simnet::endpoint::ProtocolStack;
use simnet::policy::SwitchPolicy;
use simnet::sim::{SimCore, Simulator};
use telemetry::json::{Map, Value};
use telemetry::span::STAGE_SW_Q;

use crate::adapters::{self, Layer, TimedApp, TimedPolicy, TimedStack};
use crate::workload::{build_network, tfc_stack, Inputs, ReplayApp, SHORT_FLOW_BYTES};

/// What one run measured, by metric name, plus the outcome digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Digest of the simulated outcome: event count, simulated end
    /// time, delivered bytes and every flow's completion time.
    pub digest: u64,
    /// Named values (host seconds, simulated quantities, counts).
    pub values: BTreeMap<String, f64>,
}

impl Sample {
    /// A named value, or 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// `{"digest": "<hex>", "values": {...}}`, the form a run hands to
    /// the parent and the result file keeps.
    pub fn to_json(&self) -> Value {
        let values: Map = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect();
        telemetry::json!({
            "digest": format!("{:016x}", self.digest).as_str(),
            "values": Value::Object(values),
        })
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let digest = doc
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or("no digest")?;
        let Some(Value::Object(values)) = doc.get("values") else {
            return Err("no values".into());
        };
        let values = values
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or(format!("{k} is not a number"))?)))
            .collect::<Result<_, String>>()?;
        Ok(Sample { digest, values })
    }
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank quantile of an ascending slice (`None` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Peak resident set size of this process, in kB (`VmHWM`).
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs `inputs` once. `traced` wraps the plug-in traits and enables
/// the profile and spans; the artifact bundle goes to
/// `$TFC_RESULTS_DIR/<export>/` (no export when `None`), and a traced
/// run's spans to `spans`.
pub fn run_once(
    inputs: &Inputs,
    export: Option<&str>,
    traced: bool,
    spans: Option<&Path>,
) -> Sample {
    if traced {
        adapters::begin(1);
        let wrap = |p: Box<dyn SwitchPolicy>| Box::new(TimedPolicy(p)) as Box<dyn SwitchPolicy>;
        let stack = |s| Box::new(TimedStack(s)) as Box<dyn ProtocolStack>;
        let mut sample = execute(inputs, export, true, wrap, stack, TimedApp);
        let trace = adapters::finish();
        if let Some(path) = spans {
            if let Err(e) = trace.write_spans(path) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        add_trace(&mut sample, &trace);
        sample
    } else {
        let mut setups = warm_setups(inputs);
        let mut sample = execute(inputs, export, false, |p| p, |s| s, |a| a);
        setups.push(sample.get("setup_s"));
        setups.sort_by(f64::total_cmp);
        sample.set("setup_s", setups[setups.len() / 2]);
        sample
    }
}

/// Untraced setups repeated before the measured one, while they stay
/// cheap (at most [`SETUP_REPEATS`] of them within [`SETUP_BUDGET_S`]),
/// so that a millisecond-scale `setup_s` is a median rather than one
/// cold sample. Returns each one's seconds.
fn warm_setups(inputs: &Inputs) -> Vec<f64> {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < SETUP_REPEATS && t0.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        let net = build_network(inputs.fabric, |p| p);
        let app = ReplayApp::new(inputs.schedule.clone());
        let mut sim = Simulator::new(net, tfc_stack(), app, inputs.sim_config(None, false));
        inputs.faults.install(sim.core_mut());
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// Most exports per run.
const EXPORT_REPEATS: usize = 9;
/// Stop repeating the export once it took this long in total.
const EXPORT_BUDGET_S: f64 = 0.25;

/// Most extra setups per run.
const SETUP_REPEATS: usize = 8;
/// Stop repeating setups once they took this long in total.
const SETUP_BUDGET_S: f64 = 0.05;

/// The run itself, generic over the adapters so the traced and
/// untraced paths share every line.
pub fn execute<A: Application + AsRef<ReplayApp>>(
    inputs: &Inputs,
    export: Option<&str>,
    traced: bool,
    wrap_policy: impl Fn(Box<dyn SwitchPolicy>) -> Box<dyn SwitchPolicy>,
    wrap_stack: impl FnOnce(Box<dyn ProtocolStack>) -> Box<dyn ProtocolStack>,
    wrap_app: impl FnOnce(ReplayApp) -> A,
) -> Sample {
    let (net, topology_s) = timed(traced, Layer::Topology, || {
        build_network(inputs.fabric, &wrap_policy)
    });
    let cfg = inputs.sim_config(export, traced);
    let app = wrap_app(ReplayApp::new(inputs.schedule.clone()));
    let stack = wrap_stack(tfc_stack());
    let (mut sim, new_s) = timed(traced, Layer::SimNew, || {
        Simulator::new(net, stack, app, cfg)
    });
    let ((), install_s) = timed(traced, Layer::Install, || {
        inputs.faults.install(sim.core_mut())
    });
    let ((), run_s) = timed(traced, Layer::Run, || sim.run());
    // The export is repeated (rewriting the same bundle) while it stays
    // cheap, and its median reported: a few-millisecond write is
    // otherwise one noisy sample.
    let mut export_dir = None;
    let mut exports = Vec::new();
    while exports.is_empty()
        || (exports.len() < EXPORT_REPEATS && exports.iter().sum::<f64>() < EXPORT_BUDGET_S)
    {
        let (dir, secs) = timed(traced, Layer::Export, || {
            experiments::artifacts::maybe_export(
                sim.core(),
                inputs.fabric.describe(),
                inputs.workload.name(),
            )
        });
        export_dir = dir;
        exports.push(secs);
    }
    exports.sort_by(f64::total_cmp);
    let export_s = exports[exports.len() / 2];

    let mut s = outcome(inputs, sim.core(), sim.app().as_ref());
    s.set("topology.build_s", topology_s);
    s.set("sim.new_s", new_s);
    s.set("workload.install_s", install_s);
    s.set("setup_s", topology_s + new_s + install_s);
    s.set("run_s", run_s);
    s.set("export_s", export_s);
    s.set(
        "export.bytes",
        export_dir.as_deref().map_or(0, dir_bytes) as f64,
    );
    if traced {
        add_profile(&mut s, sim.core());
    }
    s.set("peak_rss_mb", peak_rss_kb() / 1024.0);
    s
}

/// Runs `f`, inside a span of `layer` when `traced`, and returns its
/// result with its wall-clock seconds.
fn timed<R>(traced: bool, layer: Layer, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = if traced {
        adapters::span(layer, f)
    } else {
        f()
    };
    (out, t0.elapsed().as_secs_f64())
}

impl AsRef<ReplayApp> for ReplayApp {
    fn as_ref(&self) -> &ReplayApp {
        self
    }
}

impl<A> AsRef<ReplayApp> for TimedApp<A>
where
    A: AsRef<ReplayApp>,
{
    fn as_ref(&self) -> &ReplayApp {
        self.0.as_ref()
    }
}

/// Simulated outcome, output-check inputs and the digest.
fn outcome(inputs: &Inputs, core: &SimCore, app: &ReplayApp) -> Sample {
    let mut s = Sample::default();
    let mut h = Fnv::default();
    h.word(core.events_processed());
    h.word(core.now().nanos());
    h.word(app.delivered());
    for f in app.fct_ns() {
        h.word(f.unwrap_or(u64::MAX));
    }
    s.digest = h.finish();

    let edge = inputs.fabric.edge_rate();
    let base = inputs.fabric.base_rtt().as_nanos();
    let mut short = Vec::new();
    let mut slowdown = Vec::new();
    for (a, f) in app.schedule().iter().zip(app.fct_ns()) {
        let Some(fct) = *f else { continue };
        if a.bytes <= SHORT_FLOW_BYTES {
            short.push(fct as f64 / 1e3);
        }
        let ideal = base + edge.serialize(a.bytes).as_nanos();
        slowdown.push(fct as f64 / ideal as f64);
    }
    short.sort_by(f64::total_cmp);
    slowdown.sort_by(f64::total_cmp);
    s.set("short_fct_p50_us", quantile(&short, 0.50).unwrap_or(0.0));
    s.set("short_fct_p99_us", quantile(&short, 0.99).unwrap_or(0.0));
    s.set("slowdown_p99", quantile(&slowdown, 0.99).unwrap_or(0.0));

    let (mut queue, mut fault, mut no_route) = (0u64, 0u64, 0u64);
    for (&sw, ports) in core.switch_ids().iter().zip(inputs.fabric.switch_ports()) {
        for p in 0..ports {
            let st = core.port_stats(sw, p);
            queue += st.drops;
            fault += st.fault_drops;
            no_route += st.no_route_drops;
        }
    }
    s.set("drops.queue", queue as f64);
    s.set("drops.fault", fault as f64);
    s.set("drops.no_route", no_route as f64);

    let (slab_live, slab_peak, slab_capacity) = core.flow_slab_stats();
    s.set("flows_started", app.started() as f64);
    s.set("flows_completed", app.completed() as f64);
    s.set("flows_bad_size", app.bad_size() as f64);
    s.set(
        "flows_retired",
        core.retirer().map_or(0, |r| r.total()) as f64,
    );
    s.set("flows_loss_exposed", inputs.loss_exposed as f64);
    s.set("flowtable.slab_live", slab_live as f64);
    s.set("flowtable.slab_peak", slab_peak as f64);
    s.set("flowtable.slab_capacity", slab_capacity as f64);
    let arena = core.packet_arena();
    s.set("arena.capacity", arena.capacity() as f64);
    s.set("arena.allocated", arena.allocated_total() as f64);
    s.set("events.total", core.events_processed() as f64);
    s.set("sim_end_ns", core.now().nanos() as f64);
    s.set("delivered_bytes", app.delivered() as f64);
    let log = &core.telemetry().log;
    s.set(
        "telemetry.events_recorded",
        log.counts().iter().sum::<u64>() as f64,
    );
    // Without retirement every flow stays in the table: cross-check
    // the app's completion records against the simulator's.
    if core.retirer().is_none() {
        let bad = core
            .flows()
            .filter(|(_, st)| {
                st.receiver_done_at.is_some()
                    && !crate::workload::size_ok(st.spec.bytes, st.delivered)
            })
            .count();
        s.set("flows_bad_size", (app.bad_size() as usize).max(bad) as f64);
    }
    s
}

/// Handler profile and lifecycle-span quantiles of a traced run.
fn add_profile(s: &mut Sample, core: &SimCore) {
    let tel = core.telemetry();
    let mut handler_ns = 0u64;
    for (name, count, batches, ns) in tel.loop_stats.rows() {
        s.set(&format!("handlers.{name}.count"), count as f64);
        s.set(&format!("handlers.{name}.s"), ns as f64 / 1e9);
        if name == "arrival" {
            s.set(
                "handlers.arrival.batch_factor",
                count as f64 / batches.max(1) as f64,
            );
        }
        handler_ns += ns;
    }
    s.set("handlers.total_s", handler_ns as f64 / 1e9);
    // Mean of the sampled flows' switch queueing waits over every hop.
    // Sketch quantiles are bucket representatives that repeat exactly
    // across seeds; the sketch sums are exact.
    let (mut sum, mut count) = (0.0, 0u64);
    for hop in 0..=u8::MAX {
        if let Some(k) = tel.spans.sketch(STAGE_SW_Q, hop) {
            sum += k.sum();
            count += k.count();
        }
    }
    s.set("queue.sw_q_mean_us", sum / count.max(1) as f64 / 1e3);
}

/// Per-layer self times from the adapters' spans.
fn add_trace(s: &mut Sample, t: &adapters::Trace) {
    let sw = t.layer(Layer::Switch);
    let tr = t.layer(Layer::Transport);
    let app = t.layer(Layer::App);
    s.set("tfc.switch.calls", sw.calls as f64);
    s.set("tfc.switch.s", sw.total_ns as f64 / 1e9);
    s.set(
        "tfc.switch.ns_per_call",
        sw.total_ns as f64 / sw.calls.max(1) as f64,
    );
    s.set("transport.calls", tr.calls as f64);
    s.set("transport.s", tr.total_ns as f64 / 1e9);
    s.set("transport.timeouts", t.timeouts as f64);
    s.set("transport.retransmits", t.retransmits as f64);
    // A mean, not a p99: the arbiter's holds cluster on a few exact
    // values, so their p99 repeats exactly across seeds.
    let waits = &t.token_waits;
    let mean_ns = waits.iter().sum::<u64>() as f64 / waits.len().max(1) as f64;
    s.set("tfc.token_wait_mean_us", mean_ns / 1e3);
    s.set("app.s", app.self_ns as f64 / 1e9);
    let handler_ns = s.get("handlers.total_s") * 1e9;
    // Switch hooks only run inside handlers; transport calls run inside
    // handlers except those nested in application callbacks.
    let in_handlers = sw.total_ns as f64 + (tr.total_ns - t.transport_in_app_ns) as f64;
    let fabric_ns = (handler_ns - in_handlers).max(0.0);
    s.set("simnet.fabric_self_s", fabric_ns / 1e9);
    s.set(
        "simnet.ns_per_arrival",
        fabric_ns / s.get("handlers.arrival.count").max(1.0),
    );
    let run_ns = t.layer(Layer::Run).total_ns as f64;
    let sched_ns = (run_ns - handler_ns - app.total_ns as f64).max(0.0);
    s.set("sched.self_s", sched_ns / 1e9);
    s.set(
        "sched.ns_per_event",
        sched_ns / s.get("events.total").max(1.0),
    );
}

#[cfg(test)]
mod tests {
    use chaos::FaultTimeline;
    use simnet::packet::NodeId;
    use simnet::retire::RetireConfig;
    use simnet::units::{Bandwidth, Dur, Time};
    use telemetry::LogMode;

    use super::*;
    use crate::workload::{Arrival, Fabric, Workload};

    /// A 3 × 4 leaf-spine with an 11-way incast, cross-rack pairs, a
    /// link flap and a loss burst, optionally with flow retirement.
    fn small(retire: bool) -> Inputs {
        let fabric = Fabric::LeafSpine {
            leaves: 3,
            hosts_per_leaf: 4,
            edge: Bandwidth::gbps(1),
            up: Bandwidth::gbps(10),
            delay: Dur::micros(20),
        };
        let host = |i: u32| NodeId(i);
        let mut schedule: Vec<Arrival> = (1..12)
            .map(|i| Arrival {
                at_ns: 50_000,
                src: host(i),
                dst: host(0),
                bytes: 2_000,
                class: 0,
            })
            .collect();
        schedule.extend((0..24u32).map(|i| Arrival {
            at_ns: 100_000 + u64::from(i) * 70_000,
            src: host(i % 12),
            dst: host((i + 5) % 12),
            bytes: 3_000 + u64::from(i) * 9_000,
            class: (i % 2) as u8,
        }));
        let (_, _, switches) = fabric.shape();
        Inputs {
            workload: Workload::IncastMix,
            fabric,
            schedule,
            faults: FaultTimeline::new()
                .link_flap(Time(400_000), Dur::micros(300), switches[1], 0)
                .loss_burst(Time(600_000), Dur::millis(1), switches[2], 1, 200),
            retire: retire.then(|| RetireConfig {
                classes: vec!["a".into(), "b".into()],
                ..RetireConfig::default()
            }),
            events: (LogMode::Ring(64), 4),
            loss_exposed: 0,
        }
    }

    #[test]
    fn timing_adapters_are_transparent() {
        for retire in [false, true] {
            let inputs = small(retire);
            let plain = execute(&inputs, None, false, |p| p, |s| s, |a| a);
            adapters::begin(1);
            let wrapped = execute(
                &inputs,
                None,
                false,
                |p| Box::new(TimedPolicy(p)) as Box<dyn SwitchPolicy>,
                |s| Box::new(TimedStack(s)) as Box<dyn ProtocolStack>,
                TimedApp,
            );
            let trace = adapters::finish();
            assert_eq!(plain.digest, wrapped.digest, "retire={retire}");
            for key in [
                "events.total",
                "sim_end_ns",
                "delivered_bytes",
                "flows_completed",
            ] {
                assert_eq!(plain.get(key), wrapped.get(key), "{key}, retire={retire}");
            }
            assert_eq!(plain.get("flows_completed"), 35.0);
            // The wrappers really were in the path.
            for layer in [Layer::Switch, Layer::Transport, Layer::App] {
                assert!(trace.layer(layer).calls > 0, "{layer:?} never called");
            }
            assert!(trace.retransmits > 0, "the loss burst forces retransmits");
        }
    }

    #[test]
    fn traced_run_matches_untraced_digest() {
        let inputs = small(false);
        let untraced = run_once(&inputs, None, false, None);
        let traced = run_once(&inputs, None, true, None);
        assert_eq!(untraced.digest, traced.digest);
        assert!(traced.get("tfc.switch.calls") > 0.0);
        assert!(traced.get("handlers.arrival.count") > 0.0);
        assert!(traced.get("sched.self_s") > 0.0);
    }

    #[test]
    fn samples_roundtrip_through_json() {
        let mut s = Sample {
            digest: 0xfeed_0000_beef_0001,
            ..Sample::default()
        };
        s.set("run_s", 1.234_567_891);
        s.set("events.total", 17_987_798.0);
        let text = s.to_json().pretty();
        let back = Sample::from_json(&telemetry::json::parse(&text).expect("parses"));
        assert_eq!(back, Ok(s));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
