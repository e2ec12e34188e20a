//! Reliability under injected loss: every protocol must deliver the
//! exact byte stream despite drops, recovering by fast retransmit or
//! RTO. Loss is injected deterministically at the switch, and every
//! policy drop is counted, logged and freed like any other drop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simnet::app::NullApp;
use simnet::endpoint::{FlowSpec, ProtocolStack};
use simnet::packet::{thread_packet_clones, Packet};
use simnet::policy::{EgressVerdict, PeriodicLoss, PolicyFx, SwitchPolicy};
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use simnet::NodeId;
use telemetry::json::{self, Value};
use telemetry::{LogMode, TelemetryConfig, TraceConfig, TraceEvent};
use tfc::TfcStack;
use transport::{DctcpStack, TcpStack};

const FLOW_BYTES: u64 = 400_000;

fn run_with_loss(stack: Box<dyn ProtocolStack>, period: u64) -> (u64, u64, u64) {
    let (t, hosts, _) = star(2, Bandwidth::gbps(1), Dur::micros(1));
    let net = t.build(move |_, _| Box::new(PeriodicLoss::new(period)));
    let mut sim = Simulator::new(
        net,
        stack,
        NullApp,
        SimConfig {
            // Generous bound: multiple RTO backoffs fit.
            end: Some(Time(Dur::secs(30).as_nanos())),
            ..Default::default()
        },
    );
    let flow = sim.core_mut().start_flow(FlowSpec {
        src: hosts[0],
        dst: hosts[1],
        bytes: Some(FLOW_BYTES),
        weight: 1,
    });
    sim.run();
    let st = sim.core().flow(flow);
    assert!(
        st.receiver_done_at.is_some(),
        "flow did not complete under loss period {period}"
    );
    (st.delivered, st.retransmits, st.timeouts)
}

#[test]
fn tcp_delivers_exactly_under_loss() {
    for period in [7, 23, 101] {
        let (delivered, retx, _) = run_with_loss(Box::new(TcpStack::default()), period);
        assert_eq!(delivered, FLOW_BYTES);
        assert!(retx > 0, "loss must have caused retransmissions");
    }
}

#[test]
fn dctcp_delivers_exactly_under_loss() {
    let (delivered, retx, _) = run_with_loss(Box::new(DctcpStack::default()), 13);
    assert_eq!(delivered, FLOW_BYTES);
    assert!(retx > 0);
}

#[test]
fn tfc_delivers_exactly_under_loss() {
    for period in [7, 23, 101] {
        let (delivered, retx, _) = run_with_loss(Box::new(TfcStack::default()), period);
        assert_eq!(delivered, FLOW_BYTES);
        assert!(retx > 0);
    }
}

#[test]
fn heavy_loss_still_completes() {
    // Every 3rd data packet dropped: recovery leans on RTO chains.
    let (delivered, _, timeouts) = run_with_loss(Box::new(TcpStack::default()), 3);
    assert_eq!(delivered, FLOW_BYTES);
    let _ = timeouts; // may or may not fire depending on dup-ACK supply
}

/// [`PeriodicLoss`] that also counts the drops it asks for, so the
/// simulator's own accounting can be checked against the policy's.
struct CountedLoss {
    inner: PeriodicLoss,
    dropped: Arc<AtomicU64>,
}

impl SwitchPolicy for CountedLoss {
    fn on_egress(
        &mut self,
        out_port: usize,
        pkt: &mut Packet,
        queue_bytes: u64,
        now: Time,
        fx: &mut PolicyFx,
    ) -> EgressVerdict {
        let verdict = self.inner.on_egress(out_port, pkt, queue_bytes, now, fx);
        if verdict == EgressVerdict::Drop {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }
}

/// The two-host TCP run of [`run_with_loss`] at period 7, with every
/// telemetry channel on: the full event log, a span for every flow,
/// slot gauges, and artifact export when `export` names the run.
/// Returns the simulator, the switch, and the policy's drop counter.
fn lossy_traced_sim(export: Option<&str>) -> (Simulator<NullApp>, NodeId, Arc<AtomicU64>) {
    let (t, hosts, sw) = star(2, Bandwidth::gbps(1), Dur::micros(1));
    let dropped = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&dropped);
    let net = t.build(move |_, _| {
        Box::new(CountedLoss {
            inner: PeriodicLoss::new(7),
            dropped: Arc::clone(&counter),
        })
    });
    let mut sim = Simulator::new(
        net,
        Box::new(TcpStack::default()),
        NullApp,
        SimConfig {
            end: Some(Time(Dur::secs(30).as_nanos())),
            telemetry: TelemetryConfig {
                events: LogMode::Full,
                tfc_gauges: true,
                trace: TraceConfig::Full,
                export: export.map(str::to_string),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sim.core_mut()
        .start_flow(FlowSpec::sized(hosts[0], hosts[1], FLOW_BYTES));
    (sim, sw, dropped)
}

/// Regression for the policy drop that freed its packet silently: an
/// `EgressVerdict::Drop` bumps `PortStats::policy_drops` and records a
/// `pkt_drop` event, and the exported count agrees with both.
#[test]
fn policy_drops_are_counted_and_exported() {
    let tmp = std::env::temp_dir().join("tfc_reliability_policy_drops");
    std::fs::remove_dir_all(&tmp).ok();
    std::env::set_var("TFC_RESULTS_DIR", &tmp);

    let (mut sim, sw, dropped) = lossy_traced_sim(Some("policy-drops"));
    sim.run();
    let core = sim.core();
    let dropped = dropped.load(Ordering::Relaxed);
    assert!(dropped > 0, "period 7 must drop data packets");
    let stats: Vec<_> = (0..2).map(|p| core.port_stats(sw, p)).collect();
    let policy_drops: u64 = stats.iter().map(|s| s.policy_drops).sum();
    assert_eq!(policy_drops, dropped, "stats: {stats:?}");

    let dir = experiments::artifacts::maybe_export(core, "star-2", "periodic-loss-7")
        .expect("artifacts exported");
    let counters = json::parse(&std::fs::read_to_string(dir.join("counters.json")).unwrap())
        .expect("counters.json parses");
    let exported = counters
        .get("events")
        .and_then(|e| e.get("pkt_drop"))
        .and_then(Value::as_i64)
        .expect("counters.events.pkt_drop");
    assert_eq!(exported as u64, dropped, "every policy drop is logged once");
    assert!(
        core.packet_arena().is_empty(),
        "{} slots leaked",
        core.packet_arena().live()
    );

    std::fs::remove_dir_all(&tmp).ok();
    std::env::remove_var("TFC_RESULTS_DIR");
}

/// Regression for the per-packet `pkt.clone()` a packet-event log once
/// took: a lossy run with every telemetry channel on (arrivals, drops
/// and deliveries all recorded) clones zero packets and leaks no arena
/// slot.
#[test]
fn logged_run_clones_no_packets_and_leaks_no_slots() {
    let (mut sim, _, _) = lossy_traced_sim(None);
    let clones_before = thread_packet_clones();
    sim.run();
    assert_eq!(
        thread_packet_clones(),
        clones_before,
        "hot path must not clone packets"
    );
    let log = &sim.core().telemetry().log;
    assert!(log
        .records()
        .iter()
        .any(|r| matches!(r.event, TraceEvent::PktDrop { .. })));
    let arena = sim.core().packet_arena();
    assert!(arena.allocated_total() > 0);
    assert!(arena.is_empty(), "{} packet slots leaked", arena.live());
}
