//! Fault-injection integration: chaos runs are byte-reproducible,
//! `close_flow` is safe on dead flows, and injected faults actually
//! hurt — and heal.

use std::fs;

use experiments::faults::{self, FaultsConfig, Scenario};
use experiments::Proto;
use simnet::app::NullApp;
use chaos::FaultTimeline;
use simnet::endpoint::FlowSpec;
use simnet::packet::{FlowId, NodeId};
use simnet::policy::DropTail;
use simnet::sim::{SimConfig, Simulator, TargetError};
use simnet::topology::star;
use simnet::units::{Bandwidth, Dur, Time};
use transport::TcpStack;

/// Identical seed + identical fault timeline ⇒ byte-identical artifact
/// bundles, file for file. (The chaos configs keep wall-clock profiling
/// off precisely so this holds.)
#[test]
fn identical_chaos_runs_export_byte_identical_artifacts() {
    let tmp = std::env::temp_dir().join("tfc_chaos_determinism");
    fs::remove_dir_all(&tmp).ok();
    std::env::set_var("TFC_RESULTS_DIR", &tmp);

    let cfg = FaultsConfig::exporting(Proto::Tfc, Scenario::LinkFlap, "det");
    let first = faults::run(&cfg).export_dir.expect("artifacts exported");
    let keep = tmp.join("det-first");
    fs::rename(&first, &keep).expect("stash first run");
    let second = faults::run(&cfg).export_dir.expect("artifacts exported");

    for name in [
        "manifest.json",
        "counters.json",
        "events.json",
        "flows.json",
        "tfc_slots.csv",
    ] {
        let a = fs::read(keep.join(name)).expect(name);
        let b = fs::read(second.join(name)).expect(name);
        assert!(a == b, "{name} differs between identical chaos runs");
    }

    fs::remove_dir_all(&tmp).ok();
    std::env::remove_var("TFC_RESULTS_DIR");
}

/// A fault can kill a flow's endpoint state behind the workload's back;
/// closing a flow that already finished (sender torn down at FIN),
/// closing it again, or closing one that never existed must all be
/// silent no-ops.
/// A timeline naming a target the network does not have is refused
/// whole when it is installed, not when the bad entry fires: nothing of
/// it is scheduled, so the run processes no event at all.
#[test]
fn fault_target_timeline_with_a_bad_entry_installs_nothing() {
    let (t, hosts, sw) = star(3, Bandwidth::gbps(1), Dur::micros(1));
    let net = t.build(|_, _| Box::new(DropTail));
    let mut sim = Simulator::new(net, Box::new(TcpStack::default()), NullApp, SimConfig::default());
    let good = FaultTimeline::new().link_flap(Time(1_000), Dur::micros(5), sw, 0);
    let cases = [
        (
            good.clone().policy_reset(Time(2_000), hosts[0], 0),
            TargetError::NotASwitch(hosts[0]),
        ),
        (
            good.clone().host_stall(Time(2_000), Dur::micros(5), sw),
            TargetError::NotAHost(sw),
        ),
        (
            good.clone().loss_burst(Time(2_000), Dur::micros(5), sw, 3, 10),
            TargetError::NoSuchPort { node: sw, port: 3, ports: 3 },
        ),
        (
            good.clone().link_flap(Time(2_000), Dur::micros(5), NodeId(99), 0),
            TargetError::UnknownNode(NodeId(99)),
        ),
    ];
    for (timeline, want) in cases {
        assert_eq!(timeline.try_install(sim.core_mut()), Err(want));
    }
    sim.run();
    assert_eq!(sim.core().events_processed(), 0, "a refused timeline scheduled nothing");
}

#[test]
fn closing_a_dead_or_unknown_flow_is_a_no_op() {
    let (t, hosts, _) = star(3, Bandwidth::gbps(1), Dur::micros(1));
    let net = t.build(|_, _| Box::new(DropTail));
    let mut sim = Simulator::new(
        net,
        Box::new(TcpStack::default()),
        NullApp,
        SimConfig {
            seed: 7,
            end: Some(Time(Dur::secs(2).as_nanos())),
            ..Default::default()
        },
    );
    let f = sim.core_mut().start_flow(FlowSpec {
        src: hosts[0],
        dst: hosts[1],
        bytes: Some(50_000),
        weight: 1,
    });
    sim.run();
    assert!(
        sim.core().flow(f).receiver_done_at.is_some(),
        "flow should complete"
    );
    let delivered = sim.core().flow(f).delivered;
    sim.core_mut().close_flow(f);
    sim.core_mut().close_flow(f);
    sim.core_mut().close_flow(FlowId(u64::MAX));
    assert_eq!(sim.core().flow(f).delivered, delivered);
}

/// A loss burst on the bottleneck forces real drops, and they are
/// attributed to the fault, not to queue overflow — TFC keeps the queue
/// bounded even while the link is lossy. (No recovery assertion: TFC
/// assumes a lossless fabric and has no fast loss recovery, so stalled
/// flows sit out the 200 ms minimum RTO, past this horizon.)
#[test]
fn loss_burst_drops_are_attributed_to_the_fault() {
    let r = faults::run(&FaultsConfig::scaled(Proto::Tfc, Scenario::LossBurst));
    assert!(r.fault_drops > 0, "a 10% loss window must drop packets");
    assert_eq!(r.queue_drops, 0, "TFC must not overflow the queue");
    assert!(r.delivered > 0);
    assert!(r.dip.is_some(), "pre-fault baseline exists");
}

/// A mid-run rate renegotiation (1 Gbps → 100 Mbps → 1 Gbps) dips
/// goodput to roughly the degraded rate and recovers after restore.
#[test]
fn rate_dip_degrades_and_recovers() {
    let r = faults::run(&FaultsConfig::scaled(Proto::Tfc, Scenario::RateDip));
    let dip = r.dip.expect("pre-fault baseline exists");
    assert!(
        dip.depth > 0.5,
        "a 10x rate dip must show up in goodput (depth {:.2})",
        dip.depth
    );
    assert!(
        dip.recovery_ns.is_some(),
        "goodput must recover after the rate is restored"
    );
}
