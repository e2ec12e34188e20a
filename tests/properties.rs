//! Cross-crate property tests: whatever the topology, flow matrix, or
//! protocol, every sized flow delivers its exact byte count, and the
//! simulation is deterministic.

use rng::props::{cases, vec_u64};
use rng::Rng;
use simnet::app::NullApp;
use simnet::endpoint::{FlowSpec, ProtocolStack};
use simnet::fault::FaultAction;
use simnet::policy::{DropTail, EcnMark};
use simnet::sim::{SimConfig, Simulator};
use simnet::topology::{star, testbed};
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::{LogMode, TelemetryConfig};
use tfc::config::TfcSwitchConfig;
use tfc::{TfcStack, TfcSwitchPolicy};
use transport::{DctcpStack, TcpStack};
use workloads::{OnOffApp, OnOffFlow};

#[derive(Debug, Clone, Copy)]
enum Which {
    Tcp,
    Dctcp,
    Tfc,
}

fn stack(w: Which) -> Box<dyn ProtocolStack> {
    match w {
        Which::Tcp => Box::new(TcpStack::default()),
        Which::Dctcp => Box::new(DctcpStack::default()),
        Which::Tfc => Box::new(TfcStack::default()),
    }
}

fn run_matrix(w: Which, seed: u64, sizes: &[u64]) -> Vec<(u64, u64)> {
    // Star with enough hosts that src != dst pairs exist.
    let n = 4;
    let (t, hosts, _) = star(n, Bandwidth::gbps(1), Dur::micros(1));
    let net = match w {
        Which::Tcp => t.build(|_, _| Box::new(DropTail)),
        Which::Dctcp => t.build(|_, _| Box::new(EcnMark::new(32_000))),
        Which::Tfc => t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default())),
    };
    let mut sim = Simulator::new(
        net,
        stack(w),
        NullApp,
        SimConfig {
            seed,
            end: Some(Time(Dur::secs(20).as_nanos())),
            ..Default::default()
        },
    );
    let mut flows = Vec::new();
    for (i, &bytes) in sizes.iter().enumerate() {
        let src = hosts[i % n];
        let dst = hosts[(i + 1 + i % (n - 1)) % n];
        if src == dst {
            continue;
        }
        flows.push((
            sim.core_mut().start_flow(FlowSpec {
                src,
                dst,
                bytes: Some(bytes),
                weight: 1,
            }),
            bytes,
        ));
    }
    sim.run();
    flows
        .into_iter()
        .map(|(f, expect)| {
            let st = sim.core().flow(f);
            assert!(
                st.receiver_done_at.is_some(),
                "flow {f:?} of {expect} B never completed"
            );
            (st.delivered, expect)
        })
        .collect()
}

#[test]
fn every_flow_delivers_exactly_its_bytes() {
    cases(12, |_case, rng| {
        let sizes = vec_u64(rng, 1..6, 1..400_000);
        let seed = rng.gen_range(0..1_000u64);
        let which = *[Which::Tcp, Which::Dctcp, Which::Tfc]
            .get(rng.gen_range(0..3usize))
            .expect("in range");
        for (delivered, expect) in run_matrix(which, seed, &sizes) {
            assert_eq!(
                delivered, expect,
                "{which:?} seed {seed}: delivered {delivered} of {expect} B ({sizes:?})"
            );
        }
    });
}

#[test]
fn tfc_never_drops_on_clean_fabric() {
    cases(12, |_case, rng| {
        let sizes = vec_u64(rng, 1..8, 1_000..200_000);
        let seed = rng.gen_range(0..1_000u64);
        let (t, hosts, _) = testbed(Dur::nanos(500));
        let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
        let mut sim = Simulator::new(
            net,
            Box::new(TfcStack::default()),
            NullApp,
            SimConfig {
                seed,
                end: Some(Time(Dur::secs(5).as_nanos())),
                ..Default::default()
            },
        );
        for (i, &bytes) in sizes.iter().enumerate() {
            let src = hosts[i % 8];
            sim.core_mut().start_flow(FlowSpec {
                src,
                dst: hosts[8],
                bytes: Some(bytes),
                weight: 1,
            });
        }
        sim.run();
        assert_eq!(sim.core().total_drops(), 0, "seed {seed}, sizes {sizes:?}");
        for (f, st) in sim.core().flows() {
            assert!(
                st.receiver_done_at.is_some(),
                "flow {f:?} incomplete (seed {seed}, sizes {sizes:?})"
            );
        }
    });
}

/// §4.3: when a host stalls without FIN, the TFC bottleneck port's rho
/// counter notices the silence and counts the flow out of E within two
/// slot closes, so its tokens return to the pool — whatever the seed.
#[test]
fn tfc_reclaims_stalled_flow_tokens_within_two_slots() {
    cases(8, |_case, rng| {
        let seed = rng.gen_range(0..1_000u64);
        let n = 5;
        let horizon = Dur::millis(30).as_nanos();
        let fault_ns = Dur::millis(10).as_nanos();
        let (t, hosts, sw) = star(n, Bandwidth::gbps(1), Dur::nanos(500));
        let net = t.build(TfcSwitchPolicy::factory(TfcSwitchConfig::default()));
        let flows: Vec<OnOffFlow> = hosts[..n - 1]
            .iter()
            .map(|&src| OnOffFlow {
                src,
                dst: hosts[n - 1],
                active: vec![(0, horizon)],
            })
            .collect();
        let mut sim = Simulator::new(
            net,
            Box::new(TfcStack::default()),
            OnOffApp::new(flows, 128 * 1024),
            SimConfig {
                seed,
                end: Some(Time(horizon)),
                telemetry: TelemetryConfig {
                    events: LogMode::Off,
                    sample_one_in: 1,
                    tfc_gauges: true,
                    profile: false,
                    trace: telemetry::TraceConfig::Off,
                    export: None,
                },
                ..Default::default()
            },
        );
        sim.core_mut()
            .inject_fault(Time(fault_ns), FaultAction::HostStall { node: hosts[0] });
        let port = sim.core().route_of(sw, hosts[n - 1]).expect("route");
        sim.run();
        let series: Vec<(u64, f64)> = sim
            .core()
            .telemetry()
            .slots
            .iter()
            .filter(|sl| sl.node == sw.0 && sl.port as usize == port)
            .map(|sl| (sl.at_ns, sl.effective_flows))
            .collect();
        let e_before = series
            .iter()
            .take_while(|&&(at, _)| at < fault_ns)
            .last()
            .map(|&(_, e)| e)
            .expect("pre-fault slot samples");
        assert!(
            e_before > 3.5,
            "seed {seed}: expected ~4 effective flows pre-fault, E = {e_before:.2}"
        );
        // Close 1 may still count the victim (it sent early in the
        // slot); by close 2 a full silent slot has elapsed.
        let after: Vec<f64> = series
            .iter()
            .filter(|&&(at, _)| at >= fault_ns)
            .map(|&(_, e)| e)
            .take(2)
            .collect();
        assert!(
            after.last().is_some_and(|&e| e <= e_before - 0.5),
            "seed {seed}: E {e_before:.2} -> {after:?} within two slot closes"
        );
    });
}

#[test]
fn identical_seeds_identical_outcomes_all_protocols() {
    for w in [Which::Tcp, Which::Dctcp, Which::Tfc] {
        let a = run_matrix(w, 42, &[10_000, 250_000, 777]);
        let b = run_matrix(w, 42, &[10_000, 250_000, 777]);
        assert_eq!(a, b, "{w:?} not deterministic");
    }
}

/// Randomized schedule/pop interleavings against a naive sorted-vec
/// model, under both scheduler backends. Checks min-time pop order,
/// FIFO tie-breaking at equal timestamps, bucket-boundary offsets,
/// far-future overflow times, time zero, entries pushed late under a
/// sequence number reserved earlier (the deadline-timer path), and
/// same-tick storms of pushes onto the tick being drained.
#[test]
fn scheduler_matches_sorted_vec_model() {
    use simnet::event::{Event, EventQueue};
    use simnet::SchedulerKind;

    // Drives the queue under test and mirrors every operation in a
    // naive model: (at, seq, token) entries, popped smallest (at, seq)
    // first.
    struct Model {
        q: EventQueue,
        live: Vec<(u64, u64, u64)>,
        next_seq: u64,
        next_token: u64,
        /// Key of the last pop; no push may land behind it.
        last: (u64, u64),
    }
    impl Model {
        fn reserve(&mut self) -> u64 {
            let seq = self.q.reserve_seq();
            assert_eq!(seq, self.next_seq, "seqs diverged");
            self.next_seq += 1;
            seq
        }
        /// A plain schedule at `at`.
        fn schedule(&mut self, at: u64) {
            let token = self.next_token;
            self.next_token += 1;
            self.q.schedule(Time(at), Event::AppTimer { token });
            self.live.push((at, self.next_seq, token));
            self.next_seq += 1;
        }
        /// A push under `seq`, reserved earlier, at `at` (moved just
        /// past the last pop if it would land behind it).
        fn push_reserved(&mut self, at: u64, seq: u64) {
            let at = if (at, seq) < self.last { self.last.0 + 1 } else { at };
            let token = self.next_token;
            self.next_token += 1;
            self.q.schedule_reserved(Time(at), seq, Event::AppTimer { token });
            self.live.push((at, seq, token));
        }
        fn pop(&mut self, what: &str) {
            let want = (0..self.live.len())
                .min_by_key(|&i| (self.live[i].0, self.live[i].1))
                .map(|i| self.live.remove(i));
            let got = self.q.pop().map(|(t, e)| match e {
                Event::AppTimer { token } => (t.nanos(), token),
                other => panic!("unexpected event {other:?}"),
            });
            assert_eq!(got, want.map(|(at, _, token)| (at, token)), "{what}");
            if let Some((at, seq, _)) = want {
                self.last = (at, seq);
            }
            assert_eq!(self.q.len(), self.live.len(), "{what}");
        }
    }

    for kind in [SchedulerKind::Wheel, SchedulerKind::RefHeap] {
        cases(48, |case, rng| {
            let mut m = Model {
                q: EventQueue::with_kind(kind),
                live: Vec::new(),
                next_seq: 0,
                next_token: 0,
                last: (0, 0),
            };
            // Seqs reserved but not pushed yet.
            let mut reserved: Vec<u64> = Vec::new();
            for step in 0..400u32 {
                let what = format!("case {case} step {step} ({kind:?})");
                let now = m.last.0;
                let off = match rng.gen_range(0u32..8) {
                    0 => 0, // time zero / exactly now
                    1 => rng.gen_range(0u64..4),
                    2 => 255,
                    3 => 256, // tick granularity boundary
                    4 => 257,
                    5 => 16_384, // level boundary
                    6 => rng.gen_range(0u64..1 << 22),
                    _ => (1 << 30) + rng.gen_range(0u64..1 << 40), // overflow tier
                };
                match rng.gen_range(0u32..12) {
                    0..=4 => m.schedule(now + off),
                    // Reserve a seq now, push under it later.
                    5..=6 => reserved.push(m.reserve()),
                    7..=8 if !reserved.is_empty() => {
                        let seq = reserved.swap_remove(rng.gen_range(0..reserved.len()));
                        m.push_reserved(now + off, seq);
                    }
                    // Same-tick storm: hundreds of pushes onto the tick
                    // being drained, fresh and reserved seqs mixed, with
                    // pops in between.
                    11 if rng.gen_range(0u32..6) == 0 => {
                        let tick_end = (now | 255) + 1;
                        for i in 0..rng.gen_range(200u32..400) {
                            let at = rng.gen_range(m.last.0..tick_end.max(m.last.0 + 1));
                            match rng.gen_range(0u32..3) {
                                0 => m.schedule(at),
                                1 => reserved.push(m.reserve()),
                                _ if !reserved.is_empty() => {
                                    let seq =
                                        reserved.swap_remove(rng.gen_range(0..reserved.len()));
                                    m.push_reserved(at, seq);
                                }
                                _ => m.schedule(at),
                            }
                            if i % 5 == 4 {
                                m.pop(&format!("{what} storm"));
                            }
                        }
                    }
                    _ => m.pop(&what),
                }
            }
            // Drain: the full residual order must match the model.
            while !m.live.is_empty() {
                m.pop(&format!("case {case} drain ({kind:?})"));
            }
            assert!(m.q.pop().is_none());
        });
    }
}
