//! The simulation engine.
//!
//! [`Simulator`] owns the network, the event queue, the protocol stack,
//! and the workload application, and runs the discrete-event loop. All
//! state mutation happens through events, so runs are deterministic for
//! a given seed and topology.
//!
//! The loop itself is layered: this module holds the state and the
//! public control surface, [`crate::sched`] orders the events, and
//! [`crate::handlers`] implements the per-event-kind handlers the
//! dispatch loop fans out to.

use std::collections::VecDeque;

use metrics::RateMeter;
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use telemetry::{Telemetry, TelemetryConfig, TraceEvent};

use crate::app::{Application, FlowEvent};
use crate::arena::PacketArena;
use crate::endpoint::{
    Effects, FlowSpec, Note, ProtocolStack, ReceiverEndpoint, SenderEndpoint, TimerOp,
};
use crate::event::{Event, EventQueue};
use crate::fault::FaultAction;
use crate::flowtable::FlowMap;
use crate::node::{Node, PortStats};
use crate::packet::{FlowId, NodeId};
use crate::retire::{FlowRetirer, RetireConfig};
use crate::sched::{Deadline, SchedulerKind};
use crate::topology::Network;
use crate::units::{Dur, Time};

/// XOR tag deriving the fault RNG stream from the run seed, so loss-
/// window draws never perturb the workload/jitter stream (same idiom as
/// the telemetry sampling seed).
const FAULT_RNG_TAG: u64 = 0xfa17_ca05_fa17_ca05;

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; every run with the same seed and inputs is identical.
    pub seed: u64,
    /// Hard stop time (`None` = run until no events remain).
    pub end: Option<Time>,
    /// Per-packet host processing delay, drawn uniformly from the range,
    /// applied between an endpoint emitting a packet and the NIC queue.
    /// Models the testbed's random end-host processing (§6.1.2, Fig. 6).
    pub host_jitter: Option<(Dur, Dur)>,
    /// Structured telemetry: typed event log, event-loop counters, TFC
    /// slot gauges (all off by default; see [`SimCore::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Event-scheduler backend. The timing wheel is the default; the
    /// reference heap exists for equivalence tests and benchmarks, and
    /// both produce byte-identical runs (see [`crate::sched`]).
    pub scheduler: SchedulerKind,
    /// Bounded-memory flow retirement (off by default): completed flows
    /// fold into per-class quantile sketches and free all per-flow
    /// state, with ids recycled after a quarantine. Required for the
    /// streaming million-flow workloads; see [`crate::retire`].
    pub retire: Option<RetireConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            end: None,
            host_jitter: None,
            telemetry: TelemetryConfig::default(),
            scheduler: SchedulerKind::default(),
            retire: None,
        }
    }
}

/// Book-keeping for one flow.
#[derive(Debug)]
pub struct FlowState {
    /// The flow's static description.
    pub spec: FlowSpec,
    /// When the application started the flow.
    pub started_at: Time,
    /// When the handshake completed (sender saw SYN-ACK).
    pub established_at: Option<Time>,
    /// When the receiver held the complete byte stream.
    pub receiver_done_at: Option<Time>,
    /// When the sender finished (all data acknowledged, FIN acked).
    pub sender_done_at: Option<Time>,
    /// In-order bytes delivered to the receiving application.
    pub delivered: u64,
    /// Retransmission timeouts suffered by the sender.
    pub timeouts: u64,
    /// Packets retransmitted by the sender.
    pub retransmits: u64,
    /// Optional goodput meter (delivered bytes per window).
    pub meter: Option<RateMeter>,
    /// Whether to forward `Delivered` events to the application.
    pub watch_delivery: bool,
    /// Whether to record sender RTT samples.
    pub watch_rtt: bool,
    /// Sender RTT samples `(time, rtt)` in ns, if watched.
    pub rtt_samples: Vec<(u64, u64)>,
    /// Workload class tag (0 by default; see
    /// [`SimCore::set_flow_class`]). Keys the per-class retirement
    /// sketches when flow retirement is on.
    pub class: u8,
}

/// Everything kept per live flow. The sender runs on `state.spec.src`
/// and the receiver on `state.spec.dst`; hosts keep no per-flow state.
pub(crate) struct FlowSlot {
    pub(crate) state: FlowState,
    pub(crate) sender: Box<dyn SenderEndpoint>,
    pub(crate) receiver: Box<dyn ReceiverEndpoint>,
    /// The deadline of the flow's one timer (the sender's RTO).
    pub(crate) rto: Deadline,
}

/// Why [`SimCore::try_start_flow`] rejected a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowError {
    /// `src == dst`: a flow needs two distinct hosts.
    SameEndpoints,
    /// An endpoint names a node the network does not have.
    UnknownNode(NodeId),
    /// An endpoint names a switch.
    NotAHost(NodeId),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::SameEndpoints => write!(f, "flow endpoints must differ"),
            FlowError::UnknownNode(n) => write!(f, "unknown node {}", n.0),
            FlowError::NotAHost(n) => write!(f, "flow endpoint {} is not a host", n.0),
        }
    }
}

impl std::error::Error for FlowError {}

/// Why a request naming a `(node, port)` target was rejected at
/// registration, before it could fail mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetError {
    /// The network has no node with this id.
    UnknownNode(NodeId),
    /// The request needs a switch and the node is a host.
    NotASwitch(NodeId),
    /// The request needs a host and the node is a switch.
    NotAHost(NodeId),
    /// The node exists but has no port with this index.
    NoSuchPort {
        /// The node.
        node: NodeId,
        /// The requested port index.
        port: usize,
        /// How many ports the node has.
        ports: usize,
    },
}

impl std::fmt::Display for TargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetError::UnknownNode(n) => write!(f, "unknown node {}", n.0),
            TargetError::NotASwitch(n) => write!(f, "node {} is not a switch", n.0),
            TargetError::NotAHost(n) => write!(f, "node {} is not a host", n.0),
            TargetError::NoSuchPort { node, port, ports } => {
                write!(f, "node {} has no port {port} (it has {ports})", node.0)
            }
        }
    }
}

impl std::error::Error for TargetError {}

pub(crate) enum AppCall {
    Timer(u64),
    Flow(FlowEvent),
    /// Deferred flow retirement: queued behind the flow's `Completed`
    /// event so the application still sees live state in its callback.
    Retire(FlowId),
}

/// Everything except the application: the part of the simulator that
/// [`SimApi`] exposes to application callbacks.
///
/// Fields are `pub(crate)` so the event handlers in [`crate::handlers`]
/// can borrow them disjointly.
pub struct SimCore {
    pub(crate) now: Time,
    pub(crate) events: EventQueue,
    pub(crate) nodes: Vec<Node>,
    pub(crate) hosts: Vec<NodeId>,
    pub(crate) switches: Vec<NodeId>,
    pub(crate) stack: Box<dyn ProtocolStack>,
    /// Per-flow slots in a dense slab. Ids are allocated sequentially;
    /// without retirement they are never recycled and `flows` only
    /// grows, with retirement ([`SimConfig::retire`]) completed flows
    /// leave the slab and their ids return after a quarantine, so the
    /// slab length is bounded by peak concurrency.
    pub(crate) flows: FlowMap<FlowSlot>,
    /// Next never-used flow id (ids below it are live, retired, or
    /// quarantined).
    pub(crate) next_flow_id: u64,
    /// Retired ids awaiting reuse, oldest first, with their retirement
    /// times; an id leaves quarantine `retire.reuse_after` later.
    pub(crate) free_ids: VecDeque<(Time, FlowId)>,
    /// The retirement pipeline, when [`SimConfig::retire`] is set.
    pub(crate) retirer: Option<FlowRetirer>,
    pub(crate) rng: StdRng,
    pub(crate) fault_rng: StdRng,
    /// Periodic queue samplers `(node, port, every)`, indexed by
    /// `Event::Sample`.
    pub(crate) samplers: Vec<(NodeId, usize, Dur)>,
    pub(crate) pending_app: VecDeque<AppCall>,
    pub(crate) cfg: SimConfig,
    pub(crate) stopped: bool,
    pub(crate) telemetry: Telemetry,
    /// Every in-flight packet, slab-allocated; events carry ids into it.
    pub(crate) packets: PacketArena,
}

/// The simulator: a [`SimCore`] plus the workload application.
pub struct Simulator<A: Application> {
    core: SimCore,
    app: A,
}

/// Handle through which applications drive the simulation.
pub struct SimApi<'a> {
    core: &'a mut SimCore,
}

impl SimCore {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Starts a flow and returns its id. The handshake begins
    /// immediately; data transfer follows the protocol's rules.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are not distinct hosts; use
    /// [`try_start_flow`](Self::try_start_flow) to handle that as an
    /// error.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.try_start_flow(spec)
            .unwrap_or_else(|e| panic!("invalid flow: {e}"))
    }

    /// Starts a flow and returns its id, or a [`FlowError`] when
    /// `src`/`dst` are not two distinct hosts. A rejected flow
    /// allocates no id and leaves no state behind.
    pub fn try_start_flow(&mut self, spec: FlowSpec) -> Result<FlowId, FlowError> {
        if spec.src == spec.dst {
            return Err(FlowError::SameEndpoints);
        }
        for node in [spec.src, spec.dst] {
            match self.nodes.get(node.0 as usize) {
                None => return Err(FlowError::UnknownNode(node)),
                Some(Node::Switch(_)) => return Err(FlowError::NotAHost(node)),
                Some(Node::Host(_)) => {}
            }
        }
        let flow = self.alloc_flow_id();
        let sender = self.stack.new_sender(flow, &spec);
        let receiver = self.stack.new_receiver(flow, &spec);
        let src = spec.src;
        if self.telemetry.log.enabled() {
            self.telemetry.log.record(
                self.now.nanos(),
                TraceEvent::FlowOpen {
                    flow: flow.0,
                    src: src.0,
                    dst: spec.dst.0,
                    bytes: spec.bytes.unwrap_or(0),
                },
            );
        }
        let prev = self.flows.insert(
            flow,
            FlowSlot {
                state: FlowState {
                    spec,
                    started_at: self.now,
                    established_at: None,
                    receiver_done_at: None,
                    sender_done_at: None,
                    delivered: 0,
                    timeouts: 0,
                    retransmits: 0,
                    meter: None,
                    watch_delivery: false,
                    watch_rtt: false,
                    rtt_samples: Vec::new(),
                    class: 0,
                },
                sender,
                receiver,
                rto: Deadline::default(),
            },
        );
        debug_assert!(prev.is_none(), "allocated id {flow:?} was occupied");
        let mut fx = Effects::new();
        let slot = self.flows.get_mut(flow).expect("just inserted");
        slot.sender.open(self.now, &mut fx);
        self.apply_host_fx(src, flow, fx);
        Ok(flow)
    }

    /// Adds `bytes` to an open-ended flow's send stream.
    ///
    /// # Panics
    ///
    /// Panics if the flow does not exist.
    pub fn push_data(&mut self, flow: FlowId, bytes: u64) {
        let mut fx = Effects::new();
        let slot = self.flows.get_mut(flow).expect("flow exists");
        slot.sender.push_data(bytes, self.now, &mut fx);
        let src = slot.state.spec.src;
        self.apply_host_fx(src, flow, fx);
    }

    /// Closes an open-ended flow (FIN once pushed data is delivered).
    ///
    /// A no-op when the flow no longer exists (never started, or
    /// already torn down) — closing twice is safe, so workloads need
    /// not track liveness across faults.
    pub fn close_flow(&mut self, flow: FlowId) {
        let Some(slot) = self.flows.get_mut(flow) else {
            return;
        };
        let mut fx = Effects::new();
        slot.sender.close(self.now, &mut fx);
        let src = slot.state.spec.src;
        self.apply_host_fx(src, flow, fx);
    }

    /// Schedules a fault to take effect at simulated time `at` (clamped
    /// to now). Identical seeds with identical fault timelines yield
    /// byte-identical runs; see [`crate::fault`] for the taxonomy.
    ///
    /// # Panics
    ///
    /// Panics if the target is invalid; use
    /// [`try_inject_fault`](Self::try_inject_fault) to handle that as
    /// an error.
    pub fn inject_fault(&mut self, at: Time, action: FaultAction) {
        self.try_inject_fault(at, action)
            .unwrap_or_else(|e| panic!("invalid fault target: {e}"));
    }

    /// Schedules a fault, or rejects it with nothing scheduled when the
    /// network has no such node or port, a `PolicyReset` names a host,
    /// or a host stall/resume names a switch.
    pub fn try_inject_fault(&mut self, at: Time, action: FaultAction) -> Result<(), TargetError> {
        self.try_inject_faults(&[(at, action)])
    }

    /// Schedules every `(time, action)` pair of a fault timeline.
    ///
    /// # Panics
    ///
    /// Panics, with nothing scheduled, if any target is invalid.
    pub fn inject_faults(&mut self, plan: &[(Time, FaultAction)]) {
        self.try_inject_faults(plan)
            .unwrap_or_else(|e| panic!("invalid fault target: {e}"));
    }

    /// Schedules every `(time, action)` pair of a fault timeline, or
    /// none of them if any target is invalid.
    pub fn try_inject_faults(&mut self, plan: &[(Time, FaultAction)]) -> Result<(), TargetError> {
        for &(_, action) in plan {
            self.check_fault_target(action)?;
        }
        for &(at, action) in plan {
            self.events
                .schedule(at.max(self.now), Event::Fault { action });
        }
        Ok(())
    }

    fn check_fault_target(&self, action: FaultAction) -> Result<(), TargetError> {
        let node = action.node();
        match (action, self.nodes.get(node.0 as usize)) {
            (_, None) => Err(TargetError::UnknownNode(node)),
            (FaultAction::HostStall { .. } | FaultAction::HostResume { .. }, Some(n)) => match n {
                Node::Host(_) => Ok(()),
                Node::Switch(_) => Err(TargetError::NotAHost(node)),
            },
            (FaultAction::PolicyReset { .. }, Some(Node::Host(_))) => {
                Err(TargetError::NotASwitch(node))
            }
            _ => self.check_port(node, action.port()),
        }
    }

    /// Checks that `node` exists and has a port `port`.
    fn check_port(&self, node: NodeId, port: usize) -> Result<(), TargetError> {
        let ports = self
            .nodes
            .get(node.0 as usize)
            .ok_or(TargetError::UnknownNode(node))?
            .port_count();
        if port >= ports {
            return Err(TargetError::NoSuchPort { node, port, ports });
        }
        Ok(())
    }

    /// Arms an application timer firing after `after`.
    pub fn set_timer(&mut self, after: Dur, token: u64) {
        self.events
            .schedule(self.now + after, Event::AppTimer { token });
    }

    /// Arms an application timer at absolute time `at` (clamped to now).
    pub fn set_timer_at(&mut self, at: Time, token: u64) {
        let at = at.max(self.now);
        self.events.schedule(at, Event::AppTimer { token });
    }

    /// Tags a flow with a workload class (defaults to 0). Classes key
    /// the per-class retirement sketches; the tag is a no-op for flows
    /// that are already gone.
    pub fn set_flow_class(&mut self, flow: FlowId, class: u8) {
        if let Some(slot) = self.flows.get_mut(flow) {
            slot.state.class = class;
        }
    }

    /// Attaches a goodput meter (window `window`) to a flow.
    pub fn meter_flow(&mut self, flow: FlowId, window: Dur) {
        let state = &mut self.flows.get_mut(flow).expect("flow exists").state;
        state.meter = Some(RateMeter::new(window.as_nanos()));
    }

    /// Requests `Delivered` events for a flow.
    pub fn watch_delivery(&mut self, flow: FlowId) {
        self.flows
            .get_mut(flow)
            .expect("flow exists")
            .state
            .watch_delivery = true;
    }

    /// Requests sender RTT sample recording for a flow.
    pub fn watch_rtt(&mut self, flow: FlowId) {
        self.flows
            .get_mut(flow)
            .expect("flow exists")
            .state
            .watch_rtt = true;
    }

    /// Samples the bytes queued at `node`'s `port` every `every`, from
    /// `now + every` until [`SimConfig::end`], into
    /// [`Telemetry::queues`](telemetry::Telemetry::queues) (exported as
    /// `queues.csv`). A run without an end never drains while a sampler
    /// is registered. A target the network does not have is rejected
    /// here, before anything is scheduled.
    pub fn sample_queue(
        &mut self,
        node: NodeId,
        port: usize,
        every: Dur,
    ) -> Result<(), TargetError> {
        self.check_port(node, port)?;
        let idx = self.samplers.len();
        self.samplers.push((node, port, every));
        self.events.schedule(self.now + every, Event::Sample { sampler: idx });
        Ok(())
    }

    /// The seeded RNG (shared by workloads for reproducibility).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Stops the simulation after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Immutable flow state.
    ///
    /// # Panics
    ///
    /// Panics if the flow never existed or was retired (see
    /// [`SimConfig::retire`]).
    pub fn flow(&self, flow: FlowId) -> &FlowState {
        &self.flows.get(flow).expect("flow exists (not retired)").state
    }

    /// Whether the flow currently has live state (retired flows do not).
    pub fn has_flow(&self, flow: FlowId) -> bool {
        self.flows.contains(flow)
    }

    /// Iterates all live flows in id order. Under retirement, completed
    /// flows are absent: their statistics live in [`SimCore::retirer`].
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &FlowState)> {
        self.flows.iter().map(|(id, slot)| (id, &slot.state))
    }

    /// The structured telemetry state (event log, loop counters, TFC
    /// slot gauges).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The run's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The flow-retirement pipeline, when enabled.
    pub fn retirer(&self) -> Option<&FlowRetirer> {
        self.retirer.as_ref()
    }

    /// Flow-slab occupancy diagnostics: `(live, peak_live, capacity)`.
    /// With retirement on, `capacity` is bounded by peak concurrency —
    /// the resident-memory half of the million-flow claim.
    pub fn flow_slab_stats(&self) -> (usize, usize, usize) {
        (self.flows.len(), self.flows.peak_len(), self.flows.capacity())
    }

    /// Host ids in creation order.
    pub fn host_ids(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Switch ids in creation order.
    pub fn switch_ids(&self) -> &[NodeId] {
        &self.switches
    }

    /// Total enqueue drops across every switch port.
    pub fn total_drops(&self) -> u64 {
        self.switches
            .iter()
            .map(|&s| match &self.nodes[s.0 as usize] {
                Node::Switch(sw) => sw.total_drops(),
                Node::Host(_) => 0,
            })
            .sum()
    }

    /// Per-port statistics of a switch.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a switch or `port` does not exist.
    pub fn port_stats(&self, node: NodeId, port: usize) -> PortStats {
        let Node::Switch(sw) = &self.nodes[node.0 as usize] else {
            panic!("{node:?} is not a switch");
        };
        sw.ports[port].stats()
    }

    /// Egress port of `switch` toward host `dst`: the deterministic
    /// primary (lowest equal-cost member). Per-packet forwarding hashes
    /// across the full set; see [`next_hops_of`](Self::next_hops_of).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a switch.
    pub fn route_of(&self, switch: NodeId, dst: NodeId) -> Option<usize> {
        let Node::Switch(sw) = &self.nodes[switch.0 as usize] else {
            panic!("{switch:?} is not a switch");
        };
        sw.route(dst)
    }

    /// All equal-cost egress ports of `switch` toward host `dst`
    /// (ascending; empty when unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a switch.
    pub fn next_hops_of(&self, switch: NodeId, dst: NodeId) -> Vec<usize> {
        let Node::Switch(sw) = &self.nodes[switch.0 as usize] else {
            panic!("{switch:?} is not a switch");
        };
        match sw.routes.next_hops(dst) {
            crate::node::NextHops::None => Vec::new(),
            crate::node::NextHops::Single(p) => vec![p as usize],
            crate::node::NextHops::Ecmp(set) => set.iter().map(|&p| p as usize).collect(),
        }
    }

    /// Route surgery: overwrites the equal-cost next hops of `switch`
    /// toward `dst` (`ports` ascending and duplicate-free; empty makes
    /// `dst` unreachable there, turning packets into counted
    /// `no_route_drops`). Built topologies are always validated
    /// connected, so this is how tests and dynamic-fabric experiments
    /// create sparse tables.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is not a switch or a port index is out of
    /// range.
    pub fn set_next_hops(&mut self, switch: NodeId, dst: NodeId, ports: &[usize]) {
        let Node::Switch(sw) = &mut self.nodes[switch.0 as usize] else {
            panic!("{switch:?} is not a switch");
        };
        let ports: Vec<u16> = ports
            .iter()
            .map(|&p| {
                assert!(p < sw.ports.len(), "port {p} out of range at {switch:?}");
                p as u16
            })
            .collect();
        sw.routes.set(dst.0 as usize, &ports);
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.telemetry.loop_stats.total()
    }

    /// The in-flight packet arena (diagnostics: live slots, high-water).
    pub fn packet_arena(&self) -> &PacketArena {
        &self.packets
    }

    /// Current congestion window of a flow's sender, if it exists.
    pub fn sender_cwnd(&self, flow: FlowId) -> Option<u64> {
        self.flows.get(flow).map(|slot| slot.sender.cwnd())
    }

    // ------------------------------------------------------------------
    // Internal machinery.
    // ------------------------------------------------------------------

    /// Allocates a flow id: a quarantine-expired retired id when
    /// retirement is on (oldest first, so reuse order is deterministic),
    /// otherwise the next fresh id.
    fn alloc_flow_id(&mut self) -> FlowId {
        if let Some(cfg) = &self.cfg.retire {
            if let Some(&(retired_at, id)) = self.free_ids.front() {
                if retired_at + cfg.reuse_after <= self.now {
                    self.free_ids.pop_front();
                    return id;
                }
            }
        }
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        id
    }

    /// Tears down a finished flow: folds its scalars into the retirer's
    /// per-class sketches, frees its slot with both endpoints and its
    /// timer deadline (bumping the slot generation), and quarantines
    /// the id. Packets of the dead flow still in flight take the
    /// existing stale-packet path at the hosts; a timer entry of the
    /// dead flow still queued is dropped when it pops, since no slot
    /// (nor a later flow reusing the id) holds its seq.
    fn retire_flow(&mut self, flow: FlowId) {
        let Some(slot) = self.flows.remove(flow) else {
            return;
        };
        let retirer = self.retirer.as_mut().expect("retire_flow requires retirer");
        retirer.retire(&slot.state);
        self.free_ids.push_back((self.now, flow));
    }

    pub(crate) fn apply_host_fx(&mut self, host: NodeId, flow: FlowId, fx: Effects) {
        for mut pkt in fx.packets {
            pkt.sent_at = self.now;
            let jitter = match self.cfg.host_jitter {
                Some((lo, hi)) if hi > lo => Dur(self.rng.gen_range(lo.as_nanos()..=hi.as_nanos())),
                Some((lo, _)) => lo,
                None => Dur::ZERO,
            };
            // The endpoint-built packet moves into the arena here; from
            // this point on it travels the fabric as an id.
            let pkt = self.packets.alloc(pkt);
            self.events
                .schedule(self.now + jitter, Event::NicEnqueue { node: host, pkt });
        }
        if let Some(op) = fx.timer {
            let rto = &mut self.flows.get_mut(flow).expect("effects of a live flow").rto;
            match op {
                TimerOp::Set(after, token) => {
                    rto.set(&mut self.events, self.now + after, token, |token, seq| {
                        Event::HostTimer { flow, token, seq }
                    });
                }
                TimerOp::Stop => rto.stop(),
            }
        }
        for note in fx.notes {
            self.handle_note(flow, note);
        }
    }

    pub(crate) fn handle_note(&mut self, flow: FlowId, note: Note) {
        let now = self.now;
        let tel_on = self.telemetry.log.enabled();
        let finishing = matches!(note, Note::ReceiverDone | Note::SenderDone);
        let Some(FlowSlot { state, .. }) = self.flows.get_mut(flow) else {
            return;
        };
        match note {
            Note::Established => {
                if state.established_at.is_none() {
                    state.established_at = Some(now);
                    if tel_on {
                        self.telemetry
                            .log
                            .record(now.nanos(), TraceEvent::FlowEstablished { flow: flow.0 });
                    }
                    self.pending_app
                        .push_back(AppCall::Flow(FlowEvent::Established(flow)));
                }
            }
            Note::Delivered { bytes } => {
                state.delivered += bytes;
                if let Some(m) = &mut state.meter {
                    m.add(now.nanos(), bytes);
                }
                if tel_on {
                    self.telemetry.log.record(
                        now.nanos(),
                        TraceEvent::PktDeliver {
                            node: state.spec.dst.0,
                            flow: flow.0,
                            bytes,
                        },
                    );
                }
                if state.watch_delivery {
                    self.pending_app
                        .push_back(AppCall::Flow(FlowEvent::Delivered { flow, bytes }));
                }
            }
            Note::ReceiverDone => {
                if state.receiver_done_at.is_none() {
                    state.receiver_done_at = Some(now);
                    self.pending_app
                        .push_back(AppCall::Flow(FlowEvent::Completed(flow)));
                }
            }
            Note::SenderDone => {
                if state.sender_done_at.is_none() {
                    state.sender_done_at = Some(now);
                    if tel_on {
                        self.telemetry.log.record(
                            now.nanos(),
                            TraceEvent::FlowFin {
                                flow: flow.0,
                                delivered: state.delivered,
                            },
                        );
                    }
                }
            }
            Note::Timeout => {
                state.timeouts += 1;
                if tel_on {
                    self.telemetry
                        .log
                        .record(now.nanos(), TraceEvent::FlowRto { flow: flow.0 });
                }
            }
            Note::Retransmit => {
                state.retransmits += 1;
                if tel_on {
                    self.telemetry
                        .log
                        .record(now.nanos(), TraceEvent::FlowRetransmit { flow: flow.0 });
                }
            }
            Note::WindowAcquired { bytes } => {
                if tel_on {
                    self.telemetry.log.record(
                        now.nanos(),
                        TraceEvent::FlowWindowAcquired {
                            flow: flow.0,
                            window: bytes,
                        },
                    );
                }
            }
            Note::RttSample { nanos } => {
                if state.watch_rtt {
                    state.rtt_samples.push((now.nanos(), nanos));
                }
                if tel_on {
                    self.telemetry.log.record(
                        now.nanos(),
                        TraceEvent::FlowRttSample {
                            flow: flow.0,
                            nanos,
                        },
                    );
                }
            }
        }
        // Both sides done (receiver holds the stream, sender saw its
        // FIN acked): under retirement the flow's state leaves the
        // simulation. The teardown is queued behind the already-pending
        // `Completed` app event so the application's callback still
        // observes the flow; `retire_flow` ignores a second queuing.
        if finishing
            && self.retirer.is_some()
            && state.receiver_done_at.is_some()
            && state.sender_done_at.is_some()
        {
            self.pending_app.push_back(AppCall::Retire(flow));
        }
    }
}

impl<A: Application> Simulator<A> {
    /// Builds a simulator from a network, protocol stack, application,
    /// and config.
    pub fn new(net: Network, stack: Box<dyn ProtocolStack>, app: A, cfg: SimConfig) -> Self {
        let telemetry = Telemetry::new(&cfg.telemetry, cfg.seed, &Event::KIND_NAMES);
        let retirer = cfg.retire.clone().map(FlowRetirer::new);
        Self {
            core: SimCore {
                now: Time::ZERO,
                events: EventQueue::with_kind(cfg.scheduler),
                nodes: net.nodes,
                hosts: net.hosts,
                switches: net.switches,
                stack,
                flows: FlowMap::new(),
                next_flow_id: 0,
                free_ids: VecDeque::new(),
                retirer,
                rng: StdRng::seed_from_u64(cfg.seed),
                fault_rng: StdRng::seed_from_u64(cfg.seed ^ FAULT_RNG_TAG),
                samplers: Vec::new(),
                pending_app: VecDeque::new(),
                cfg,
                stopped: false,
                telemetry,
                packets: PacketArena::new(),
            },
            app,
        }
    }

    /// Runs to completion: until no events remain, the configured end
    /// time passes, or the application calls [`SimApi::stop`].
    pub fn run(&mut self) {
        self.app.start(&mut SimApi {
            core: &mut self.core,
        });
        self.drain_app_calls();
        while !self.core.stopped {
            let Some((t, ev)) = self.core.events.pop() else {
                break;
            };
            // A timer entry that is not its owner's deadline leaves
            // here, before it can move `now`, end the run or be counted.
            if !self.core.timer_due(&ev) {
                continue;
            }
            if let Some(end) = self.core.cfg.end {
                if t > end {
                    self.core.now = end;
                    break;
                }
            }
            debug_assert!(t >= self.core.now, "event time moved backwards");
            self.core.now = t;
            self.core.handle_event(ev);
            self.drain_app_calls();
        }
        // Flush goodput meters so trailing zero-windows are emitted.
        let now = self.core.now;
        for (_, slot) in self.core.flows.iter_mut() {
            if let Some(m) = &mut slot.state.meter {
                m.flush(now.nanos());
            }
        }
    }

    fn drain_app_calls(&mut self) {
        while let Some(call) = self.core.pending_app.pop_front() {
            let mut api = SimApi {
                core: &mut self.core,
            };
            match call {
                AppCall::Timer(token) => self.app.on_timer(token, &mut api),
                AppCall::Flow(ev) => self.app.on_flow_event(ev, &mut api),
                AppCall::Retire(flow) => self.core.retire_flow(flow),
            }
        }
    }

    /// Read access to the core (telemetry, flows, stats).
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// Mutable access to the core (pre-run flow setup, samplers).
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// The application, e.g. to read workload-level results after `run`.
    pub fn app(&self) -> &A {
        &self.app
    }
}

impl<'a> SimApi<'a> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.core.now()
    }

    /// Starts a flow; see [`SimCore::start_flow`].
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.core.start_flow(spec)
    }

    /// Starts a flow or rejects it; see [`SimCore::try_start_flow`].
    pub fn try_start_flow(&mut self, spec: FlowSpec) -> Result<FlowId, FlowError> {
        self.core.try_start_flow(spec)
    }

    /// Pushes data on an open-ended flow; see [`SimCore::push_data`].
    pub fn push_data(&mut self, flow: FlowId, bytes: u64) {
        self.core.push_data(flow, bytes)
    }

    /// Closes an open-ended flow; see [`SimCore::close_flow`].
    pub fn close_flow(&mut self, flow: FlowId) {
        self.core.close_flow(flow)
    }

    /// Schedules a fault; see [`SimCore::inject_fault`].
    pub fn inject_fault(&mut self, at: Time, action: FaultAction) {
        self.core.inject_fault(at, action)
    }

    /// Arms an application timer after `after`.
    pub fn set_timer(&mut self, after: Dur, token: u64) {
        self.core.set_timer(after, token)
    }

    /// Arms an application timer at absolute `at`.
    pub fn set_timer_at(&mut self, at: Time, token: u64) {
        self.core.set_timer_at(at, token)
    }

    /// Attaches a goodput meter to a flow.
    pub fn meter_flow(&mut self, flow: FlowId, window: Dur) {
        self.core.meter_flow(flow, window)
    }

    /// Requests `Delivered` events for a flow.
    pub fn watch_delivery(&mut self, flow: FlowId) {
        self.core.watch_delivery(flow)
    }

    /// Requests sender RTT sample recording for a flow.
    pub fn watch_rtt(&mut self, flow: FlowId) {
        self.core.watch_rtt(flow)
    }

    /// Tags a flow with a workload class; see
    /// [`SimCore::set_flow_class`].
    pub fn set_flow_class(&mut self, flow: FlowId, class: u8) {
        self.core.set_flow_class(flow, class)
    }

    /// Flow state (delivered bytes, timestamps, counters).
    pub fn flow(&self, flow: FlowId) -> &FlowState {
        self.core.flow(flow)
    }

    /// Whether the flow still has live state (false once retired).
    pub fn has_flow(&self, flow: FlowId) -> bool {
        self.core.has_flow(flow)
    }

    /// The seeded RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.core.rng()
    }

    /// Stops the simulation.
    pub fn stop(&mut self) {
        self.core.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use crate::endpoint::{ReceiverEndpoint, SenderEndpoint};
    use crate::packet::{Flags, Packet, MSS};
    use crate::topology::TopologyBuilder;
    use crate::units::Bandwidth;

    /// A minimal "protocol": the sender emits one sized data packet per
    /// `push_data`; the receiver just counts. No handshake, no ACKs —
    /// for timing tests of the forwarding pipeline itself.
    struct BlastSender {
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        sent: u64,
    }

    impl SenderEndpoint for BlastSender {
        fn open(&mut self, _now: Time, _fx: &mut Effects) {}
        fn push_data(&mut self, bytes: u64, _now: Time, fx: &mut Effects) {
            let pkt = Packet::data(self.flow, self.src, self.dst, self.sent, bytes);
            self.sent += bytes;
            fx.send(pkt);
        }
        fn close(&mut self, _now: Time, _fx: &mut Effects) {}
        fn on_packet(&mut self, _pkt: &Packet, _now: Time, _fx: &mut Effects) {}
        fn on_timer(&mut self, _token: u64, _now: Time, _fx: &mut Effects) {}
        fn cwnd(&self) -> u64 {
            u64::MAX
        }
        fn acked_bytes(&self) -> u64 {
            0
        }
    }

    struct CountReceiver {
        got: u64,
    }

    impl ReceiverEndpoint for CountReceiver {
        fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
            self.got += pkt.payload;
            fx.note(Note::Delivered { bytes: pkt.payload });
        }
        fn delivered_bytes(&self) -> u64 {
            self.got
        }
    }

    struct BlastStack;

    impl ProtocolStack for BlastStack {
        fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint> {
            Box::new(BlastSender {
                flow,
                src: spec.src,
                dst: spec.dst,
                sent: 0,
            })
        }
        fn new_receiver(&self, _flow: FlowId, _spec: &FlowSpec) -> Box<dyn ReceiverEndpoint> {
            Box::new(CountReceiver { got: 0 })
        }
        fn name(&self) -> &'static str {
            "blast"
        }
    }

    fn two_host_sim(rate: Bandwidth, delay: Dur) -> (Simulator<NullApp>, FlowId) {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, rate, delay);
        t.link(h2, s, rate, delay);
        let net = t.build_drop_tail();
        let mut sim = Simulator::new(net, Box::new(BlastStack), NullApp, SimConfig::default());
        let flow = sim.core_mut().start_flow(FlowSpec {
            src: h1,
            dst: h2,
            bytes: None,
            weight: 1,
        });
        (sim, flow)
    }

    #[test]
    fn store_and_forward_latency_is_exact() {
        // One MSS packet over host -> switch -> host at 1 Gbps with 1 µs
        // propagation per link: 2 × (12 µs serialisation + 1 µs prop).
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        let st = sim.core().flow(flow);
        assert_eq!(st.delivered, MSS);
        assert_eq!(sim.core().now(), Time(2 * (12_000 + 1_000)));
    }

    #[test]
    fn back_to_back_packets_pipeline() {
        // Two packets: the second arrives one serialisation time after
        // the first (pipelined across the two hops).
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().push_data(flow, MSS);
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        assert_eq!(sim.core().flow(flow).delivered, 2 * MSS);
        assert_eq!(sim.core().now(), Time(2 * (12_000 + 1_000) + 12_000));
    }

    #[test]
    fn host_jitter_delays_but_delivers() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        let net = t.build_drop_tail();
        let mut sim = Simulator::new(
            net,
            Box::new(BlastStack),
            NullApp,
            SimConfig {
                host_jitter: Some((Dur::micros(5), Dur::micros(9))),
                ..Default::default()
            },
        );
        let flow = sim.core_mut().start_flow(FlowSpec {
            src: h1,
            dst: h2,
            bytes: None,
            weight: 1,
        });
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        let base = 2 * (12_000 + 1_000);
        let now = sim.core().now().nanos();
        assert!(now >= base + 5_000 && now <= base + 9_000, "got {now}");
        assert_eq!(sim.core().flow(flow).delivered, MSS);
    }

    #[test]
    fn queue_sampler_records_series() {
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().cfg.end = Some(Time(50_000));
        let sw = sim.core().switch_ids()[0];
        sim.core_mut().sample_queue(sw, 1, Dur::micros(5)).unwrap();
        for _ in 0..8 {
            sim.core_mut().push_data(flow, MSS);
        }
        sim.run();
        let q = &sim.core().telemetry().queues;
        assert_eq!(q.len(), 10, "one sample per 5 µs up to the 50 µs end");
        assert!(q.iter().all(|s| (s.node, s.port) == (sw.0, 1)));
        assert_eq!(q[0].at_ns, 5_000);
        assert!(q.iter().any(|s| s.bytes > 0), "queue never observed");
    }

    #[test]
    fn sample_queue_rejects_bad_targets_before_scheduling() {
        let (mut sim, _) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        let h1 = sim.core().host_ids()[0];
        let sw = sim.core().switch_ids()[0];
        let ghost = NodeId(9);
        let core = sim.core_mut();
        let pending = core.events.len();
        assert_eq!(
            core.sample_queue(ghost, 0, Dur::micros(5)),
            Err(TargetError::UnknownNode(ghost))
        );
        assert_eq!(
            core.sample_queue(sw, 2, Dur::micros(5)),
            Err(TargetError::NoSuchPort { node: sw, port: 2, ports: 2 })
        );
        assert_eq!(
            core.sample_queue(h1, 1, Dur::micros(5)),
            Err(TargetError::NoSuchPort { node: h1, port: 1, ports: 1 })
        );
        assert!(core.samplers.is_empty());
        assert_eq!(core.events.len(), pending, "nothing scheduled");
        assert_eq!(TargetError::UnknownNode(ghost).to_string(), "unknown node 9");
        assert_eq!(
            TargetError::NoSuchPort { node: sw, port: 2, ports: 2 }.to_string(),
            "node 2 has no port 2 (it has 2)"
        );
        // A host's NIC is port 0.
        core.sample_queue(h1, 0, Dur::micros(5)).unwrap();
    }

    /// Asserts `action` is rejected with `want` and leaves the queue
    /// exactly as it was.
    fn assert_fault_rejected(action: FaultAction, want: TargetError) {
        let (mut sim, _) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        let core = sim.core_mut();
        let pending = core.events.len();
        assert_eq!(core.try_inject_fault(Time(10), action), Err(want));
        assert_eq!(core.events.len(), pending, "{action:?}: nothing scheduled");
    }

    #[test]
    fn fault_target_unknown_node_is_rejected() {
        let ghost = NodeId(9);
        assert_fault_rejected(
            FaultAction::LinkDown { node: ghost, port: 0 },
            TargetError::UnknownNode(ghost),
        );
        assert_fault_rejected(
            FaultAction::HostStall { node: ghost },
            TargetError::UnknownNode(ghost),
        );
    }

    #[test]
    fn fault_target_missing_port_is_rejected() {
        let (h1, sw) = (NodeId(0), NodeId(2));
        assert_fault_rejected(
            FaultAction::LinkRate { node: sw, port: 2, rate: Bandwidth::gbps(1) },
            TargetError::NoSuchPort { node: sw, port: 2, ports: 2 },
        );
        assert_fault_rejected(
            FaultAction::LossWindow { node: h1, port: 1, permille: 10 },
            TargetError::NoSuchPort { node: h1, port: 1, ports: 1 },
        );
        assert_fault_rejected(
            FaultAction::PolicyReset { node: sw, port: 5 },
            TargetError::NoSuchPort { node: sw, port: 5, ports: 2 },
        );
    }

    #[test]
    fn fault_target_policy_reset_of_a_host_is_rejected() {
        let h1 = NodeId(0);
        assert_fault_rejected(
            FaultAction::PolicyReset { node: h1, port: 0 },
            TargetError::NotASwitch(h1),
        );
        assert_eq!(TargetError::NotASwitch(h1).to_string(), "node 0 is not a switch");
    }

    #[test]
    fn fault_target_host_stall_of_a_switch_is_rejected() {
        let sw = NodeId(2);
        assert_fault_rejected(FaultAction::HostStall { node: sw }, TargetError::NotAHost(sw));
        assert_fault_rejected(FaultAction::HostResume { node: sw }, TargetError::NotAHost(sw));
        assert_eq!(TargetError::NotAHost(sw).to_string(), "node 2 is not a host");
    }

    #[test]
    fn fault_target_plan_with_one_bad_entry_schedules_nothing() {
        let (mut sim, _) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        let (h1, sw) = (NodeId(0), NodeId(2));
        let good = (Time(5), FaultAction::LinkDown { node: sw, port: 0 });
        let bad = (Time(9), FaultAction::HostStall { node: sw });
        let core = sim.core_mut();
        let pending = core.events.len();
        assert_eq!(core.try_inject_faults(&[good, bad]), Err(TargetError::NotAHost(sw)));
        assert_eq!(core.events.len(), pending, "nothing scheduled");
        core.inject_faults(&[good, (Time(9), FaultAction::HostStall { node: h1 })]);
        assert_eq!(core.events.len(), pending + 2);
    }

    #[test]
    #[should_panic(expected = "invalid fault target: node 0 is not a switch")]
    fn fault_target_inject_fault_panics_with_the_typed_message() {
        let (mut sim, _) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut()
            .inject_fault(Time(1), FaultAction::PolicyReset { node: NodeId(0), port: 0 });
    }

    #[test]
    fn meter_reports_goodput() {
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().meter_flow(flow, Dur::micros(50));
        for _ in 0..10 {
            sim.core_mut().push_data(flow, MSS);
        }
        sim.run();
        let st = sim.core().flow(flow);
        let m = st.meter.as_ref().expect("meter attached");
        // 10 × 1460 B over ~146 µs of delivery: some window should show
        // close to line-rate goodput.
        assert!(m.series().max_value().unwrap() > 0.5e9);
    }

    #[test]
    fn overflow_drops_are_counted() {
        // 1 kB of switch buffer cannot hold a burst of full frames.
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(10), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        t.switch_buffer(1_000);
        let net = t.build_drop_tail();
        let mut sim = Simulator::new(net, Box::new(BlastStack), NullApp, SimConfig::default());
        let flow = sim.core_mut().start_flow(FlowSpec {
            src: h1,
            dst: h2,
            bytes: None,
            weight: 1,
        });
        for _ in 0..10 {
            sim.core_mut().push_data(flow, MSS);
        }
        sim.run();
        assert!(sim.core().total_drops() > 0);
        assert!(sim.core().flow(flow).delivered < 10 * MSS);
    }

    #[test]
    fn end_time_stops_simulation() {
        let (mut sim, flow) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        sim.core_mut().cfg.end = Some(Time(10_000)); // before delivery
        sim.core_mut().push_data(flow, MSS);
        sim.run();
        assert_eq!(sim.core().flow(flow).delivered, 0);
        assert_eq!(sim.core().now(), Time(10_000));
    }

    #[test]
    fn stale_packets_of_unknown_flows_are_ignored() {
        // Deliver a packet for a flow id that does not exist: no panic.
        let (mut sim, _) = two_host_sim(Bandwidth::gbps(1), Dur::micros(1));
        let hosts = sim.core().host_ids().to_vec();
        let mut pkt = Packet::data(FlowId(999), hosts[0], hosts[1], 0, 100);
        pkt.flags.set(Flags::ACK);
        let pkt = sim.core_mut().packets.alloc(pkt);
        sim.core_mut().events.schedule(
            Time(1),
            Event::Arrival {
                node: hosts[1],
                port: 0,
                pkt,
            },
        );
        sim.run();
        // The stale packet's slot was still recycled.
        assert!(sim.core().packet_arena().is_empty());
    }
}

#[cfg(test)]
mod flow_slot_tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::app::{NullApp, StaticFlows};
    use crate::endpoint::{ReceiverEndpoint, SenderEndpoint};
    use crate::packet::{Flags, Packet, MSS};
    use crate::topology::{leaf_spine, TopologyBuilder};
    use crate::units::Bandwidth;

    /// Every packet an endpoint saw: `(flow, role, seq, ack)`.
    type Seen = Arc<Mutex<Vec<(FlowId, &'static str, u64, u64)>>>;

    const RTO: u64 = 1;

    /// A one-packet request/ack protocol: the sender emits the flow's
    /// bytes as one data packet and arms a retransmit timer; the
    /// receiver delivers and acks it; the ack stops the timer and
    /// finishes the sender. Both log every packet they see.
    struct PingSender {
        flow: FlowId,
        spec: FlowSpec,
        seen: Seen,
    }

    impl PingSender {
        fn send(&self, fx: &mut Effects) {
            let bytes = self.spec.bytes.unwrap_or(MSS);
            fx.send(Packet::data(self.flow, self.spec.src, self.spec.dst, 0, bytes));
            fx.timer(Dur::millis(1), RTO);
        }
    }

    impl SenderEndpoint for PingSender {
        fn open(&mut self, _now: Time, fx: &mut Effects) {
            self.send(fx);
        }
        fn push_data(&mut self, _bytes: u64, _now: Time, _fx: &mut Effects) {}
        fn close(&mut self, _now: Time, _fx: &mut Effects) {}
        fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
            self.seen.lock().unwrap().push((self.flow, "sender", pkt.seq, pkt.ack));
            if pkt.flags.contains(Flags::ACK) {
                fx.stop_timer();
                fx.note(Note::SenderDone);
            }
        }
        fn on_timer(&mut self, _token: u64, _now: Time, fx: &mut Effects) {
            self.send(fx);
        }
        fn cwnd(&self) -> u64 {
            MSS
        }
        fn acked_bytes(&self) -> u64 {
            0
        }
    }

    struct PingReceiver {
        flow: FlowId,
        spec: FlowSpec,
        got: u64,
        seen: Seen,
    }

    impl ReceiverEndpoint for PingReceiver {
        fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
            self.seen.lock().unwrap().push((self.flow, "receiver", pkt.seq, pkt.ack));
            if self.got == 0 {
                self.got = pkt.payload;
                fx.note(Note::Delivered { bytes: pkt.payload });
                fx.note(Note::ReceiverDone);
            }
            let ack = pkt.seq + pkt.payload;
            fx.send(Packet::ack(self.flow, self.spec.dst, self.spec.src, ack));
        }
        fn delivered_bytes(&self) -> u64 {
            self.got
        }
    }

    struct PingStack(Seen);

    impl ProtocolStack for PingStack {
        fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint> {
            Box::new(PingSender {
                flow,
                spec: spec.clone(),
                seen: self.0.clone(),
            })
        }
        fn new_receiver(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn ReceiverEndpoint> {
            Box::new(PingReceiver {
                flow,
                spec: spec.clone(),
                got: 0,
                seen: self.0.clone(),
            })
        }
        fn name(&self) -> &'static str {
            "ping"
        }
    }

    fn ping_sim<A: Application>(
        n_leaf: usize,
        hosts_per_leaf: usize,
        app: A,
        retire: Option<RetireConfig>,
    ) -> (Simulator<A>, Vec<NodeId>, Seen) {
        let (t, hosts, _) = leaf_spine(
            n_leaf,
            hosts_per_leaf,
            Bandwidth::gbps(1),
            Bandwidth::gbps(10),
            Dur::micros(1),
        );
        let seen = Seen::default();
        let cfg = SimConfig {
            retire,
            ..Default::default()
        };
        let sim = Simulator::new(t.build_drop_tail(), Box::new(PingStack(seen.clone())), app, cfg);
        (sim, hosts, seen)
    }

    fn retire_at_once() -> RetireConfig {
        RetireConfig {
            reuse_after: Dur::ZERO,
            ..Default::default()
        }
    }

    /// Without retirement the flow-slot table holds one slot per flow
    /// ever started, and nothing per flow is kept per host: the same
    /// flows over 8 or 120 hosts leave the same table behind.
    #[test]
    fn flow_slots_grow_with_flows_not_hosts() {
        const FLOWS: usize = 48;
        let mut capacities = Vec::new();
        for (n_leaf, per_leaf) in [(2, 4), (6, 20)] {
            let (mut sim, hosts, _) = ping_sim(n_leaf, per_leaf, NullApp, None);
            let h = hosts.len();
            let ids: Vec<FlowId> = (0..FLOWS)
                .map(|i| {
                    let spec = FlowSpec::sized(hosts[i % h], hosts[(i + h / 2) % h], 1_000);
                    sim.core_mut().start_flow(spec)
                })
                .collect();
            sim.run();
            for &id in &ids {
                assert_eq!(sim.core().flow(id).delivered, 1_000);
            }
            let (live, peak, capacity) = sim.core().flow_slab_stats();
            assert_eq!((live, peak, capacity), (FLOWS, FLOWS, FLOWS), "{h} hosts");
            assert_eq!(sim.core().flows.capacity(), capacity);
            capacities.push(capacity);
        }
        assert_eq!(capacities[0], capacities[1], "independent of the host count");
    }

    /// With retirement every slot empties once the run drains, and the
    /// table is bounded by peak concurrency while ids recycle.
    #[test]
    fn retired_flow_slots_are_empty_after_drain() {
        const FLOWS: u64 = 200;
        let schedule: Vec<(u64, FlowSpec)> = (0..FLOWS)
            .map(|i| {
                let (src, dst) = ((i % 12) as u32, ((i + 5) % 12) as u32);
                (i * 5_000, FlowSpec::sized(NodeId(src), NodeId(dst), 1_000))
            })
            .collect();
        let (mut sim, _, _) = ping_sim(3, 4, StaticFlows::new(schedule), Some(retire_at_once()));
        sim.run();
        let core = sim.core();
        assert_eq!(core.retirer().expect("retirement on").total(), FLOWS);
        let (live, peak, capacity) = core.flow_slab_stats();
        assert_eq!(live, 0, "every slot freed after drain");
        assert!(core.flows().next().is_none());
        assert!(
            capacity == peak && capacity < FLOWS as usize / 4,
            "ids must recycle: capacity {capacity}, peak {peak}"
        );
        assert!(core.packet_arena().is_empty());
    }

    /// A packet of a retired flow whose id now names a flow between two
    /// other hosts is stale at either old endpoint: neither new endpoint
    /// sees it, and its arena slot is still freed.
    #[test]
    fn reused_flow_id_on_other_hosts_takes_stale_path() {
        const STALE: u64 = 0xdead;
        const B_START: u64 = 1_000_000;
        let (h0, h1, h2, h3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let app = StaticFlows::new(vec![
            (0, FlowSpec::sized(h0, h1, 1_000)),
            (B_START, FlowSpec::sized(h2, h3, 1_000)),
        ]);
        let (mut sim, hosts, seen) = ping_sim(2, 2, app, Some(retire_at_once()));
        assert_eq!(hosts, vec![h0, h1, h2, h3]);
        // Flow A (h0 -> h1) retires long before B starts; B reuses its
        // id. The stale packets land while B is live.
        let old = FlowId(0);
        for (node, pkt) in [
            (h1, Packet::data(old, h0, h1, STALE, 100)),
            (h0, Packet::ack(old, h1, h0, STALE)),
        ] {
            let pkt = sim.core_mut().packets.alloc(pkt);
            sim.core_mut()
                .events
                .schedule(Time(B_START + 1), Event::Arrival { node, port: 0, pkt });
        }
        sim.run();
        let ids = sim.app().flow_ids().to_vec();
        assert_eq!(ids, vec![Some(old), Some(old)], "B must reuse A's id");
        assert_eq!(sim.core().retirer().expect("retirement on").total(), 2);
        let seen = seen.lock().unwrap();
        assert!(
            seen.iter().all(|&(_, _, seq, ack)| seq != STALE && ack != STALE),
            "a new endpoint saw a stale packet: {seen:?}"
        );
        // A and B each saw exactly one data packet and one ack.
        assert_eq!(seen.len(), 4);
        assert!(sim.core().packet_arena().is_empty());
    }

    #[test]
    fn try_start_flow_rejects_bad_endpoints_without_side_effects() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host();
        let h2 = t.host();
        let s = t.switch();
        t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h2, s, Bandwidth::gbps(1), Dur::micros(1));
        let seen = Seen::default();
        let mut sim = Simulator::new(
            t.build_drop_tail(),
            Box::new(PingStack(seen)),
            NullApp,
            SimConfig {
                retire: Some(retire_at_once()),
                ..Default::default()
            },
        );
        let first = sim.core_mut().start_flow(FlowSpec::sized(h1, h2, 1_000));
        sim.run();
        let ghost = NodeId(9);
        let cases = [
            (FlowSpec::sized(h1, h1, 1), FlowError::SameEndpoints),
            (FlowSpec::sized(ghost, h2, 1), FlowError::UnknownNode(ghost)),
            (FlowSpec::sized(h1, ghost, 1), FlowError::UnknownNode(ghost)),
            (FlowSpec::sized(s, h2, 1), FlowError::NotAHost(s)),
            (FlowSpec::sized(h1, s, 1), FlowError::NotAHost(s)),
        ];
        for (spec, want) in cases {
            let core = sim.core_mut();
            let before = (core.next_flow_id, core.free_ids.len(), core.flow_slab_stats());
            assert_eq!(core.try_start_flow(spec.clone()), Err(want));
            let mut api = SimApi { core: &mut *core };
            assert_eq!(api.try_start_flow(spec), Err(want));
            let after = (core.next_flow_id, core.free_ids.len(), core.flow_slab_stats());
            assert_eq!(before, after, "{want:?} must leave no state behind");
        }
        assert_eq!(FlowError::SameEndpoints.to_string(), "flow endpoints must differ");
        assert_eq!(FlowError::UnknownNode(ghost).to_string(), "unknown node 9");
        assert_eq!(FlowError::NotAHost(s).to_string(), "flow endpoint 2 is not a host");
        // The retired id was not consumed by the rejected calls.
        let again = sim.core_mut().try_start_flow(FlowSpec::sized(h2, h1, 1_000));
        assert_eq!(again, Ok(first));
    }

    #[test]
    #[should_panic(expected = "invalid flow: flow endpoint 2 is not a host")]
    fn start_flow_panics_on_switch_endpoint() {
        let (mut sim, hosts, _) = ping_sim(1, 2, NullApp, None);
        sim.core_mut().start_flow(FlowSpec::sized(hosts[0], NodeId(2), 1));
    }
}

/// Deadline timers end to end: a timer fires once, at the deadline it
/// was last set to, and a stopped, superseded or retired flow's entry
/// never dispatches.
#[cfg(test)]
mod deadline_tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::node::PortLink;
    use crate::packet::{Flags, Packet, MSS};
    use crate::policy::{EgressVerdict, PolicyFx, SwitchPolicy};
    use crate::topology::TopologyBuilder;
    use crate::units::Bandwidth;

    /// Timer fires logged by the deadline-test endpoints and policy:
    /// `(owner, ns, token)`, the owner being a flow id or a port.
    type Fires = Arc<Mutex<Vec<(u64, u64, u64)>>>;

    /// A sender that is little more than its timer: `push_data(n)` sets
    /// the timer to fire after `n` µs carrying `n`, `push_data(0)`
    /// stops it, and every fire is logged. A sized flow sends its bytes
    /// once at open, sets a 1 ms timer carrying 1, and finishes on the
    /// ack without touching the timer.
    struct TimerSender {
        flow: FlowId,
        spec: FlowSpec,
        fires: Fires,
    }

    impl SenderEndpoint for TimerSender {
        fn open(&mut self, _now: Time, fx: &mut Effects) {
            if let Some(bytes) = self.spec.bytes {
                fx.send(Packet::data(self.flow, self.spec.src, self.spec.dst, 0, bytes));
                fx.timer(Dur::millis(1), 1);
            }
        }
        fn push_data(&mut self, us: u64, _now: Time, fx: &mut Effects) {
            match us {
                0 => fx.stop_timer(),
                _ => fx.timer(Dur::micros(us), us),
            }
        }
        fn close(&mut self, _now: Time, _fx: &mut Effects) {}
        fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
            if pkt.flags.contains(Flags::ACK) {
                fx.note(Note::SenderDone);
            }
        }
        fn on_timer(&mut self, token: u64, now: Time, _fx: &mut Effects) {
            self.fires.lock().unwrap().push((self.flow.0, now.nanos(), token));
        }
        fn cwnd(&self) -> u64 {
            MSS
        }
        fn acked_bytes(&self) -> u64 {
            0
        }
    }

    /// Acks whatever arrives and finishes on the first packet.
    struct AckReceiver {
        flow: FlowId,
        spec: FlowSpec,
    }

    impl ReceiverEndpoint for AckReceiver {
        fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
            fx.note(Note::Delivered { bytes: pkt.payload });
            fx.note(Note::ReceiverDone);
            let ack = pkt.seq + pkt.payload;
            fx.send(Packet::ack(self.flow, self.spec.dst, self.spec.src, ack));
        }
        fn delivered_bytes(&self) -> u64 {
            0
        }
    }

    struct TimerStack(Fires);

    impl ProtocolStack for TimerStack {
        fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint> {
            Box::new(TimerSender {
                flow,
                spec: spec.clone(),
                fires: self.0.clone(),
            })
        }
        fn new_receiver(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn ReceiverEndpoint> {
            Box::new(AckReceiver {
                flow,
                spec: spec.clone(),
            })
        }
        fn name(&self) -> &'static str {
            "timer"
        }
    }

    /// Starts each `(at_ns, spec)` flow, and at each `(at_ns, us)`
    /// command pushes `us` on the flow started last.
    struct Script {
        starts: Vec<(u64, FlowSpec)>,
        cmds: Vec<(u64, u64)>,
        last: Option<FlowId>,
    }

    impl Application for Script {
        fn start(&mut self, api: &mut SimApi<'_>) {
            let times = self.starts.iter().map(|s| s.0).chain(self.cmds.iter().map(|c| c.0));
            for (i, at) in times.enumerate() {
                api.set_timer_at(Time(at), i as u64);
            }
        }
        fn on_timer(&mut self, token: u64, api: &mut SimApi<'_>) {
            let i = token as usize;
            match self.starts.get(i) {
                Some((_, spec)) => self.last = Some(api.start_flow(spec.clone())),
                None => {
                    let us = self.cmds[i - self.starts.len()].1;
                    api.push_data(self.last.expect("a flow was started"), us);
                }
            }
        }
    }

    /// Two hosts (0 and 1) behind switch 2, driven by a [`Script`].
    fn deadline_sim(
        starts: Vec<(u64, FlowSpec)>,
        cmds: Vec<(u64, u64)>,
        retire: Option<RetireConfig>,
        make_policy: impl FnMut(NodeId, &[PortLink]) -> Box<dyn SwitchPolicy>,
    ) -> (Simulator<Script>, Fires) {
        let mut t = TopologyBuilder::new();
        let (h0, h1, s) = (t.host(), t.host(), t.switch());
        t.link(h0, s, Bandwidth::gbps(1), Dur::micros(1));
        t.link(h1, s, Bandwidth::gbps(1), Dur::micros(1));
        let fires = Fires::default();
        let app = Script {
            starts,
            cmds,
            last: None,
        };
        let cfg = SimConfig {
            retire,
            ..Default::default()
        };
        let stack = Box::new(TimerStack(fires.clone()));
        (Simulator::new(t.build(make_policy), stack, app, cfg), fires)
    }

    fn drop_tail(_: NodeId, _: &[PortLink]) -> Box<dyn SwitchPolicy> {
        Box::new(crate::policy::DropTail)
    }

    /// Events of `kind` the loop dispatched.
    fn dispatched<A: Application>(sim: &Simulator<A>, kind: &str) -> u64 {
        let rows = sim.core().telemetry().loop_stats.rows();
        rows.filter(|r| r.0 == kind).map(|r| r.1).sum()
    }

    fn open_flow() -> Vec<(u64, FlowSpec)> {
        vec![(0, FlowSpec::open_ended(NodeId(0), NodeId(1)))]
    }

    #[test]
    fn deadline_fires_once_at_exactly_the_latest_deadline() {
        // Set to 100 µs, then re-set at 50 µs (due 150 µs) and at
        // 120 µs (due 320 µs): only the last deadline fires.
        let cmds = vec![(0, 100), (50_000, 100), (120_000, 200)];
        let (mut sim, fires) = deadline_sim(open_flow(), cmds, None, drop_tail);
        sim.run();
        assert_eq!(*fires.lock().unwrap(), vec![(0, 320_000, 200)]);
        assert_eq!(sim.core().now(), Time(320_000));
        assert_eq!(dispatched(&sim, "host_timer"), 1);
    }

    #[test]
    fn deadline_moved_earlier_fires_early() {
        let cmds = vec![(0, 500), (10_000, 20)];
        let (mut sim, fires) = deadline_sim(open_flow(), cmds, None, drop_tail);
        sim.run();
        assert_eq!(*fires.lock().unwrap(), vec![(0, 30_000, 20)]);
        // The superseded 500 µs entry drains without moving `now`.
        assert_eq!(sim.core().now(), Time(30_000));
        assert_eq!(dispatched(&sim, "host_timer"), 1);
    }

    #[test]
    fn deadline_stopped_never_dispatches_nor_moves_now_at_drain() {
        let cmds = vec![(0, 500), (10_000, 0)];
        let (mut sim, fires) = deadline_sim(open_flow(), cmds, None, drop_tail);
        sim.run();
        assert!(fires.lock().unwrap().is_empty());
        assert_eq!(sim.core().now(), Time(10_000));
        assert_eq!(dispatched(&sim, "host_timer"), 0);
        assert_eq!(sim.core().events_processed(), 3, "two app timers and a flow start");
    }

    /// Flow A sets a 1 ms timer, finishes and retires with it pending;
    /// B reuses A's id and sets its own timer. A's entry pops at 1 ms
    /// and must not fire into B.
    #[test]
    fn deadline_of_a_retired_flow_never_reaches_a_reused_id() {
        let starts = vec![
            (0, FlowSpec::sized(NodeId(0), NodeId(1), 1_000)),
            (500_000, FlowSpec::open_ended(NodeId(0), NodeId(1))),
        ];
        let cmds = vec![(600_000, 700)];
        let (mut sim, fires) = deadline_sim(starts, cmds, Some(RetireConfig {
            reuse_after: Dur::ZERO,
            ..Default::default()
        }), drop_tail);
        sim.run();
        assert_eq!(sim.app().last, Some(FlowId(0)), "B must reuse A's id");
        assert_eq!(sim.core().retirer().expect("retirement on").total(), 1);
        assert_eq!(*fires.lock().unwrap(), vec![(0, 1_300_000, 700)]);
        assert_eq!(dispatched(&sim, "host_timer"), 1);
    }

    /// Sets two timers per port on the port's first egress packet and
    /// stops both on `reset_port`; logs every fire as `(port, ns, token)`.
    struct TwoTimers {
        fires: Fires,
        armed: bool,
    }

    impl SwitchPolicy for TwoTimers {
        fn on_egress(
            &mut self,
            out_port: usize,
            _pkt: &mut Packet,
            _queue_bytes: u64,
            _now: Time,
            fx: &mut PolicyFx,
        ) -> EgressVerdict {
            if !self.armed {
                self.armed = true;
                let token = 2 * out_port as u64;
                fx.timer(Dur::micros(100), token);
                fx.timer(Dur::micros(200), token + 1);
            }
            EgressVerdict::Enqueue
        }
        fn on_timer(&mut self, token: u64, now: Time, _fx: &mut PolicyFx) {
            self.fires.lock().unwrap().push((token / 2, now.nanos(), token));
        }
        fn reset_port(&mut self, port: usize, _rate: Bandwidth, _now: Time, fx: &mut PolicyFx) {
            fx.stop_timer(2 * port as u64);
            fx.stop_timer(2 * port as u64 + 1);
        }
    }

    #[test]
    fn deadline_policy_reset_stops_both_of_the_ports_timers() {
        for reset in [false, true] {
            let policy_fires = Fires::default();
            let log = policy_fires.clone();
            let starts = vec![(0, FlowSpec::sized(NodeId(0), NodeId(1), 1_000))];
            let (mut sim, _) = deadline_sim(starts, Vec::new(), None, move |_, _| {
                Box::new(TwoTimers {
                    fires: log.clone(),
                    armed: false,
                }) as Box<dyn SwitchPolicy>
            });
            if reset {
                // Port 1 of switch 2 leads to host 1.
                let action = FaultAction::PolicyReset { node: NodeId(2), port: 1 };
                sim.core_mut().inject_fault(Time(50_000), action);
            }
            sim.run();
            let fires = policy_fires.lock().unwrap().clone();
            if reset {
                assert!(fires.is_empty(), "stopped timers fired: {fires:?}");
                assert_eq!(dispatched(&sim, "policy_timer"), 0);
            } else {
                let tokens: Vec<u64> = fires.iter().map(|f| f.2).collect();
                assert_eq!(tokens, vec![2, 3], "both timers fire without the reset");
            }
        }
    }
}
