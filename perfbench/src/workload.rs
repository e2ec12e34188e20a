//! The three benchmark workloads: input generation from the benchmark
//! seed, the replay application that feeds the inputs to the simulator
//! open-loop, and the per-run outcome the checks and metrics read.
//!
//! The simulator never sees the seed. Each workload turns it into a
//! flow schedule (and, for `fat_tree_faults`, a fault timeline) before
//! any timing starts; the simulator runs with `SimConfig::default()`
//! apart from the telemetry and retirement fields the workload needs.
//!
//! Run-to-run spread across seeds is kept small on purpose, because the
//! benchmark compares medians over seeds: every class has a fixed flow
//! count (a Poisson process conditioned on its count, so arrival times
//! are sorted uniform draws over the horizon) and flow sizes are drawn
//! by stratified inverse-CDF sampling (one draw per equal-probability
//! stratum, shuffled), which keeps each class's size distribution but
//! removes most of the seed-to-seed variance of the total bytes. The
//! `incast_mix` query targets are distinct hosts: two fan-ins landing on
//! one receiver is a rare event that alone moves the short-flow p99 by
//! up to 40 % between seeds.

use chaos::FaultTimeline;
use metrics::PiecewiseCdf;
use rng::rngs::StdRng;
use rng::seq::SliceRandom;
use rng::{Rng, SeedableRng};
use simnet::app::{Application, FlowEvent};
use simnet::endpoint::{FlowSpec, ProtocolStack};
use simnet::node::PortLink;
use simnet::packet::NodeId;
use simnet::policy::SwitchPolicy;
use simnet::retire::RetireConfig;
use simnet::sim::{SimApi, SimConfig};
use simnet::topology::{fat_tree, leaf_spine, TopologyBuilder};
use simnet::units::{Bandwidth, Dur, Time};
use telemetry::{LogMode, TelemetryConfig, TraceConfig};
use workloads::dist::{background_flow_sizes, cache_follower_flow_sizes};

/// Flows of at most this many bytes count as short for the FCT metrics.
pub const SHORT_FLOW_BYTES: u64 = 100_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6.2.2 / Fig. 16 mix: 359-way query incasts, short
    /// messages and web-search background on the 1/10 Gbps leaf-spine.
    IncastMix,
    /// Open-loop cache-follower mice plus web-search elephants on the
    /// 10/40 Gbps leaf-spine with flow retirement and ring telemetry.
    StreamRetire,
    /// A k = 28 fat-tree with a sparse flow matrix, a hot-rack slice,
    /// link flaps and loss bursts.
    FatTreeFaults,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::IncastMix,
        Workload::StreamRetire,
        Workload::FatTreeFaults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastMix => "incast_mix",
            Workload::StreamRetire => "stream_retire",
            Workload::FatTreeFaults => "fat_tree_faults",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fabric a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// `leaf_spine(leaves, hosts_per_leaf, edge, up, delay)`.
    LeafSpine {
        /// Leaf switches.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Host links.
        edge: Bandwidth,
        /// Leaf uplinks.
        up: Bandwidth,
        /// Per-link propagation delay.
        delay: Dur,
    },
    /// `fat_tree(k, edge, fabric, delay)`.
    FatTree {
        /// Arity.
        k: usize,
        /// Host links.
        edge: Bandwidth,
        /// Switch-to-switch links.
        fabric: Bandwidth,
        /// Per-link propagation delay.
        delay: Dur,
    },
}

impl Fabric {
    /// The topology builder with its host and switch ids (cheap: no
    /// routes are computed until `build`).
    pub fn shape(self) -> (TopologyBuilder, Vec<NodeId>, Vec<NodeId>) {
        match self {
            Fabric::LeafSpine {
                leaves,
                hosts_per_leaf,
                edge,
                up,
                delay,
            } => leaf_spine(leaves, hosts_per_leaf, edge, up, delay),
            Fabric::FatTree {
                k,
                edge,
                fabric,
                delay,
            } => fat_tree(k, edge, fabric, delay),
        }
    }

    /// Port count of each switch, in the builder's switch order.
    pub fn switch_ports(self) -> Vec<usize> {
        match self {
            Fabric::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => std::iter::once(leaves)
                .chain(std::iter::repeat_n(1 + hosts_per_leaf, leaves))
                .collect(),
            Fabric::FatTree { k, .. } => vec![k; 5 * k * k / 4],
        }
    }

    /// Host link rate: the serialisation term of the ideal FCT.
    pub fn edge_rate(self) -> Bandwidth {
        match self {
            Fabric::LeafSpine { edge, .. } | Fabric::FatTree { edge, .. } => edge,
        }
    }

    /// Propagation round trip over the longest host-to-host path: the
    /// latency term of the ideal FCT.
    pub fn base_rtt(self) -> Dur {
        let (links, delay) = match self {
            Fabric::LeafSpine { delay, .. } => (4, delay),
            Fabric::FatTree { delay, .. } => (6, delay),
        };
        Dur(2 * links * delay.as_nanos())
    }

    /// A short description for artifact manifests.
    pub fn describe(self) -> String {
        match self {
            Fabric::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => format!("leaf_spine({leaves}x{hosts_per_leaf})"),
            Fabric::FatTree { k, .. } => format!("fat_tree(k={k})"),
        }
    }
}

/// One scheduled flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Scheduled start (simulated ns); FCTs count from here.
    pub at_ns: u64,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Flow size.
    pub bytes: u64,
    /// Class tag (keys the retirement sketches on `stream_retire`).
    pub class: u8,
}

/// Everything a workload hands the simulator, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its fabric.
    pub fabric: Fabric,
    /// Flow schedule, sorted by start time.
    pub schedule: Vec<Arrival>,
    /// Scripted faults (empty except on `fat_tree_faults`).
    pub faults: FaultTimeline,
    /// Flow retirement (on for `stream_retire` only).
    pub retire: Option<RetireConfig>,
    /// Event-log mode and packet-event sampling for the run.
    pub events: (LogMode, u64),
    /// Flows that cross a loss burst while it is active, when the
    /// workload has loss bursts (input property, reported in the doc).
    pub loss_exposed: usize,
}

impl Inputs {
    /// Generates a workload's inputs from the benchmark seed.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7fc0_be4c_0000_0000 ^ workload as u64);
        match workload {
            Workload::IncastMix => incast_mix(&mut rng),
            Workload::StreamRetire => stream_retire(&mut rng),
            Workload::FatTreeFaults => fat_tree_faults(&mut rng),
        }
    }

    /// The simulator configuration: defaults plus the workload's
    /// telemetry, retirement and artifact export.
    pub fn sim_config(&self, export: Option<&str>, traced: bool) -> SimConfig {
        SimConfig {
            retire: self.retire.clone(),
            telemetry: TelemetryConfig {
                events: self.events.0,
                sample_one_in: self.events.1,
                profile: traced,
                trace: if traced {
                    TraceConfig::SampledFlows {
                        permille: 16,
                        seed: 9,
                    }
                } else {
                    TraceConfig::Off
                },
                export: export.map(str::to_string),
                ..TelemetryConfig::default()
            },
            ..SimConfig::default()
        }
    }
}

/// Sorted uniform arrival times: a Poisson process over `[start,
/// start + horizon)` conditioned on `n` arrivals.
fn arrival_times(rng: &mut StdRng, n: usize, start: Dur, horizon: Dur) -> Vec<u64> {
    let mut t: Vec<u64> = (0..n)
        .map(|_| start.as_nanos() + rng.gen_range(0..horizon.as_nanos()))
        .collect();
    t.sort_unstable();
    t
}

/// `n` stratified draws from `cdf` in random order.
fn stratified_sizes(rng: &mut StdRng, n: usize, cdf: &PiecewiseCdf) -> Vec<u64> {
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.gen_range(0.0..1.0)) / n as f64;
            cdf.inverse(u).round().max(1.0) as u64
        })
        .collect();
    sizes.shuffle(rng);
    sizes
}

/// A uniformly random ordered pair of distinct hosts.
fn pair(rng: &mut StdRng, hosts: &[NodeId]) -> (NodeId, NodeId) {
    let a = rng.gen_range(0..hosts.len());
    let mut b = rng.gen_range(0..hosts.len() - 1);
    if b >= a {
        b += 1;
    }
    (hosts[a], hosts[b])
}

fn sorted(mut schedule: Vec<Arrival>) -> Vec<Arrival> {
    // Stable: same-time arrivals keep generation order.
    schedule.sort_by_key(|a| a.at_ns);
    schedule
}

/// §6.2.2 / Fig. 16 (`BenchExpConfig::large`): 18 × 20 hosts, 1 Gbps
/// edges, 10 Gbps uplinks, 20 µs links. Queries every 10 ms fan in 2 KB
/// from all 359 other hosts; short messages (50 KB – 1 MB) every 3 ms;
/// web-search background every 1 ms; 1 s of arrivals, then a full drain.
fn incast_mix(rng: &mut StdRng) -> Inputs {
    let fabric = Fabric::LeafSpine {
        leaves: 18,
        hosts_per_leaf: 20,
        edge: Bandwidth::gbps(1),
        up: Bandwidth::gbps(10),
        delay: Dur::micros(20),
    };
    let (_, hosts, _) = fabric.shape();
    let horizon = Dur::millis(1000);
    let n = hosts.len();
    let mut schedule = Vec::new();
    // Distinct targets; see the module docs on seed-to-seed spread.
    let mut targets: Vec<usize> = (0..n).collect();
    targets.shuffle(rng);
    for (&target, at_ns) in targets
        .iter()
        .zip(arrival_times(rng, 100, Dur::ZERO, horizon))
    {
        for k in 1..n {
            schedule.push(Arrival {
                at_ns,
                src: hosts[(target + k) % n],
                dst: hosts[target],
                bytes: 2_000,
                class: 0,
            });
        }
    }
    let shorts = arrival_times(rng, 333, Dur::ZERO, horizon);
    let short_sizes: Vec<u64> = {
        let uniform = PiecewiseCdf::new(vec![(50_000.0, 0.0), (1_000_000.0, 1.0)]);
        stratified_sizes(rng, shorts.len(), &uniform)
    };
    for (at_ns, bytes) in shorts.into_iter().zip(short_sizes) {
        let (src, dst) = pair(rng, &hosts);
        schedule.push(Arrival {
            at_ns,
            src,
            dst,
            bytes,
            class: 1,
        });
    }
    let bg = arrival_times(rng, 1000, Dur::ZERO, horizon);
    let bg_sizes = stratified_sizes(rng, bg.len(), &background_flow_sizes());
    for (at_ns, bytes) in bg.into_iter().zip(bg_sizes) {
        let (src, dst) = pair(rng, &hosts);
        schedule.push(Arrival {
            at_ns,
            src,
            dst,
            bytes,
            class: 2,
        });
    }
    Inputs {
        workload: Workload::IncastMix,
        fabric,
        schedule: sorted(schedule),
        faults: FaultTimeline::new(),
        retire: None,
        events: (LogMode::Off, 1),
        loss_exposed: 0,
    }
}

/// The streaming RPC mix of `tfc-million` (`MillionConfig::full`) on
/// the 18 × 20 leaf-spine at 10/40 Gbps: cache-follower mice at an
/// aggregate 1.1 µs mean gap plus web-search elephants every 1 ms, with
/// flow retirement on and ring-mode event telemetry recorded and
/// exported. The schedule drains completely, so every flow retires.
fn stream_retire(rng: &mut StdRng) -> Inputs {
    let fabric = Fabric::LeafSpine {
        leaves: 18,
        hosts_per_leaf: 20,
        edge: Bandwidth::gbps(10),
        up: Bandwidth::gbps(40),
        delay: Dur::micros(20),
    };
    let (_, hosts, _) = fabric.shape();
    let mice = 100_000usize;
    let horizon = Dur(mice as u64 * 1_100);
    let elephants = (horizon.as_nanos() / 1_000_000) as usize;
    let mut schedule = Vec::new();
    for (class, n, cdf) in [
        (0u8, mice, cache_follower_flow_sizes()),
        (1u8, elephants, background_flow_sizes()),
    ] {
        let times = arrival_times(rng, n, Dur::ZERO, horizon);
        let sizes = stratified_sizes(rng, n, &cdf);
        for (at_ns, bytes) in times.into_iter().zip(sizes) {
            let (src, dst) = pair(rng, &hosts);
            schedule.push(Arrival {
                at_ns,
                src,
                dst,
                bytes,
                class,
            });
        }
    }
    Inputs {
        workload: Workload::StreamRetire,
        fabric,
        schedule: sorted(schedule),
        faults: FaultTimeline::new(),
        retire: Some(RetireConfig {
            base_rtt: fabric.base_rtt(),
            line_rate: fabric.edge_rate(),
            classes: vec!["cache-follower".into(), "web-search".into()],
            ..RetireConfig::default()
        }),
        events: (LogMode::Ring(4096), 256),
        loss_exposed: 0,
    }
}

/// Start of the hot-rack slice and of its loss bursts.
const HOT_START: Dur = Dur(1_000_000);
/// Length of the hot-rack arrival window.
const HOT_WINDOW: Dur = Dur(2_000_000);
/// Length of each loss burst.
const BURST: Dur = Dur(3_000_000);
/// Size of every hot-rack flow (a storage chunk read): one size keeps
/// the slowdown of a stalled flow, and so `slowdown_p99`, the same from
/// seed to seed.
const HOT_BYTES: u64 = 64_000;

/// A k = 28 fat-tree (5,488 hosts, 980 switches, ECMP) at 10 Gbps
/// edges and 40 Gbps fabric links with 5 µs links. 1,000 matrix flows
/// between random hosts arrive over 4 ms; a hot-rack slice of 100 short
/// flows into one seed-chosen rack arrives over 2 ms. The rack's edge
/// uplink and an aggregation-core link of its pod flap, and loss bursts
/// cover every downlink into the hot rack while the slice runs.
fn fat_tree_faults(rng: &mut StdRng) -> Inputs {
    let k = 28;
    let half = k / 2;
    let fabric = Fabric::FatTree {
        k,
        edge: Bandwidth::gbps(10),
        fabric: Bandwidth::gbps(40),
        delay: Dur::micros(5),
    };
    let (_, hosts, switches) = fabric.shape();
    let mut schedule = Vec::new();
    let matrix = arrival_times(rng, 1000, Dur::ZERO, Dur::millis(4));
    let uniform = PiecewiseCdf::new(vec![(20_000.0, 0.0), (400_000.0, 1.0)]);
    let sizes = stratified_sizes(rng, matrix.len(), &uniform);
    for (at_ns, bytes) in matrix.into_iter().zip(sizes) {
        let (src, dst) = pair(rng, &hosts);
        schedule.push(Arrival {
            at_ns,
            src,
            dst,
            bytes,
            class: 0,
        });
    }
    // Racks are numbered pod-major; rack r's hosts are r*half..+half.
    let rack = rng.gen_range(0..k * half);
    let (pod, edge_in_pod) = (rack / half, rack % half);
    let rack_hosts = &hosts[rack * half..(rack + 1) * half];
    for at_ns in arrival_times(rng, 100, HOT_START, HOT_WINDOW) {
        let dst = rack_hosts[rng.gen_range(0..half)];
        let mut src = hosts[rng.gen_range(0..hosts.len())];
        while rack_hosts.contains(&src) {
            src = hosts[rng.gen_range(0..hosts.len())];
        }
        schedule.push(Arrival {
            at_ns,
            src,
            dst,
            bytes: HOT_BYTES,
            class: 1,
        });
    }
    // `switches` lists the (k/2)^2 cores, then per pod its k/2
    // aggregation and k/2 edge switches. Edge ports 0..k/2 go up to the
    // aggregation switches, k/2.. down to the rack's hosts; aggregation
    // ports 0..k/2 go up to its core group.
    let pod_base = half * half + pod * k;
    let agg = switches[pod_base];
    let edge = switches[pod_base + half + edge_in_pod];
    let mut faults = FaultTimeline::new()
        .link_flap(Time(1_000_000), Dur::millis(1), edge, 0)
        .link_flap(Time(2_500_000), Dur::micros(800), agg, 0);
    for h in 0..half {
        faults = faults.loss_burst(Time(HOT_START.as_nanos()), BURST, edge, half + h, 20);
    }
    let schedule = sorted(schedule);
    let burst_end = HOT_START.as_nanos() + BURST.as_nanos();
    let loss_exposed = schedule
        .iter()
        .filter(|a| rack_hosts.contains(&a.dst) && a.at_ns < burst_end)
        .count();
    Inputs {
        workload: Workload::FatTreeFaults,
        fabric,
        schedule,
        faults,
        retire: None,
        events: (LogMode::Off, 1),
        loss_exposed,
    }
}

/// Builds the TFC network for `fabric`, passing every switch policy
/// through `wrap` (the identity for untraced runs).
pub fn build_network(
    fabric: Fabric,
    wrap: impl Fn(Box<dyn SwitchPolicy>) -> Box<dyn SwitchPolicy>,
) -> simnet::topology::Network {
    let cfg = experiments::ProtoConfig::ten_gig();
    let (builder, _, _) = fabric.shape();
    let mut make = tfc::TfcSwitchPolicy::factory(cfg.tfc_switch);
    builder.build(move |id, links: &[PortLink]| wrap(make(id, links)))
}

/// The TFC host stack.
pub fn tfc_stack() -> Box<dyn ProtocolStack> {
    experiments::ProtoConfig::ten_gig().stack(experiments::Proto::Tfc)
}

/// Replays a schedule open-loop: one application timer is armed for the
/// next due arrival, and when it fires every flow due at that instant
/// starts, whatever the state of earlier flows. Records each flow's
/// completion for the metrics and the output checks.
pub struct ReplayApp {
    schedule: Vec<Arrival>,
    next: usize,
    /// Schedule index of each live flow id (ids recycle under retirement).
    idx_of: Vec<u32>,
    /// Per arrival: FCT in ns from the scheduled start, once completed.
    fct_ns: Vec<Option<u64>>,
    /// Flows whose delivered byte count differed from their size when
    /// they completed.
    bad_size: u64,
    delivered: u64,
    completed: u64,
}

impl ReplayApp {
    /// Builds the replayer; `schedule` must be sorted by start time.
    pub fn new(schedule: Vec<Arrival>) -> Self {
        let n = schedule.len();
        Self {
            schedule,
            next: 0,
            idx_of: Vec::new(),
            fct_ns: vec![None; n],
            bad_size: 0,
            delivered: 0,
            completed: 0,
        }
    }

    fn arm(&self, api: &mut SimApi<'_>) {
        if let Some(a) = self.schedule.get(self.next) {
            api.set_timer_at(Time(a.at_ns), 0);
        }
    }

    /// Flows started so far.
    pub fn started(&self) -> usize {
        self.next
    }

    /// The schedule.
    pub fn schedule(&self) -> &[Arrival] {
        &self.schedule
    }

    /// Per-arrival FCTs (`None` = never completed).
    pub fn fct_ns(&self) -> &[Option<u64>] {
        &self.fct_ns
    }

    /// Completed flows whose delivered bytes differed from their size.
    pub fn bad_size(&self) -> u64 {
        self.bad_size
    }

    /// Bytes delivered by completed flows.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Flows completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// Whether a completed flow delivered exactly its size.
pub fn size_ok(bytes: Option<u64>, delivered: u64) -> bool {
    bytes == Some(delivered)
}

impl Application for ReplayApp {
    fn start(&mut self, api: &mut SimApi<'_>) {
        self.arm(api);
    }

    fn on_timer(&mut self, _token: u64, api: &mut SimApi<'_>) {
        let now = api.now().nanos();
        while let Some(a) = self.schedule.get(self.next).copied() {
            if a.at_ns > now {
                break;
            }
            let flow = api.start_flow(FlowSpec::sized(a.src, a.dst, a.bytes));
            api.set_flow_class(flow, a.class);
            let id = flow.0 as usize;
            if id >= self.idx_of.len() {
                self.idx_of.resize(id + 1, u32::MAX);
            }
            self.idx_of[id] = u32::try_from(self.next).expect("schedule fits u32");
            self.next += 1;
        }
        self.arm(api);
    }

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        let FlowEvent::Completed(flow) = ev else {
            return;
        };
        let st = api.flow(flow);
        let idx = self.idx_of[flow.0 as usize] as usize;
        let done = st
            .receiver_done_at
            .expect("completed flow has a finish time");
        self.fct_ns[idx] = Some(done.nanos() - self.schedule[idx].at_ns);
        if !size_ok(st.spec.bytes, st.delivered) {
            self.bad_size += 1;
        }
        self.delivered += st.delivered;
        self.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 1);
            assert_eq!(a.schedule, Inputs::generate(w, 1).schedule, "{w:?}");
            assert_ne!(a.schedule, Inputs::generate(w, 2).schedule, "{w:?}");
            assert!(a.schedule.windows(2).all(|p| p[0].at_ns <= p[1].at_ns));
            assert!(a.schedule.iter().all(|f| f.src != f.dst && f.bytes > 0));
        }
    }

    #[test]
    fn incast_queries_fan_in_from_every_other_host_to_distinct_targets() {
        let inputs = Inputs::generate(Workload::IncastMix, 3);
        let queries: Vec<&Arrival> = inputs.schedule.iter().filter(|a| a.class == 0).collect();
        assert_eq!(queries.len(), 100 * 359);
        let mut targets: Vec<(u64, u32)> = queries.iter().map(|a| (a.at_ns, a.dst.0)).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 100);
        let mut hosts: Vec<u32> = targets.iter().map(|t| t.1).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 100, "query targets repeat");
    }

    /// At least 1 % of `fat_tree_faults` flows cross an active loss
    /// burst, so the min-RTO stall shows in the tail metrics.
    #[test]
    fn fat_tree_loss_bursts_reach_at_least_one_percent_of_flows() {
        for seed in 1..=20 {
            let inputs = Inputs::generate(Workload::FatTreeFaults, seed);
            assert!(
                inputs.loss_exposed * 100 >= inputs.schedule.len(),
                "seed {seed}: {} of {} flows",
                inputs.loss_exposed,
                inputs.schedule.len()
            );
        }
    }
}
