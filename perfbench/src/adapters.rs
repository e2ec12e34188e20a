//! Timing adapters and the in-memory span recorder of the traced run.
//!
//! The adapters wrap the simulator's public plug-in traits —
//! [`SwitchPolicy`], [`ProtocolStack`] with its endpoints, and
//! [`Application`] — and time every call from outside the simulator.
//! Each call opens a span (layer, start, end, parent, run id) on a
//! thread-local stack; a layer's self time is its span minus the part
//! its child spans cover. Per-layer totals are exact; individual spans
//! are kept for a deterministic sample of top-level calls (every call
//! nested under a sampled one is kept too, so every kept span's parent
//! is kept) and written out when the traced run ends.
//!
//! The adapters only observe: they forward every argument and return
//! value unchanged, which the transparency test pins by comparing run
//! digests with and without them.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use simnet::app::{Application, FlowEvent};
use simnet::endpoint::{Effects, FlowSpec, Note, ProtocolStack, ReceiverEndpoint, SenderEndpoint};
use simnet::packet::{FlowId, Packet};
use simnet::policy::{EgressVerdict, IngressVerdict, PolicyFx, SwitchPolicy};
use simnet::sim::SimApi;
use simnet::units::{Bandwidth, Time};

/// Span layers, in the order reports list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TopologyBuilder` construction and `build`.
    Topology = 0,
    /// `Simulator::new`.
    SimNew,
    /// Workload and fault install.
    Install,
    /// `Simulator::run`.
    Run,
    /// `experiments::artifacts::maybe_export`.
    Export,
    /// `Application` callbacks.
    App,
    /// `SwitchPolicy` hooks (the TFC port engine and delay arbiter).
    Switch,
    /// `ProtocolStack` factories and endpoint calls.
    Transport,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 8;

/// Span names, indexed by [`Layer`].
pub const LAYER_NAMES: [&str; LAYERS] = [
    "topology",
    "sim.new",
    "workload.install",
    "run",
    "export",
    "app",
    "tfc.switch",
    "transport",
];

/// Keep the spans of one top-level call in this many.
const SAMPLE_ONE_IN: u64 = 1024;
/// Upper bound on kept spans below the root phases, per run.
const MAX_SPANS: usize = 50_000;

/// One recorded span; times are ns since the run's first span opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Run id (one per traced run in a process).
    pub run: u32,
    /// Span id, unique within the run.
    pub id: u32,
    /// Parent span id (`None` for a root).
    pub parent: Option<u32>,
    /// Layer.
    pub layer: Layer,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// Exact per-layer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus child coverage.
    pub self_ns: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    /// Span id when this frame's span is kept.
    kept: Option<u32>,
}

/// Everything the recorder collected for one traced run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-layer totals, indexed by [`Layer`].
    pub totals: [LayerTotals; LAYERS],
    /// Transport time spent inside application callbacks (flow starts
    /// open their endpoints there), as opposed to inside handlers.
    pub transport_in_app_ns: u64,
    /// Retransmission timeouts reported by senders.
    pub timeouts: u64,
    /// Retransmitted packets reported by senders.
    pub retransmits: u64,
    /// Every token wait (delay-arbiter ACK hold) of the run, in ns.
    pub token_waits: Vec<u64>,
    /// The kept spans, in close order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Totals of one layer.
    pub fn layer(&self, l: Layer) -> LayerTotals {
        self.totals[l as usize]
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.id, parent, LAYER_NAMES[s.layer as usize], s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Default)]
struct Recorder {
    run: u32,
    epoch: Option<Instant>,
    stack: Vec<Frame>,
    top_level: u64,
    next_id: u32,
    trace: Trace,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts a fresh recording with run id `run`.
pub fn begin(run: u32) {
    REC.with(|r| {
        *r.borrow_mut() = Recorder {
            run,
            ..Recorder::default()
        }
    });
}

/// Ends the recording and returns what it collected.
pub fn finish() -> Trace {
    REC.with(|r| {
        let r = std::mem::take(&mut *r.borrow_mut());
        assert!(r.stack.is_empty(), "span stack not empty at finish");
        r.trace
    })
}

fn enter(layer: Layer) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let start = Instant::now();
        r.epoch.get_or_insert(start);
        // Root phases (depth 0) are always kept; `run`'s direct children
        // (depth 1) are sampled; deeper spans are kept exactly when their
        // parent is.
        let room = r.trace.spans.len() < MAX_SPANS;
        let keep = match r.stack.len() {
            0 => true,
            1 => {
                r.top_level += 1;
                room && r.top_level % SAMPLE_ONE_IN == 1
            }
            _ => room && r.stack.last().is_some_and(|f| f.kept.is_some()),
        };
        let kept = keep.then(|| {
            r.next_id += 1;
            r.next_id
        });
        r.stack.push(Frame {
            layer,
            start,
            child_ns: 0,
            kept,
        });
    });
}

fn exit() {
    REC.with(|r| {
        let r = &mut *r.borrow_mut();
        let end = Instant::now();
        let f = r.stack.pop().expect("span exit without enter");
        let dur = end.duration_since(f.start).as_nanos() as u64;
        let t = &mut r.trace.totals[f.layer as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(f.child_ns);
        let parent = r.stack.last_mut().map(|p| {
            p.child_ns += dur;
            (p.layer, p.kept)
        });
        if f.layer == Layer::Transport && matches!(parent, Some((Layer::App, _))) {
            r.trace.transport_in_app_ns += dur;
        }
        if let Some(id) = f.kept {
            let epoch = r.epoch.expect("epoch set on first enter");
            let run = r.run;
            r.trace.spans.push(Span {
                run,
                id,
                parent: parent.and_then(|(_, kept)| kept),
                layer: f.layer,
                start_ns: f.start.duration_since(epoch).as_nanos() as u64,
                end_ns: end.duration_since(epoch).as_nanos() as u64,
            });
        }
    });
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let out = f();
    exit();
    out
}

fn count_sender_notes(notes: &[Note]) {
    let (mut to, mut rtx) = (0, 0);
    for n in notes {
        match n {
            Note::Timeout => to += 1,
            Note::Retransmit => rtx += 1,
            _ => {}
        }
    }
    if to + rtx > 0 {
        REC.with(|r| {
            let t = &mut r.borrow_mut().trace;
            t.timeouts += to;
            t.retransmits += rtx;
        });
    }
}

/// Times a switch policy and collects the token waits it reports.
pub struct TimedPolicy(pub Box<dyn SwitchPolicy>);

impl TimedPolicy {
    fn call<R>(
        &mut self,
        fx: &mut PolicyFx,
        f: impl FnOnce(&mut dyn SwitchPolicy, &mut PolicyFx) -> R,
    ) -> R {
        let before = fx.token_waits.len();
        let out = span(Layer::Switch, || f(self.0.as_mut(), fx));
        if fx.token_waits.len() > before {
            REC.with(|r| {
                let waits = fx.token_waits[before..].iter().map(|&(_, ns)| ns);
                r.borrow_mut().trace.token_waits.extend(waits);
            });
        }
        out
    }
}

impl SwitchPolicy for TimedPolicy {
    fn on_ingress(
        &mut self,
        in_port: usize,
        pkt: &mut Packet,
        now: Time,
        fx: &mut PolicyFx,
    ) -> IngressVerdict {
        self.call(fx, |p, fx| p.on_ingress(in_port, pkt, now, fx))
    }

    fn on_egress(
        &mut self,
        out_port: usize,
        pkt: &mut Packet,
        queue_bytes: u64,
        now: Time,
        fx: &mut PolicyFx,
    ) -> EgressVerdict {
        self.call(fx, |p, fx| p.on_egress(out_port, pkt, queue_bytes, now, fx))
    }

    fn on_timer(&mut self, token: u64, now: Time, fx: &mut PolicyFx) {
        self.call(fx, |p, fx| p.on_timer(token, now, fx));
    }

    fn reset_port(&mut self, port: usize, rate: Bandwidth, now: Time, fx: &mut PolicyFx) {
        self.call(fx, |p, fx| p.reset_port(port, rate, now, fx));
    }
}

/// Times a protocol stack and every endpoint it creates.
pub struct TimedStack(pub Box<dyn ProtocolStack>);

impl ProtocolStack for TimedStack {
    fn new_sender(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn SenderEndpoint> {
        Box::new(TimedSender(span(Layer::Transport, || {
            self.0.new_sender(flow, spec)
        })))
    }

    fn new_receiver(&self, flow: FlowId, spec: &FlowSpec) -> Box<dyn ReceiverEndpoint> {
        Box::new(TimedReceiver(span(Layer::Transport, || {
            self.0.new_receiver(flow, spec)
        })))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Times a sender endpoint and counts the timeouts and retransmits it
/// reports.
pub struct TimedSender(Box<dyn SenderEndpoint>);

impl TimedSender {
    fn call(&mut self, fx: &mut Effects, f: impl FnOnce(&mut dyn SenderEndpoint, &mut Effects)) {
        let before = fx.notes.len();
        span(Layer::Transport, || f(self.0.as_mut(), fx));
        count_sender_notes(&fx.notes[before..]);
    }
}

impl SenderEndpoint for TimedSender {
    fn open(&mut self, now: Time, fx: &mut Effects) {
        self.call(fx, |s, fx| s.open(now, fx));
    }

    fn push_data(&mut self, bytes: u64, now: Time, fx: &mut Effects) {
        self.call(fx, |s, fx| s.push_data(bytes, now, fx));
    }

    fn close(&mut self, now: Time, fx: &mut Effects) {
        self.call(fx, |s, fx| s.close(now, fx));
    }

    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        self.call(fx, |s, fx| s.on_packet(pkt, now, fx));
    }

    fn on_timer(&mut self, token: u64, now: Time, fx: &mut Effects) {
        self.call(fx, |s, fx| s.on_timer(token, now, fx));
    }

    fn cwnd(&self) -> u64 {
        self.0.cwnd()
    }

    fn acked_bytes(&self) -> u64 {
        self.0.acked_bytes()
    }
}

/// Times a receiver endpoint.
pub struct TimedReceiver(Box<dyn ReceiverEndpoint>);

impl ReceiverEndpoint for TimedReceiver {
    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        span(Layer::Transport, || self.0.on_packet(pkt, now, fx));
    }

    fn delivered_bytes(&self) -> u64 {
        self.0.delivered_bytes()
    }
}

/// Times an application.
pub struct TimedApp<A>(pub A);

impl<A: Application> Application for TimedApp<A> {
    fn start(&mut self, api: &mut SimApi<'_>) {
        span(Layer::App, || self.0.start(api));
    }

    fn on_timer(&mut self, token: u64, api: &mut SimApi<'_>) {
        span(Layer::App, || self.0.on_timer(token, api));
    }

    fn on_flow_event(&mut self, ev: FlowEvent, api: &mut SimApi<'_>) {
        span(Layer::App, || self.0.on_flow_event(ev, api));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_spans_link_parents() {
        begin(7);
        span(Layer::Run, || {
            span(Layer::App, || {
                span(Layer::Transport, || std::hint::black_box(1 + 1));
            });
            span(Layer::Switch, || ());
        });
        let t = finish();
        let run = t.layer(Layer::Run);
        let app = t.layer(Layer::App);
        let tr = t.layer(Layer::Transport);
        let sw = t.layer(Layer::Switch);
        assert_eq!((run.calls, app.calls, tr.calls, sw.calls), (1, 1, 1, 1));
        assert_eq!(run.self_ns, run.total_ns - app.total_ns - sw.total_ns);
        assert_eq!(app.self_ns, app.total_ns - tr.total_ns);
        assert_eq!(t.transport_in_app_ns, tr.total_ns);
        // The first top-level call under `run` is sampled, so the app
        // span and its transport child are kept; the switch span (the
        // second top-level call) is not.
        let layers: Vec<Layer> = t.spans.iter().map(|s| s.layer).collect();
        assert_eq!(layers, vec![Layer::Transport, Layer::App, Layer::Run]);
        let id_of = |l: Layer| t.spans.iter().find(|s| s.layer == l).map(|s| s.id);
        assert_eq!(t.spans[0].parent, id_of(Layer::App));
        assert_eq!(t.spans[1].parent, id_of(Layer::Run));
        assert_eq!(t.spans[2].parent, None);
        assert!(t.spans.iter().all(|s| s.run == 7 && s.start_ns <= s.end_ns));
    }
}
