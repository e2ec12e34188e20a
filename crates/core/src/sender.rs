//! The TFC sender endpoint (§5.1).
//!
//! The sender is deliberately simple — the paper's point is that explicit
//! switch allocation makes end-host congestion control trivial:
//!
//! * the SYN carries the round mark (switches count establishing flows);
//! * after the handshake, a zero-payload RM probe fetches the first
//!   window (the window-acquisition phase of §4.6);
//! * the first data packet after each received RMA carries the RM bit,
//!   with the window field reset to the init value for switches to
//!   min-clamp;
//! * the congestion window is exactly the value carried by the last RMA;
//! * loss recovery is a plain dup-ACK fast retransmit plus an RTO safety
//!   net (TFC rarely drops, so these are cold paths).

use simnet::endpoint::{Effects, Note, SenderEndpoint};
use simnet::packet::{Flags, FlowId, NodeId, Packet, MSS, WINDOW_INIT};
use simnet::units::{Dur, Time};
use transport::rtt::RttEstimator;

use crate::config::TfcHostConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Window-acquisition probe in flight.
    WindowAcq,
    /// Normal data transfer.
    Streaming,
}

/// TFC sender endpoint.
pub struct TfcSender {
    flow: FlowId,
    local: NodeId,
    remote: NodeId,
    cfg: TfcHostConfig,
    /// Allocation weight carried in every packet header.
    weight: u8,
    state: State,
    // Stream.
    pushed: u64,
    closed: bool,
    snd_una: u64,
    snd_nxt: u64,
    fin_sent: bool,
    done_noted: bool,
    // Window.
    cwnd: u64,
    /// The next outgoing data packet carries the RM bit.
    rm_pending: bool,
    /// An RM packet is in flight and its RMA has not returned.
    rm_outstanding: bool,
    /// Sequence end of the last marked packet, for RMA-loss detection.
    rm_seq_end: u64,
    /// When the last round mark was sent. Marks are spaced at least half
    /// an RTT apart: the delay arbiter can reorder an RMA behind plain
    /// ACKs, and without spacing the re-mark paths emit back-to-back
    /// marks whose compressed interval poisons the switch's `rtt_b`.
    rm_sent_at: Option<Time>,
    dup_acks: u32,
    // Timing.
    est: RttEstimator,
    timer_armed: bool,
    rtt_probe: Option<(u64, Time)>,
}

impl TfcSender {
    /// Creates a sender for `flow` from `local` to `remote`; `bytes` is
    /// the sized-flow length (`None` = open-ended).
    pub fn new(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        bytes: Option<u64>,
        cfg: TfcHostConfig,
    ) -> Self {
        Self::with_weight(flow, local, remote, bytes, cfg, 1)
    }

    /// Creates a sender with an allocation weight (weighted extension).
    pub fn with_weight(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        bytes: Option<u64>,
        cfg: TfcHostConfig,
        weight: u8,
    ) -> Self {
        Self {
            flow,
            local,
            remote,
            cfg,
            weight: weight.max(1),
            state: State::SynSent,
            pushed: bytes.unwrap_or(0),
            closed: bytes.is_some(),
            snd_una: 0,
            snd_nxt: 0,
            fin_sent: false,
            done_noted: false,
            cwnd: 0,
            rm_pending: false,
            rm_outstanding: false,
            rm_seq_end: 0,
            rm_sent_at: None,
            dup_acks: 0,
            est: RttEstimator::new(cfg.min_rto, cfg.max_rto),
            timer_armed: false,
            rtt_probe: None,
        }
    }

    fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Whether enough time has passed since the last mark to mark again.
    fn mark_spacing_ok(&self, now: Time) -> bool {
        match (self.rm_sent_at, self.est.srtt()) {
            (Some(at), Some(srtt)) => now.since(at) >= Dur(srtt.as_nanos() / 2),
            _ => true,
        }
    }

    /// Sets the RTO, replacing a pending one. The simulator delivers
    /// only the deadline set last, so the token carries nothing.
    fn arm_timer(&mut self, fx: &mut Effects) {
        self.timer_armed = true;
        fx.timer(self.est.rto(), 0);
    }

    fn disarm_timer(&mut self, fx: &mut Effects) {
        if self.timer_armed {
            fx.stop_timer();
        }
        self.timer_armed = false;
    }

    fn emit_syn(&mut self, fx: &mut Effects) {
        let mut syn = Packet::data(self.flow, self.local, self.remote, 0, 0);
        syn.flags.set(Flags::SYN.with(Flags::RM));
        syn.window = WINDOW_INIT;
        syn.weight = self.weight;
        fx.send(syn);
    }

    fn emit_probe(&mut self, fx: &mut Effects) {
        let mut probe = Packet::data(self.flow, self.local, self.remote, self.snd_una, 0);
        probe.flags.set(Flags::RM);
        probe.window = WINDOW_INIT;
        probe.weight = self.weight;
        self.rm_outstanding = true;
        fx.send(probe);
    }

    fn emit_data(&mut self, seq: u64, len: u64, rm: bool, now: Time, fx: &mut Effects) {
        let mut pkt = Packet::data(self.flow, self.local, self.remote, seq, len);
        pkt.window = WINDOW_INIT;
        pkt.weight = self.weight;
        if rm {
            pkt.flags.set(Flags::RM);
            self.rm_outstanding = true;
            self.rm_seq_end = seq + len;
            self.rm_sent_at = Some(now);
        }
        if self.rtt_probe.is_none() {
            self.rtt_probe = Some((seq + len, now));
        }
        fx.send(pkt);
    }

    fn emit_fin(&mut self, fx: &mut Effects) {
        let mut fin = Packet::data(self.flow, self.local, self.remote, self.pushed, 0);
        fin.flags.set(Flags::FIN);
        fx.send(fin);
    }

    fn send_available(&mut self, now: Time, fx: &mut Effects) {
        if self.state != State::Streaming {
            return;
        }
        loop {
            let wnd_end = self.snd_una + self.cwnd;
            if self.snd_nxt >= self.pushed || self.snd_nxt >= wnd_end {
                break;
            }
            // The window counts in whole packets: send a full segment
            // whenever any window space remains (ceiling semantics, at
            // most one MSS of overshoot per flow per round). Splitting
            // segments to fit the byte window exactly would strand up to
            // one MSS per round, and the resulting odd-sized fragments
            // self-perpetuate (each ACK opens fragment-sized space) —
            // starving the full-frame-only rtt_b filter of §4.4. The
            // overshoot is absorbed by the rho feedback of Eq. 7.
            let remaining = self.pushed - self.snd_nxt;
            let len = remaining.min(MSS);
            let rm = self.rm_pending && self.mark_spacing_ok(now);
            if rm {
                self.rm_pending = false;
            }
            self.emit_data(self.snd_nxt, len, rm, now, fx);
            self.snd_nxt += len;
        }
        if self.closed && !self.fin_sent && self.snd_nxt == self.pushed {
            self.fin_sent = true;
            self.snd_nxt = self.pushed + 1;
            self.emit_fin(fx);
        }
        if self.outstanding() > 0 && !self.timer_armed {
            self.arm_timer(fx);
        }
    }

    fn retransmit_head(&mut self, now: Time, fx: &mut Effects) {
        let _ = now;
        fx.note(Note::Retransmit);
        self.rtt_probe = None;
        if self.snd_una >= self.pushed {
            if self.fin_sent {
                self.emit_fin(fx);
            }
            return;
        }
        let len = (self.pushed - self.snd_una).min(MSS);
        let mut pkt = Packet::data(self.flow, self.local, self.remote, self.snd_una, len);
        pkt.window = WINDOW_INIT;
        pkt.weight = self.weight;
        // Keep the slot machinery alive: a retransmitted head re-marks
        // the round so the switch keeps counting this flow.
        pkt.flags.set(Flags::RM);
        self.rm_outstanding = true;
        self.rm_seq_end = self.snd_una + len;
        fx.send(pkt);
    }

    /// Current state name (tests, diagnostics).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::SynSent => "syn-sent",
            State::WindowAcq => "window-acq",
            State::Streaming => "streaming",
        }
    }
}

impl SenderEndpoint for TfcSender {
    fn open(&mut self, _now: Time, fx: &mut Effects) {
        if self.state == State::SynSent && !self.timer_armed {
            self.emit_syn(fx);
            self.arm_timer(fx);
        }
    }

    fn push_data(&mut self, bytes: u64, now: Time, fx: &mut Effects) {
        assert!(!self.closed, "push_data after close");
        let was_idle = self.outstanding() == 0 && self.snd_nxt == self.pushed;
        self.pushed += bytes;
        if self.state == State::WindowAcq && !self.rm_outstanding {
            // Established while idle: run the deferred acquisition now.
            self.emit_probe(fx);
            self.arm_timer(fx);
            return;
        }
        if self.state == State::Streaming && was_idle && self.cfg.probe_on_resume {
            // Silent flow resuming: its stale window may be far too big
            // now (the switch stopped counting it). Re-acquire first.
            self.state = State::WindowAcq;
            self.cwnd = 0;
            self.emit_probe(fx);
            self.arm_timer(fx);
            return;
        }
        self.send_available(now, fx);
    }

    fn close(&mut self, now: Time, fx: &mut Effects) {
        self.closed = true;
        self.send_available(now, fx);
    }

    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        if pkt.flags.contains(Flags::SYN) && pkt.flags.contains(Flags::ACK) {
            if self.state == State::SynSent {
                self.state = State::WindowAcq;
                self.disarm_timer(fx);
                fx.note(Note::Established);
                // Window-acquisition phase (§4.6): fetch the first window
                // with a zero-payload marked packet. Deferred until the
                // application has data, so connect-then-idle flows do not
                // mark rounds they will not use (and cannot become a
                // silent delimiter).
                if self.pushed > self.snd_nxt {
                    self.emit_probe(fx);
                    self.arm_timer(fx);
                }
            }
            return;
        }
        if !pkt.flags.contains(Flags::ACK) {
            return;
        }
        if pkt.flags.contains(Flags::RMA) {
            self.rm_outstanding = false;
            // Adopt the explicitly allocated window. The delay arbiter
            // guarantees at least one MSS when it is enabled; clamp for
            // the ablation case so the flow cannot deadlock.
            if pkt.window != WINDOW_INIT {
                self.cwnd = pkt.window.max(MSS).min(self.cfg.awnd);
            } else {
                self.cwnd = self.cfg.awnd;
            }
            fx.note(Note::WindowAcquired { bytes: self.cwnd });
            self.rm_pending = true;
            if self.state == State::WindowAcq {
                self.state = State::Streaming;
            }
        }
        let ack = pkt.ack.min(self.snd_nxt);
        if !pkt.flags.contains(Flags::RMA) && self.rm_outstanding && ack >= self.rm_seq_end {
            // The marked packet was cumulatively acknowledged by a later,
            // unmarked ACK. Its RMA was either lost or is being held by a
            // delay arbiter (which legitimately lets plain ACKs overtake
            // it); only declare it lost after a couple of RTTs.
            let overdue = match (self.rm_sent_at, self.est.srtt()) {
                (Some(at), Some(srtt)) => now.since(at) > Dur(2 * srtt.as_nanos()),
                _ => true,
            };
            if overdue {
                self.rm_outstanding = false;
                self.rm_pending = true;
            }
        }
        if ack > self.snd_una {
            self.snd_una = ack;
            self.dup_acks = 0;
            if let Some((target, t0)) = self.rtt_probe {
                if ack >= target {
                    let rtt = now - t0;
                    self.est.sample(rtt);
                    fx.note(Note::RttSample {
                        nanos: rtt.as_nanos(),
                    });
                    self.rtt_probe = None;
                }
            }
            if self.fin_sent && self.snd_una > self.pushed && !self.done_noted {
                self.done_noted = true;
                self.disarm_timer(fx);
                fx.note(Note::SenderDone);
                return;
            }
            if self.outstanding() > 0 {
                self.arm_timer(fx);
            } else {
                self.disarm_timer(fx);
            }
        } else if ack == self.snd_una && self.outstanding() > 0 && pkt.flags.contains(Flags::RMA) {
            // RMA for a probe or a re-marked head; not a dup-ACK signal.
        } else if ack == self.snd_una && self.outstanding() > 0 {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                self.retransmit_head(now, fx);
                self.arm_timer(fx);
            }
        }
        self.send_available(now, fx);
    }

    fn on_timer(&mut self, _token: u64, now: Time, fx: &mut Effects) {
        if !self.timer_armed {
            return;
        }
        self.timer_armed = false;
        fx.note(Note::Timeout);
        self.est.back_off();
        match self.state {
            State::SynSent => {
                self.emit_syn(fx);
            }
            State::WindowAcq => {
                self.emit_probe(fx);
            }
            State::Streaming => {
                if self.outstanding() == 0 {
                    return;
                }
                self.dup_acks = 0;
                // Rewind and resend from the cumulative ACK.
                self.snd_nxt = self.snd_una.min(self.pushed);
                let fin_was_sent = self.fin_sent;
                self.fin_sent = false;
                if self.snd_nxt < self.pushed {
                    self.retransmit_head(now, fx);
                    self.snd_nxt = self.snd_una + (self.pushed - self.snd_una).min(MSS);
                } else if fin_was_sent {
                    self.fin_sent = true;
                    self.snd_nxt = self.pushed + 1;
                    fx.note(Note::Retransmit);
                    self.emit_fin(fx);
                }
            }
        }
        self.arm_timer(fx);
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn acked_bytes(&self) -> u64 {
        self.snd_una.min(self.pushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::units::Dur;
    use simnet::endpoint::TimerOp;

    const H0: NodeId = NodeId(0);
    const H1: NodeId = NodeId(1);

    fn sender(bytes: Option<u64>) -> TfcSender {
        TfcSender::new(FlowId(1), H0, H1, bytes, TfcHostConfig::default())
    }

    fn synack() -> Packet {
        let mut p = Packet::ack(FlowId(1), H1, H0, 0);
        p.flags.set(Flags::SYN);
        p
    }

    fn rma(ack: u64, window: u64) -> Packet {
        let mut p = Packet::ack(FlowId(1), H1, H0, ack);
        p.flags.set(Flags::RMA);
        p.window = window;
        p
    }

    fn ack(n: u64) -> Packet {
        Packet::ack(FlowId(1), H1, H0, n)
    }

    #[test]
    fn syn_carries_rm() {
        let mut s = sender(Some(10_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let syn = &fx.packets[0];
        assert!(syn.flags.contains(Flags::SYN));
        assert!(syn.flags.contains(Flags::RM));
        assert_eq!(s.state_name(), "syn-sent");
    }

    #[test]
    fn synack_triggers_probe_not_data() {
        let mut s = sender(Some(10_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut fx2 = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx2);
        assert!(fx2.notes.contains(&Note::Established));
        assert_eq!(fx2.packets.len(), 1);
        let probe = &fx2.packets[0];
        assert_eq!(probe.payload, 0);
        assert!(probe.flags.contains(Flags::RM));
        assert!(!probe.flags.contains(Flags::SYN));
        assert_eq!(s.state_name(), "window-acq");
    }

    fn establish(s: &mut TfcSender, window: u64) -> Effects {
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut fx = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx);
        let mut fx = Effects::new();
        s.on_packet(&rma(0, window), Time(200), &mut fx);
        fx
    }

    #[test]
    fn probe_rma_sets_window_and_sends_marked_round() {
        let mut s = sender(Some(100_000));
        let fx = establish(&mut s, 2 * MSS);
        assert_eq!(s.state_name(), "streaming");
        assert_eq!(s.cwnd(), 2 * MSS);
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 2);
        assert!(data[0].flags.contains(Flags::RM), "first of round marked");
        assert!(!data[1].flags.contains(Flags::RM));
        assert_eq!(data[0].window, WINDOW_INIT, "window reset for stamping");
    }

    #[test]
    fn rma_below_mss_clamped_for_ablation_safety() {
        let mut s = sender(Some(100_000));
        establish(&mut s, 100);
        assert_eq!(s.cwnd(), MSS);
    }

    #[test]
    fn each_rma_remarks_next_packet() {
        let mut s = sender(Some(100_000));
        establish(&mut s, 3 * MSS);
        // The RMA of the marked head arrives: window refreshed, the next
        // outgoing packet re-marks the new round.
        let mut fx = Effects::new();
        s.on_packet(&rma(MSS, 3 * MSS), Time(300), &mut fx);
        let sent: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert!(!sent.is_empty());
        assert!(sent[0].flags.contains(Flags::RM));
        // Plain ACKs within the round release unmarked packets.
        let mut fx2 = Effects::new();
        s.on_packet(&ack(2 * MSS), Time(400), &mut fx2);
        let sent2: Vec<_> = fx2.packets.iter().filter(|p| p.is_data()).collect();
        assert!(sent2.iter().all(|p| !p.flags.contains(Flags::RM)));
    }

    #[test]
    fn lost_rma_triggers_remark() {
        let mut s = sender(Some(100_000));
        establish(&mut s, 3 * MSS);
        // The marked head covered seq 0..MSS; a *plain* ACK past it means
        // the RMA echo was lost: the sender must re-mark to stay counted.
        let mut fx = Effects::new();
        s.on_packet(&ack(2 * MSS), Time(300), &mut fx);
        let sent: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert!(!sent.is_empty());
        assert!(sent[0].flags.contains(Flags::RM));
    }

    #[test]
    fn window_shrink_pauses_sending() {
        let mut s = sender(Some(1_000_000));
        establish(&mut s, 10 * MSS);
        assert_eq!(s.outstanding(), 10 * MSS);
        // RMA shrinks the window to 2 MSS: nothing new until drained.
        let mut fx = Effects::new();
        s.on_packet(&rma(MSS, 2 * MSS), Time(300), &mut fx);
        assert!(fx.packets.iter().all(|p| !p.is_data()));
    }

    #[test]
    fn three_dup_acks_fast_retransmit() {
        let mut s = sender(Some(1_000_000));
        establish(&mut s, 4 * MSS);
        for _ in 0..2 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(300), &mut fx);
            assert!(fx.packets.is_empty());
        }
        let mut fx = Effects::new();
        s.on_packet(&ack(0), Time(300), &mut fx);
        assert!(fx.notes.contains(&Note::Retransmit));
        let rtx = fx.packets.iter().find(|p| p.is_data()).unwrap();
        assert_eq!(rtx.seq, 0);
        assert!(rtx.flags.contains(Flags::RM), "retransmitted head re-marks");
    }

    #[test]
    fn rma_not_counted_as_dup_ack() {
        let mut s = sender(Some(1_000_000));
        establish(&mut s, 4 * MSS);
        for _ in 0..5 {
            let mut fx = Effects::new();
            s.on_packet(&rma(0, 4 * MSS), Time(300), &mut fx);
            assert!(
                !fx.notes.contains(&Note::Retransmit),
                "RMAs must not trigger fast retransmit"
            );
        }
    }

    #[test]
    fn probe_loss_recovers_by_rto() {
        let mut s = sender(Some(10_000));
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut fx = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx);
        assert!(matches!(fx.timer, Some(TimerOp::Set(..))), "probe arms the RTO");
        let mut fx2 = Effects::new();
        s.on_timer(0, Time::ZERO + Dur::millis(200), &mut fx2);
        assert!(fx2.notes.contains(&Note::Timeout));
        assert!(fx2.packets[0].flags.contains(Flags::RM));
        assert_eq!(fx2.packets[0].payload, 0);
    }

    #[test]
    fn fin_and_done() {
        let mut s = sender(Some(1_000));
        let fx = establish(&mut s, 10 * MSS);
        assert!(fx.packets.iter().any(|p| p.flags.contains(Flags::FIN)));
        let mut fx2 = Effects::new();
        s.on_packet(&ack(1_001), Time(500), &mut fx2);
        assert!(fx2.notes.contains(&Note::SenderDone));
    }

    #[test]
    fn resume_after_idle_probes_again() {
        let mut s = sender(None);
        establish(&mut s, 10 * MSS);
        let mut fx = Effects::new();
        s.push_data(1_000, Time(1_000), &mut fx);
        // probe_on_resume: a fresh zero-payload probe, no data yet.
        assert_eq!(fx.packets.len(), 1);
        assert_eq!(fx.packets[0].payload, 0);
        assert!(fx.packets[0].flags.contains(Flags::RM));
        assert_eq!(s.state_name(), "window-acq");
        // RMA releases the data.
        let mut fx2 = Effects::new();
        s.on_packet(&rma(0, 5 * MSS), Time(1_200), &mut fx2);
        assert_eq!(fx2.packets.iter().filter(|p| p.is_data()).count(), 1);
        assert_eq!(fx2.packets[0].payload, 1_000);
    }

    #[test]
    fn resume_without_probe_when_disabled() {
        let cfg = TfcHostConfig {
            probe_on_resume: false,
            ..Default::default()
        };
        let mut s = TfcSender::new(FlowId(1), H0, H1, None, cfg);
        establish(&mut s, 10 * MSS);
        let mut fx = Effects::new();
        s.push_data(1_000, Time(1_000), &mut fx);
        assert_eq!(fx.packets.iter().filter(|p| p.is_data()).count(), 1);
    }

    /// A SYN-ACK with nothing to send stops the handshake RTO rather
    /// than leaving it to fire.
    #[test]
    fn idle_synack_stops_the_rto() {
        let mut s = sender(None);
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        assert!(matches!(fx.timer, Some(TimerOp::Set(..))));
        let mut fx2 = Effects::new();
        s.on_packet(&synack(), Time(100), &mut fx2);
        assert_eq!(fx2.timer, Some(TimerOp::Stop));
    }
}

#[cfg(test)]
mod spacing_tests {
    use super::*;
    use crate::config::TfcHostConfig;

    const H0: NodeId = NodeId(0);
    const H1: NodeId = NodeId(1);

    fn streaming_sender() -> TfcSender {
        let mut s = TfcSender::new(
            FlowId(1),
            H0,
            H1,
            Some(10_000_000),
            TfcHostConfig::default(),
        );
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        let mut synack = Packet::ack(FlowId(1), H1, H0, 0);
        synack.flags.set(Flags::SYN);
        let mut fx = Effects::new();
        s.on_packet(&synack, Time(100), &mut fx);
        let mut rma = Packet::ack(FlowId(1), H1, H0, 0);
        rma.flags.set(Flags::RMA);
        rma.window = 4 * MSS;
        let mut fx = Effects::new();
        s.on_packet(&rma, Time(200), &mut fx);
        s
    }

    fn plain_ack(n: u64) -> Packet {
        Packet::ack(FlowId(1), H1, H0, n)
    }

    fn rma_at(ack: u64, window: u64) -> Packet {
        let mut p = Packet::ack(FlowId(1), H1, H0, ack);
        p.flags.set(Flags::RMA);
        p.window = window;
        p
    }

    /// Seeds the RTT estimator with ~100 µs samples.
    fn seed_srtt(s: &mut TfcSender) {
        for _ in 0..4 {
            s.est.sample(Dur::micros(100));
        }
    }

    #[test]
    fn marks_are_spaced_at_least_half_srtt() {
        let mut s = streaming_sender();
        seed_srtt(&mut s);
        // Two RMAs arrive almost back to back (reordered by an arbiter):
        // only one mark may go out within srtt/2.
        let mut fx = Effects::new();
        s.on_packet(&rma_at(MSS, 4 * MSS), Time(300_000), &mut fx);
        let marks1 = fx
            .packets
            .iter()
            .filter(|p| p.flags.contains(Flags::RM))
            .count();
        let mut fx2 = Effects::new();
        s.on_packet(&rma_at(2 * MSS, 4 * MSS), Time(301_000), &mut fx2);
        let marks2 = fx2
            .packets
            .iter()
            .filter(|p| p.flags.contains(Flags::RM))
            .count();
        assert_eq!(marks1 + marks2, 1, "marks must not bunch");
        // Well past srtt/2 the pending mark is released.
        let mut fx3 = Effects::new();
        s.on_packet(&plain_ack(3 * MSS), Time(500_000), &mut fx3);
        assert!(fx3.packets.iter().any(|p| p.flags.contains(Flags::RM)));
    }

    #[test]
    fn rma_loss_guard_waits_two_srtt() {
        let mut s = streaming_sender();
        seed_srtt(&mut s);
        // A mark goes out at ~t=300µs.
        let mut fx = Effects::new();
        s.on_packet(&rma_at(MSS, 4 * MSS), Time(300_000), &mut fx);
        assert!(fx.packets.iter().any(|p| p.flags.contains(Flags::RM)));
        // A plain ACK covering the mark arrives quickly (its RMA is just
        // delayed in an arbiter): no re-mark yet.
        let mut fx2 = Effects::new();
        s.on_packet(&plain_ack(3 * MSS), Time(350_000), &mut fx2);
        assert!(
            !fx2.packets.iter().any(|p| p.flags.contains(Flags::RM)),
            "guard fired before 2 x srtt"
        );
        // Much later, with a plain ACK covering the whole marked packet
        // and the RMA still missing, the guard re-marks.
        let mut fx3 = Effects::new();
        s.on_packet(&plain_ack(6 * MSS), Time(900_000), &mut fx3);
        assert!(
            fx3.packets.iter().any(|p| p.flags.contains(Flags::RM)),
            "guard never recovered the lost RMA"
        );
    }
}
