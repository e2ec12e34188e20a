//! TCP NewReno sender, with the DCTCP extension as a configuration.
//!
//! This is the paper's baseline pair: TCP NewReno (the testbed's CentOS
//! stack) and DCTCP [Alizadeh et al., SIGCOMM '10]. Both share the same
//! loss recovery (fast retransmit / fast recovery, RTO with exponential
//! backoff); DCTCP adds ECT marking on data and the `alpha`-proportional
//! window reduction from ECN feedback.

use simnet::endpoint::{Effects, Note, SenderEndpoint};
use simnet::packet::{Flags, FlowId, NodeId, Packet, MSS};
use simnet::units::{Dur, Time};

use crate::rtt::RttEstimator;

/// TCP / DCTCP sender configuration.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial congestion window in bytes (RFC 3390: 3 segments for a
    /// 1460 B MSS, matching the paper-era Linux 2.6.38 default).
    pub init_cwnd: u64,
    /// Minimum retransmission timeout (Linux default: 200 ms).
    pub min_rto: Dur,
    /// Maximum retransmission timeout.
    pub max_rto: Dur,
    /// Receiver advertised window in bytes: the effective send window is
    /// `min(cwnd, awnd)`. The paper-era Linux stacks cap in-flight data
    /// this way; without it, persistent incast connections grow
    /// unbounded windows between loss events and every round bursts at
    /// full rate.
    pub awnd: u64,
    /// Whether to mark data ECN-capable and react to ECE (DCTCP).
    pub ecn: bool,
    /// DCTCP `g` (weight of new fraction in the alpha EWMA).
    pub dctcp_g: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            init_cwnd: 3 * MSS,
            min_rto: Dur::millis(200),
            max_rto: Dur::secs(60),
            awnd: 64 * 1024,
            ecn: false,
            dctcp_g: 1.0 / 16.0,
        }
    }
}

impl TcpConfig {
    /// The DCTCP variant of the default config (`g = 1/16`, as the paper
    /// sets following \[7\]).
    pub fn dctcp() -> Self {
        Self {
            ecn: true,
            ..Self::default()
        }
    }
}

#[derive(Debug)]
struct DctcpState {
    alpha: f64,
    g: f64,
    acked_bytes: u64,
    marked_bytes: u64,
    window_end: u64,
}

/// TCP NewReno sender endpoint (DCTCP when `cfg.ecn` is set).
pub struct TcpSender {
    flow: FlowId,
    local: NodeId,
    remote: NodeId,
    cfg: TcpConfig,
    // Stream state.
    pushed: u64,
    closed: bool,
    snd_una: u64,
    snd_nxt: u64,
    fin_sent: bool,
    // Connection state.
    syn_sent: bool,
    established: bool,
    done_noted: bool,
    // Congestion control.
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    dctcp: Option<DctcpState>,
    // Timing.
    est: RttEstimator,
    timer_armed: bool,
    rtt_probe: Option<(u64, Time)>,
}

impl TcpSender {
    /// Creates a sender for `flow` from `local` to `remote`; `bytes` is
    /// the sized-flow length (`None` = open-ended, fed by `push_data`).
    pub fn new(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        bytes: Option<u64>,
        cfg: TcpConfig,
    ) -> Self {
        let dctcp = cfg.ecn.then_some(DctcpState {
            alpha: 1.0,
            g: cfg.dctcp_g,
            acked_bytes: 0,
            marked_bytes: 0,
            window_end: 0,
        });
        Self {
            flow,
            local,
            remote,
            cfg,
            pushed: bytes.unwrap_or(0),
            closed: bytes.is_some(),
            snd_una: 0,
            snd_nxt: 0,
            fin_sent: false,
            syn_sent: false,
            established: false,
            done_noted: false,
            cwnd: cfg.init_cwnd as f64,
            ssthresh: f64::INFINITY,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            dctcp,
            est: RttEstimator::new(cfg.min_rto, cfg.max_rto),
            timer_armed: false,
            rtt_probe: None,
        }
    }

    fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
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

    fn emit_data(&mut self, seq: u64, len: u64, now: Time, fx: &mut Effects) {
        let mut pkt = Packet::data(self.flow, self.local, self.remote, seq, len);
        if self.cfg.ecn {
            pkt.flags.set(Flags::ECT);
        }
        if self.rtt_probe.is_none() {
            self.rtt_probe = Some((seq + len, now));
        }
        fx.send(pkt);
    }

    fn emit_fin(&mut self, fx: &mut Effects) {
        let mut fin = Packet::data(self.flow, self.local, self.remote, self.pushed, 0);
        fin.flags.set(Flags::FIN);
        if self.cfg.ecn {
            fin.flags.set(Flags::ECT);
        }
        fx.send(fin);
    }

    fn emit_syn(&mut self, fx: &mut Effects) {
        let mut syn = Packet::data(self.flow, self.local, self.remote, 0, 0);
        syn.flags.set(Flags::SYN);
        fx.send(syn);
    }

    /// Sends whatever the window and stream allow.
    fn send_available(&mut self, now: Time, fx: &mut Effects) {
        if !self.established {
            return;
        }
        loop {
            let wnd = (self.cwnd.max(0.0) as u64).min(self.cfg.awnd);
            let wnd_end = self.snd_una + wnd;
            if self.snd_nxt >= self.pushed || self.snd_nxt >= wnd_end {
                break;
            }
            let remaining = self.pushed - self.snd_nxt;
            let len = remaining.min(MSS);
            // Do not split segments to fit a sub-MSS window remnant
            // unless that remnant covers the rest of the stream.
            if wnd_end - self.snd_nxt < len {
                break;
            }
            self.emit_data(self.snd_nxt, len, now, fx);
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

    /// Retransmits the segment at `snd_una` (or the FIN).
    fn retransmit_head(&mut self, now: Time, fx: &mut Effects) {
        let _ = now;
        fx.note(Note::Retransmit);
        self.rtt_probe = None; // Karn: never time a retransmission.
        if self.snd_una >= self.pushed {
            if self.fin_sent {
                self.emit_fin(fx);
            }
            return;
        }
        let len = (self.pushed - self.snd_una).min(MSS);
        let mut pkt = Packet::data(self.flow, self.local, self.remote, self.snd_una, len);
        if self.cfg.ecn {
            pkt.flags.set(Flags::ECT);
        }
        fx.send(pkt);
    }

    fn on_new_ack(&mut self, ack: u64, ece: bool, now: Time, fx: &mut Effects) {
        let acked = ack - self.snd_una;
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

        if let Some(d) = &mut self.dctcp {
            d.acked_bytes += acked;
            if ece {
                d.marked_bytes += acked;
            }
        }

        if self.in_recovery {
            if ack >= self.recover {
                // Full acknowledgement: leave fast recovery.
                self.in_recovery = false;
                self.cwnd = self.ssthresh;
                fx.note(Note::WindowAcquired {
                    bytes: self.cwnd as u64,
                });
            } else {
                // Partial ack: retransmit the next hole, deflate.
                self.retransmit_head(now, fx);
                self.cwnd = (self.cwnd - acked as f64 + MSS as f64).max(MSS as f64);
                self.arm_timer(fx);
            }
        } else {
            if self.cwnd < self.ssthresh {
                self.cwnd += acked.min(MSS) as f64; // slow start (ABC)
            } else {
                self.cwnd += (MSS as f64) * (MSS as f64) / self.cwnd;
            }
            // DCTCP reacts once per window of data.
            let rollover = self.dctcp.as_ref().is_some_and(|d| ack >= d.window_end);
            if rollover {
                let d = self.dctcp.as_mut().expect("checked above");
                if d.acked_bytes > 0 {
                    let f = d.marked_bytes as f64 / d.acked_bytes as f64;
                    d.alpha = (1.0 - d.g) * d.alpha + d.g * f;
                    if d.marked_bytes > 0 {
                        self.cwnd = (self.cwnd * (1.0 - d.alpha / 2.0)).max(MSS as f64);
                        self.ssthresh = self.cwnd;
                    }
                    d.acked_bytes = 0;
                    d.marked_bytes = 0;
                }
                d.window_end = self.snd_nxt;
            }
        }

        // FIN fully acknowledged?
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
        self.send_available(now, fx);
    }

    fn on_dup_ack(&mut self, now: Time, fx: &mut Effects) {
        self.dup_acks += 1;
        if self.in_recovery {
            // Inflate and try to keep the pipe full.
            self.cwnd += MSS as f64;
            self.send_available(now, fx);
        } else if self.dup_acks == 3 {
            self.ssthresh = (self.outstanding() as f64 / 2.0).max(2.0 * MSS as f64);
            self.recover = self.snd_nxt;
            self.in_recovery = true;
            self.retransmit_head(now, fx);
            self.cwnd = self.ssthresh + 3.0 * MSS as f64;
            fx.note(Note::WindowAcquired {
                bytes: self.cwnd as u64,
            });
            self.arm_timer(fx);
        }
    }

    /// Congestion state for tests and diagnostics: `(cwnd, ssthresh,
    /// in_recovery)`.
    pub fn cc_state(&self) -> (f64, f64, bool) {
        (self.cwnd, self.ssthresh, self.in_recovery)
    }

    /// DCTCP alpha (1.0 initially), if ECN mode is on.
    pub fn dctcp_alpha(&self) -> Option<f64> {
        self.dctcp.as_ref().map(|d| d.alpha)
    }
}

impl SenderEndpoint for TcpSender {
    fn open(&mut self, _now: Time, fx: &mut Effects) {
        if !self.syn_sent {
            self.syn_sent = true;
            self.emit_syn(fx);
            self.arm_timer(fx);
        }
    }

    fn push_data(&mut self, bytes: u64, now: Time, fx: &mut Effects) {
        assert!(!self.closed, "push_data after close");
        self.pushed += bytes;
        self.send_available(now, fx);
    }

    fn close(&mut self, now: Time, fx: &mut Effects) {
        self.closed = true;
        self.send_available(now, fx);
    }

    fn on_packet(&mut self, pkt: &Packet, now: Time, fx: &mut Effects) {
        if pkt.flags.contains(Flags::SYN) && pkt.flags.contains(Flags::ACK) {
            if !self.established {
                self.established = true;
                self.disarm_timer(fx);
                fx.note(Note::Established);
                self.send_available(now, fx);
            }
            return;
        }
        if !pkt.flags.contains(Flags::ACK) || !self.established {
            return;
        }
        let ece = pkt.flags.contains(Flags::ECE);
        // Never trust an ACK beyond what was actually sent.
        let ack = pkt.ack.min(self.snd_nxt);
        if ack > self.snd_una {
            self.on_new_ack(ack, ece, now, fx);
        } else if ack == self.snd_una && self.outstanding() > 0 {
            self.on_dup_ack(now, fx);
        }
    }

    fn on_timer(&mut self, _token: u64, now: Time, fx: &mut Effects) {
        if !self.timer_armed {
            return;
        }
        self.timer_armed = false;
        if !self.established {
            // SYN loss.
            fx.note(Note::Timeout);
            self.est.back_off();
            self.emit_syn(fx);
            self.arm_timer(fx);
            return;
        }
        if self.outstanding() == 0 {
            return;
        }
        fx.note(Note::Timeout);
        self.ssthresh = (self.outstanding() as f64 / 2.0).max(2.0 * MSS as f64);
        self.cwnd = MSS as f64;
        fx.note(Note::WindowAcquired {
            bytes: self.cwnd as u64,
        });
        self.in_recovery = false;
        self.dup_acks = 0;
        self.est.back_off();
        // Go-back-N: rewind and resend from the cumulative ACK point.
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
        self.arm_timer(fx);
    }

    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn acked_bytes(&self) -> u64 {
        self.snd_una.min(self.pushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::endpoint::TimerOp;

    const H0: NodeId = NodeId(0);
    const H1: NodeId = NodeId(1);

    fn sender(bytes: u64) -> TcpSender {
        TcpSender::new(FlowId(1), H0, H1, Some(bytes), TcpConfig::default())
    }

    fn establish(s: &mut TcpSender) -> Effects {
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        assert!(fx.packets[0].flags.contains(Flags::SYN));
        let mut synack = Packet::ack(FlowId(1), H1, H0, 0);
        synack.flags.set(Flags::SYN);
        let mut fx2 = Effects::new();
        s.on_packet(&synack, Time(1_000), &mut fx2);
        fx2
    }

    fn ack(n: u64) -> Packet {
        Packet::ack(FlowId(1), H1, H0, n)
    }

    #[test]
    fn initial_window_after_handshake() {
        let mut s = sender(100_000);
        let fx = establish(&mut s);
        assert!(fx.notes.contains(&Note::Established));
        // 3 * MSS initial window: 3 full segments.
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 3);
        assert_eq!(data[0].seq, 0);
        assert_eq!(data[2].seq, 2 * MSS);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender(1_000_000);
        establish(&mut s);
        let mut fx = Effects::new();
        s.on_packet(&ack(MSS), Time(2_000), &mut fx);
        // cwnd grew by one MSS: one ACK releases two segments.
        let sent = fx.packets.iter().filter(|p| p.is_data()).count();
        assert_eq!(sent, 2);
    }

    #[test]
    fn dup_acks_trigger_fast_retransmit() {
        let mut s = sender(1_000_000);
        establish(&mut s);
        for _ in 0..2 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(2_000), &mut fx);
            assert!(fx.packets.is_empty());
        }
        let mut fx = Effects::new();
        s.on_packet(&ack(0), Time(2_000), &mut fx);
        assert!(fx.notes.contains(&Note::Retransmit));
        let rtx = fx.packets.iter().find(|p| p.is_data()).expect("retransmit");
        assert_eq!(rtx.seq, 0);
        assert!(s.cc_state().2, "in recovery");
    }

    #[test]
    fn full_ack_exits_recovery_at_ssthresh() {
        let mut s = sender(1_000_000);
        establish(&mut s);
        for _ in 0..3 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(2_000), &mut fx);
        }
        let recover = s.recover;
        let mut fx = Effects::new();
        s.on_packet(&ack(recover), Time(3_000), &mut fx);
        let (cwnd, ssthresh, in_rec) = s.cc_state();
        assert!(!in_rec);
        assert_eq!(cwnd, ssthresh);
    }

    #[test]
    fn rto_collapses_window_and_retransmits() {
        let mut s = sender(1_000_000);
        let fx = establish(&mut s);
        assert!(matches!(fx.timer, Some(TimerOp::Set(..))), "timer armed after handshake data");
        let mut fx2 = Effects::new();
        s.on_timer(0, Time::ZERO + Dur::millis(200), &mut fx2);
        assert!(fx2.notes.contains(&Note::Timeout));
        assert_eq!(s.cwnd(), MSS);
        let rtx = fx2.packets.iter().find(|p| p.is_data()).expect("rtx");
        assert_eq!(rtx.seq, 0);
    }

    #[test]
    fn fin_sent_and_done_on_final_ack() {
        let mut s = sender(1_000); // single sub-MSS segment
        let fx = establish(&mut s);
        let data: Vec<_> = fx.packets.iter().filter(|p| p.is_data()).collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].payload, 1_000);
        let fin = fx
            .packets
            .iter()
            .find(|p| p.flags.contains(Flags::FIN))
            .expect("fin");
        assert_eq!(fin.seq, 1_000);
        let mut fx2 = Effects::new();
        s.on_packet(&ack(1_001), Time(5_000), &mut fx2);
        assert!(fx2.notes.contains(&Note::SenderDone));
        assert_eq!(fx2.timer, Some(TimerOp::Stop), "the final ack stops the RTO");
    }

    #[test]
    fn syn_loss_retries() {
        let mut s = sender(1_000);
        let mut fx = Effects::new();
        s.open(Time::ZERO, &mut fx);
        assert!(matches!(fx.timer, Some(TimerOp::Set(..))));
        let mut fx2 = Effects::new();
        s.on_timer(0, Time::ZERO + Dur::millis(200), &mut fx2);
        assert!(fx2.notes.contains(&Note::Timeout));
        assert!(fx2.packets[0].flags.contains(Flags::SYN));
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut s = sender(10_000_000);
        establish(&mut s);
        // Force CA by setting up a loss + recovery exit.
        for _ in 0..3 {
            let mut fx = Effects::new();
            s.on_packet(&ack(0), Time(2_000), &mut fx);
        }
        let recover = s.recover;
        let mut fx = Effects::new();
        s.on_packet(&ack(recover), Time(3_000), &mut fx);
        let (cwnd0, ssthresh, _) = s.cc_state();
        assert!(cwnd0 >= ssthresh);
        let una = s.snd_una;
        let mut fx = Effects::new();
        s.on_packet(&ack(una + MSS), Time(4_000), &mut fx);
        let (cwnd1, _, _) = s.cc_state();
        let growth = cwnd1 - cwnd0;
        assert!(growth > 0.0 && growth <= MSS as f64);
    }

    #[test]
    fn dctcp_alpha_tracks_marks() {
        let mut s = TcpSender::new(FlowId(1), H0, H1, Some(10_000_000), TcpConfig::dctcp());
        establish(&mut s);
        assert_eq!(s.dctcp_alpha(), Some(1.0));
        // Every byte of the first window marked: alpha stays high and the
        // window is cut.
        let mut marked = ack(3 * MSS);
        marked.flags.set(Flags::ECE);
        let mut fx = Effects::new();
        let cwnd_before = s.cwnd();
        s.on_packet(&marked, Time(2_000), &mut fx);
        assert!(s.cwnd() < cwnd_before + MSS);
        // Unmarked windows decay alpha.
        let mut a_prev = s.dctcp_alpha().unwrap();
        for i in 2..20 {
            let mut fx = Effects::new();
            s.on_packet(&ack(i * 3 * MSS), Time(2_000 + i), &mut fx);
            let a = s.dctcp_alpha().unwrap();
            assert!(a <= a_prev);
            a_prev = a;
        }
        assert!(a_prev < 0.5);
    }

    #[test]
    fn dctcp_sets_ect_on_data() {
        let mut s = TcpSender::new(FlowId(1), H0, H1, Some(10_000), TcpConfig::dctcp());
        let fx = establish(&mut s);
        for p in fx.packets.iter().filter(|p| p.is_data()) {
            assert!(p.flags.contains(Flags::ECT));
        }
    }

    #[test]
    fn open_ended_push_and_close() {
        let mut s = TcpSender::new(FlowId(1), H0, H1, None, TcpConfig::default());
        establish(&mut s);
        let mut fx = Effects::new();
        s.push_data(500, Time(2_000), &mut fx);
        assert_eq!(fx.packets[0].payload, 500);
        let mut fx2 = Effects::new();
        s.on_packet(&ack(500), Time(3_000), &mut fx2);
        let mut fx3 = Effects::new();
        s.close(Time(4_000), &mut fx3);
        assert!(fx3.packets[0].flags.contains(Flags::FIN));
    }
}
