//! The wall-clock ↔ virtual-time bridge for paced connections.
//!
//! The serve core is a discrete-event simulation: `submit(spec, at_s)`
//! carries a *virtual* arrival time, and the same submission sequence
//! replays bit-identically. Real TCP clients, though, deliver frames in
//! whatever order the kernel schedules them — two connections racing to
//! submit `at_s = 1.0ms` and `at_s = 1.2ms` can arrive reversed. This
//! module restores schedule order without trusting wall-clock timing at
//! all:
//!
//! - every paced submit carries its virtual `at_s` plus a global `seq`
//!   (the schedule index), so `(at_s, seq)` totally orders the workload;
//! - every paced submit also carries `next_s`, the sender's *own next*
//!   arrival time (`None` = last) — a watermark promising "nothing earlier
//!   than this will ever come from me";
//! - held submissions release to the service in `(at_s, seq)` order, and
//!   the global minimum releases only when every other open paced
//!   connection either has a held submission (necessarily later than the
//!   minimum) or has promised, via its watermark, that its future is
//!   strictly later.
//!
//! Liveness: a connection that blocks the minimum has nothing held, so its
//! in-flight window has room and its client can (and will) send the very
//! frame the release is waiting for. The merged order is therefore exactly
//! the recorded schedule order regardless of thread or packet timing —
//! which is the whole trick behind `--seed`-reproducible network load
//! tests. The merge can only wait for connections it knows, so a load that
//! spans several connections registers all of them before any submits
//! (`run_open_loop_net` connects every client first).

use fft_serve::SubmitTemplate;
use std::collections::BTreeMap;

/// What a paced connection has promised about its future arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Watermark {
    /// Future submits all have `at_s ≥` this (stored as `f64::to_bits`,
    /// order-preserving for the non-negative times the bridge accepts).
    At(u64),
    /// No future submits (final submit seen, or the connection closed).
    Done,
}

#[derive(Debug)]
struct PacedConn {
    watermark: Watermark,
    held: usize,
}

/// One submission waiting for its turn in the merge.
#[derive(Clone, Debug)]
pub struct HeldSubmit {
    /// The connection that sent it (acks route back here).
    pub conn: u64,
    /// The global schedule index — the tiebreak for equal arrival times.
    pub seq: u64,
    /// Virtual arrival time, seconds.
    pub at_s: f64,
    /// The client's trace id, echoed in the eventual ack.
    pub trace: Option<u64>,
    /// Gateway wall clock when the submit frame was decoded — carried
    /// through the hold so the ack can report the true receive stamp even
    /// when the release happens much later.
    pub recv_s: f64,
    /// The submission template — a single transform or a whole pipeline
    /// DAG — to materialize at release.
    pub spec: SubmitTemplate,
}

/// The paced-connection merge described in the module docs.
#[derive(Debug, Default)]
pub struct PacedBridge {
    held: BTreeMap<(u64, u64), HeldSubmit>,
    conns: BTreeMap<u64, PacedConn>,
}

impl PacedBridge {
    /// A bridge with no connections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a paced connection. `first_s` is the `at_s` of its first
    /// submit (`None` = it will never submit), from the `Hello` frame —
    /// without it, a freshly connected client would stall every other
    /// connection until its first frame arrived.
    pub fn register(&mut self, conn: u64, first_s: Option<f64>) -> Result<(), String> {
        let watermark = match first_s {
            None => Watermark::Done,
            Some(t) => Watermark::At(time_bits(t)?),
        };
        self.conns.insert(conn, PacedConn { watermark, held: 0 });
        Ok(())
    }

    /// Removes a closed connection from the merge. Submissions it still
    /// had held are dropped — their acks have nowhere to go, and a paced
    /// client dying mid-run has already forfeited reproducibility.
    pub fn close(&mut self, conn: u64) {
        if self.conns.remove(&conn).is_some() {
            self.held.retain(|_, h| h.conn != conn);
        }
    }

    /// Submissions currently held by `conn` (its in-flight window load).
    pub fn held_by(&self, conn: u64) -> usize {
        self.conns.get(&conn).map_or(0, |c| c.held)
    }

    /// Total submissions held across every connection.
    pub fn held_total(&self) -> usize {
        self.held.len()
    }

    /// Accepts one paced submit into the merge.
    ///
    /// # Errors
    /// A reason string (the gateway answers with a `BAD_REQUEST` wire
    /// error) when the times are non-finite or negative, the submit
    /// violates the connection's own previous watermark promise, `next_s`
    /// runs backwards, or the `(at_s, seq)` slot is already taken.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        conn: u64,
        seq: u64,
        at_s: f64,
        next_s: Option<f64>,
        trace: Option<u64>,
        recv_s: f64,
        spec: SubmitTemplate,
    ) -> Result<(), String> {
        let at_bits = time_bits(at_s)?;
        let state = self
            .conns
            .get_mut(&conn)
            .ok_or("connection is not registered as paced")?;
        match state.watermark {
            Watermark::Done => {
                return Err("submit after the final (next_s = null) submit".to_string())
            }
            Watermark::At(w) if at_bits < w => {
                return Err(format!(
                    "at_s = {at_s} violates this connection's watermark promise"
                ))
            }
            Watermark::At(_) => {}
        }
        let next = match next_s {
            None => Watermark::Done,
            Some(t) => {
                let bits = time_bits(t)?;
                if bits < at_bits {
                    return Err(format!("next_s = {t} runs backwards from at_s = {at_s}"));
                }
                Watermark::At(bits)
            }
        };
        if self
            .held
            .insert(
                (at_bits, seq),
                HeldSubmit {
                    conn,
                    seq,
                    at_s,
                    trace,
                    recv_s,
                    spec,
                },
            )
            .is_some()
        {
            return Err(format!(
                "duplicate submission slot (at_s = {at_s}, seq = {seq})"
            ));
        }
        state.watermark = next;
        state.held += 1;
        Ok(())
    }

    /// Releases every submission whose turn has come, in `(at_s, seq)`
    /// order. Call after each accepted submit and each connection close.
    pub fn release(&mut self) -> Vec<HeldSubmit> {
        let mut out = Vec::new();
        while let Some((&(at_bits, _), head)) = self.held.iter().next() {
            let head_conn = head.conn;
            let safe = self.conns.iter().all(|(&id, c)| {
                id == head_conn
                    || c.held > 0
                    || match c.watermark {
                        Watermark::Done => true,
                        Watermark::At(w) => w > at_bits,
                    }
            });
            if !safe {
                break;
            }
            let (_, h) = self.held.pop_first().expect("head exists");
            if let Some(c) = self.conns.get_mut(&h.conn) {
                c.held -= 1;
            }
            out.push(h);
        }
        out
    }
}

/// Order-preserving bit image of a virtual timestamp. Only non-negative
/// finite times are bridgeable (`to_bits` is monotone there).
fn time_bits(t: f64) -> Result<u64, String> {
    if !t.is_finite() || t < 0.0 {
        return Err(format!("virtual time {t} must be finite and non-negative"));
    }
    Ok(t.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifft::plan::Algorithm;
    use fft_math::twiddle::Direction;
    use fft_serve::{Priority, SeededSpec, Shape};

    fn spec(seed: u64) -> SubmitTemplate {
        SubmitTemplate::Single(SeededSpec {
            shape: Shape::Rows1d { n: 256, rows: 8 },
            direction: Direction::Forward,
            algorithm: Some(Algorithm::FiveStep),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: fft_serve::TenantId(0),
            seed,
        })
    }

    /// Two connections delivering out of order still release in global
    /// `(at_s, seq)` order, gated by the watermarks.
    #[test]
    fn merges_racing_connections_into_schedule_order() {
        let mut b = PacedBridge::new();
        // Conn 1 owns seqs {0: 1.0, 2: 3.0}; conn 2 owns {1: 2.0, 3: 4.0}.
        b.register(1, Some(1.0)).unwrap();
        b.register(2, Some(2.0)).unwrap();
        // Conn 2's frames arrive first. Its 2.0 cannot release: conn 1's
        // watermark (1.0) is not past it.
        b.submit(2, 1, 2.0, Some(4.0), None, 0.0, spec(1)).unwrap();
        assert!(b.release().is_empty());
        b.submit(2, 3, 4.0, None, None, 0.0, spec(3)).unwrap();
        assert!(b.release().is_empty());
        // Conn 1's first frame arrives: 1.0 releases immediately, and its
        // next_s = 3.0 watermark lets conn 2's 2.0 release behind it.
        b.submit(1, 0, 1.0, Some(3.0), None, 0.0, spec(0)).unwrap();
        let released: Vec<u64> = b.release().iter().map(|h| h.seq).collect();
        assert_eq!(released, vec![0, 1]);
        // Conn 1's last frame: everything flushes in order.
        b.submit(1, 2, 3.0, None, None, 0.0, spec(2)).unwrap();
        let released: Vec<u64> = b.release().iter().map(|h| h.seq).collect();
        assert_eq!(released, vec![2, 3]);
        assert_eq!(b.held_total(), 0);
    }

    /// Equal arrival times release in `seq` order, and a watermark merely
    /// *equal* to the head's time blocks release until the frame arrives.
    #[test]
    fn equal_times_break_ties_by_seq() {
        let mut b = PacedBridge::new();
        b.register(1, Some(5.0)).unwrap();
        b.register(2, Some(5.0)).unwrap();
        b.submit(2, 8, 5.0, None, None, 0.0, spec(8)).unwrap();
        // Conn 1 promised at_s >= 5.0 — it may yet send seq 7 at exactly
        // 5.0, so seq 8 must wait.
        assert!(b.release().is_empty());
        b.submit(1, 7, 5.0, None, None, 0.0, spec(7)).unwrap();
        let released: Vec<u64> = b.release().iter().map(|h| h.seq).collect();
        assert_eq!(released, vec![7, 8]);
    }

    /// A connection that declares it will never submit, or that closes,
    /// stops gating the merge.
    #[test]
    fn idle_and_closed_connections_do_not_gate() {
        let mut b = PacedBridge::new();
        b.register(1, Some(1.0)).unwrap();
        b.register(2, None).unwrap(); // will never submit
        b.register(3, Some(0.5)).unwrap();
        b.submit(1, 1, 1.0, None, None, 0.0, spec(1)).unwrap();
        // Conn 3's watermark 0.5 gates seq 1.
        assert!(b.release().is_empty());
        b.close(3);
        let released: Vec<u64> = b.release().iter().map(|h| h.seq).collect();
        assert_eq!(released, vec![1]);
    }

    /// Malformed paced traffic errors instead of corrupting the merge.
    #[test]
    fn rejects_watermark_violations_and_bad_times() {
        let mut b = PacedBridge::new();
        b.register(1, Some(2.0)).unwrap();
        assert!(
            b.submit(1, 0, 1.0, None, None, 0.0, spec(0)).is_err(),
            "before watermark"
        );
        assert!(b.submit(1, 0, f64::NAN, None, None, 0.0, spec(0)).is_err());
        assert!(b.submit(1, 0, -1.0, None, None, 0.0, spec(0)).is_err());
        assert!(
            b.submit(1, 0, 2.0, Some(1.0), None, 0.0, spec(0)).is_err(),
            "next_s backwards"
        );
        b.submit(1, 0, 2.0, None, None, 0.0, spec(0)).unwrap();
        assert!(
            b.submit(1, 1, 3.0, None, None, 0.0, spec(1)).is_err(),
            "submit after final"
        );
        assert!(
            b.submit(99, 0, 1.0, None, None, 0.0, spec(0)).is_err(),
            "unregistered"
        );
    }
}
