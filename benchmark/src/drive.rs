//! The load generator proper: one thread per actor, each running its
//! plan against its target for a fixed time, closed or open loop.

use crate::gen::{Frame, Inputs, Ledger, Op, Pacing, Plan};
use crate::stats::{SliceRate, SlicedSamples};
use crate::sut::{CallError, Target};
use crate::trace::{Span, SpanLog};
use std::time::{Duration, Instant};

/// One client thread's persistent state: its connection(s), where it is
/// in its plan (and in its trickle), and which frames it has seen
/// acknowledged.
pub struct Actor<T> {
    pub target: T,
    pub cursor: usize,
    pub trickle_cursor: usize,
    pub ledger: Ledger,
}

/// What a phase records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record {
    /// Nothing but the ledger (warm-up).
    Off,
    /// Latency samples and per-slice counts (the measured window).
    Samples,
    /// Samples plus spans and a client-side history (the traced pass).
    Traced,
}

/// One operation of the traced pass, as the history check needs it.
#[derive(Clone, Debug)]
pub struct TraceOp {
    pub actor: u32,
    pub object: u32,
    /// The pool frame an update sent; `None` for a query.
    pub frame: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A query's reported observed weight.
    pub observed: u64,
    /// A merged query's per-replica observed weights.
    pub parts: Vec<Option<u64>>,
}

/// Everything one actor measured in one phase.
#[derive(Debug, Default)]
pub struct Recording {
    pub writes: SlicedSamples,
    pub reads: SlicedSamples,
    /// Update items acknowledged, per one-second slice.
    pub item_rates: Vec<SliceRate>,
    /// Queries answered, per one-second slice.
    pub read_rates: Vec<SliceRate>,
    /// Traced pass only: per operation, how long after its due time it
    /// was sent. In a closed loop the due time is the previous
    /// completion, so this is the generator's own bookkeeping time.
    pub lag_ns: Vec<u32>,
    /// Operations that completed more than [`LATE_NS`] after due.
    pub late: u64,
    pub completed: u64,
    /// `(epsilon + lag) / stream_len` of sampled frequency answers.
    pub widths: Vec<f64>,
    /// Calls made, refused ones included.
    pub attempted: u64,
    /// Calls refused (`busy`) or failed.
    pub failed: u64,
    /// The error that stopped this actor, if one did.
    pub error: Option<String>,
    pub spans: Vec<Span>,
    pub history: Vec<TraceOp>,
}

/// An operation is late when it completes this long after it was due.
pub const LATE_NS: u64 = 1_000_000;
/// Every this-many-th frequency answer contributes an envelope width.
const WIDTH_SAMPLE_EVERY: u64 = 16;
/// Below this distance from a due time the generator stops sleeping and
/// polls the clock: `sleep` overshoots by the kernel's timer slack
/// (50 us by default), which would otherwise be charged to the system.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(120);
/// Pause between retries of a call the server refused with `busy`.
const BUSY_PAUSE: Duration = Duration::from_micros(50);

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_BEFORE_DUE {
            std::thread::sleep(left - SPIN_BEFORE_DUE);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Calls `f` until it is not refused with `busy`, counting every
/// attempt and every refusal; gives up at `deadline`.
fn retrying<R>(
    rec: &mut Recording,
    deadline: Instant,
    mut f: impl FnMut() -> Result<R, CallError>,
) -> Result<R, String> {
    loop {
        rec.attempted += 1;
        match f() {
            Ok(v) => return Ok(v),
            Err(CallError::Busy) if Instant::now() < deadline => {
                rec.failed += 1;
                std::thread::sleep(BUSY_PAUSE);
            }
            Err(e) => {
                rec.failed += 1;
                return Err(e.to_string());
            }
        }
    }
}

/// Runs one actor from `start` for `seconds`.
#[allow(clippy::too_many_arguments)]
fn run_actor<T: Target>(
    index: usize,
    actor: &mut Actor<T>,
    frames: &[Frame],
    plan: &Plan,
    start: Instant,
    seconds: u64,
    record: Record,
    origin: Instant,
) -> Recording {
    let slices = seconds as usize;
    let mut rec = Recording {
        writes: SlicedSamples::new(slices),
        reads: SlicedSamples::new(slices),
        item_rates: vec![SliceRate::default(); slices],
        read_rates: vec![SliceRate::default(); slices],
        ..Recording::default()
    };
    let mut log = SpanLog::new(origin, index as u64 + 1);
    let end = start + Duration::from_secs(seconds);
    // A refused call may be retried past the window's end, but not
    // forever: the run's watchdog is the last resort, not the first.
    let deadline = end + Duration::from_secs(5);
    let since_origin = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    wait_until(start);
    let mut prev_done = start;
    let mut freq_answers = 0u64;
    let mut trickled = 0u64;
    for k in 0u64.. {
        let mut due = match plan.pacing {
            Pacing::Closed => prev_done,
            Pacing::Open {
                period_ns,
                phase_ns,
            } => start + Duration::from_nanos(phase_ns + k * period_ns),
        };
        if due >= end {
            break;
        }
        // A trickle operation that has come due goes first.
        let trickle_due = plan.trickle.as_ref().and_then(|(ops, period_ns)| {
            let at = start + Duration::from_nanos(trickled * period_ns);
            (at <= due).then_some((ops, at))
        });
        let op = match trickle_due {
            Some((ops, at)) => {
                due = at;
                trickled += 1;
                actor.trickle_cursor += 1;
                ops[(actor.trickle_cursor - 1) % ops.len()]
            }
            None => {
                wait_until(due);
                actor.cursor += 1;
                plan.ops[(actor.cursor - 1) % plan.ops.len()]
            }
        };
        let send = Instant::now();
        // (object, pool frame if an update, items acknowledged, answer if a query)
        let outcome = match op {
            Op::Write { frame } => {
                let f = &frames[frame as usize];
                let target = &mut actor.target;
                retrying(&mut rec, deadline, || target.write(f.object, &f.items)).map(|()| {
                    actor.ledger.ack(frame);
                    (f.object, Some(frame), f.items.len() as u64, None)
                })
            }
            Op::Read { object, key } => {
                let target = &mut actor.target;
                retrying(&mut rec, deadline, || target.read(object, key))
                    .map(|answer| (object, None, 0, Some(answer)))
            }
        };
        let done = Instant::now();
        prev_done = done;
        let (object, frame, items, answer) = match outcome {
            Ok(done) => done,
            Err(e) => {
                rec.error = Some(format!("actor {index}, operation {k} ({op:?}): {e}"));
                break;
            }
        };
        if record == Record::Off || done >= end {
            continue;
        }
        if let Some(freq) = answer.as_ref().and_then(|a| a.freq) {
            freq_answers += 1;
            if freq_answers.is_multiple_of(WIDTH_SAMPLE_EVERY) {
                rec.widths.extend(freq.width_rel());
            }
        }
        let is_write = frame.is_some();
        let latency_ns = (done - due).as_nanos() as u64;
        let slice = ((done - start).as_secs() as usize).min(slices - 1);
        if is_write {
            rec.writes.push(slice, latency_ns);
            rec.item_rates[slice].add((done - start).as_nanos() as u64, items);
        } else {
            rec.reads.push(slice, latency_ns);
            rec.read_rates[slice].add((done - start).as_nanos() as u64, 1);
        }
        rec.completed += 1;
        rec.late += u64::from(latency_ns > LATE_NS);
        if record == Record::Traced {
            rec.lag_ns
                .push((send - due).as_nanos().min(u32::MAX as u128) as u32);
            let op_id = ((index as u64 + 1) << 40) | k;
            let (due_ns, send_ns, done_ns) =
                (since_origin(due), since_origin(send), since_origin(done));
            let parent = log.record("loadgen.op", op_id, 0, due_ns, done_ns, 1);
            let call = if is_write {
                T::WRITE_SPAN
            } else {
                T::READ_SPAN
            };
            log.record(call, op_id, parent, send_ns, done_ns, items.max(1));
            let (observed, parts) = answer.map_or((0, Vec::new()), |a| (a.observed, a.parts));
            rec.history.push(TraceOp {
                actor: index as u32,
                object,
                frame,
                start_ns: send_ns,
                end_ns: done_ns,
                observed,
                parts,
            });
        }
    }
    rec.spans = log.spans;
    rec
}

/// Runs every actor for `seconds`, each on its own thread, all starting
/// at the same instant. Returns one recording per actor, in order.
pub fn run_phase<T: Target + Send>(
    actors: &mut [Actor<T>],
    inputs: &Inputs,
    seconds: u64,
    record: Record,
    origin: Instant,
) -> Vec<Recording> {
    // Far enough ahead that every thread is parked on the start line.
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = actors
            .iter_mut()
            .zip(&inputs.plans)
            .enumerate()
            .map(|(index, (actor, plan))| {
                let frames = &inputs.frames;
                scope.spawn(move || {
                    run_actor(index, actor, frames, plan, start, seconds, record, origin)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("actor thread panicked"))
            .collect()
    })
}

/// The recordings of one phase, merged across actors.
#[derive(Debug, Default)]
pub struct PhaseTotals {
    pub writes: SlicedSamples,
    pub reads: SlicedSamples,
    /// Update items per second in each slice, summed over the threads.
    pub items_per_s: Vec<f64>,
    /// Queries per second in each slice, summed over the threads.
    pub reads_per_s: Vec<f64>,
    pub lag_ns: Vec<u32>,
    pub late: u64,
    pub completed: u64,
    pub widths: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    pub history: Vec<TraceOp>,
}

/// Merges per-actor recordings; the first actor error becomes the
/// phase's error.
pub fn merge(seconds: u64, recordings: Vec<Recording>) -> Result<PhaseTotals, String> {
    let slices = seconds as usize;
    let mut t = PhaseTotals {
        writes: SlicedSamples::new(slices),
        reads: SlicedSamples::new(slices),
        items_per_s: vec![0.0; slices],
        reads_per_s: vec![0.0; slices],
        ..PhaseTotals::default()
    };
    t.writes = SlicedSamples::merged(&recordings.iter().map(|r| &r.writes).collect::<Vec<_>>());
    t.reads = SlicedSamples::merged(&recordings.iter().map(|r| &r.reads).collect::<Vec<_>>());
    for r in recordings {
        if let Some(e) = r.error {
            return Err(e);
        }
        for (a, b) in t.items_per_s.iter_mut().zip(&r.item_rates) {
            *a += b.per_second();
        }
        for (a, b) in t.reads_per_s.iter_mut().zip(&r.read_rates) {
            *a += b.per_second();
        }
        t.lag_ns.extend_from_slice(&r.lag_ns);
        t.late += r.late;
        t.completed += r.completed;
        t.widths.extend_from_slice(&r.widths);
        t.attempted += r.attempted;
        t.failed += r.failed;
        t.spans.extend(r.spans);
        t.history.extend(r.history);
    }
    t.lag_ns.sort_unstable();
    Ok(t)
}
