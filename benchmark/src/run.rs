//! One run of one workload in this process: set up, warm up, measure,
//! check the answers, and (in a traced run) attribute the time.

use crate::drive::{merge, run_phase, Actor, PhaseTotals, Record, TraceOp};
use crate::gate::{self, GateReport};
use crate::gen::{Ledger, Op};
use crate::json::Json;
use crate::layers::{self, ReplayFacts};
use crate::metrics::{check_complete, Metric, END_TO_END, INFORMATIONAL, PER_LAYER};
use crate::stats::{
    median, percentile_sorted, quartiles, variation, SlicedSamples, MIN_MEDIAN_SAMPLES,
};
use crate::sut::{
    counter_history_is_ivl, BackendChoice, Counters, Direct, Group, HistoryOp, Server, ServerStats,
    Target,
};
use crate::trace::{per_unit_ns, self_times, write_jsonl, Span, SpanLog};
use crate::workloads::{build, Via, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window, whole seconds.
    pub seconds: u64,
    pub trace: bool,
    pub backend: BackendChoice,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

/// What one run found.
#[derive(Debug)]
pub struct RunOutput {
    /// Calls made in the measured (or traced) window, refused ones
    /// included.
    pub attempted: u64,
    /// Calls refused or failed in that window.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), complete and in table order.
    pub metrics: Vec<Metric>,
    /// Sample counts, the gate's report and the informational readings.
    pub detail: Json,
}

/// Warm-up before any window, seconds: caches fill, writers lease,
/// merged-read caches take their first full snapshots.
const WARMUP_SECONDS: u64 = 2;
/// Set-up cycles per untraced run, half before the warm-up and half
/// after the gate, so that one disturbed stretch cannot cover them all;
/// `setup_s` is their lower quartile.
const SETUP_CYCLES: usize = 32;
/// Quiet round trips per probe step of a traced run.
const PROBE_OPS: usize = 1000;

/// Client threads: `min(2, nproc)`.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Runs `cfg.workload` once.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let workload = build(&cfg.workload, cfg.seed, cfg.backend, client_threads())
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    match workload.via {
        Via::Direct => run_via::<Direct>(cfg, &workload),
        Via::Group => run_via::<Group>(cfg, &workload),
    }
}

/// A booted topology with its actors connected. Actors come first so
/// that they close before the servers drain (fields drop in order).
struct Live<T> {
    actors: Vec<Actor<T>>,
    servers: Vec<Server>,
}

impl<T: Target + Send> Live<T> {
    /// One set-up: boot every server, connect every actor, fetch the
    /// roster, and push each actor's first update and first query
    /// through, so that writers hold their leases and merged reads
    /// their first snapshots.
    fn start(w: &Workload) -> Result<Live<T>, String> {
        let servers = w
            .servers
            .iter()
            .map(Server::boot)
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<String> = servers.iter().map(Server::addr).collect();
        let mut live = Live {
            actors: Vec::new(),
            servers,
        };
        for plan in &w.inputs.plans {
            let mut target = T::open(&addrs).map_err(|e| format!("cannot connect: {e}"))?;
            let roster = target.roster().map_err(|e| format!("roster: {e}"))?;
            if roster != w.objects() {
                return Err(format!(
                    "roster lists {roster} objects, expected {}",
                    w.objects()
                ));
            }
            let mut ledger = Ledger::new(w.inputs.frames.len());
            let all_ops = || {
                plan.ops
                    .iter()
                    .chain(plan.trickle.iter().flat_map(|(ops, _)| ops))
            };
            let first_write = all_ops().find(|op| matches!(op, Op::Write { .. }));
            let first_read = all_ops().find(|op| matches!(op, Op::Read { .. }));
            for op in first_write.into_iter().chain(first_read) {
                match *op {
                    Op::Write { frame } => {
                        let f = &w.inputs.frames[frame as usize];
                        target
                            .write(f.object, &f.items)
                            .map_err(|e| format!("first update: {e}"))?;
                        ledger.ack(frame);
                    }
                    Op::Read { object, key } => {
                        target
                            .read(object, key)
                            .map_err(|e| format!("first query: {e}"))?;
                    }
                }
            }
            live.actors.push(Actor {
                target,
                cursor: 0,
                trickle_cursor: 0,
                ledger,
            });
        }
        Ok(live)
    }

    fn server_stats(&self) -> ServerStats {
        let mut sum = ServerStats::default();
        for s in self.servers.iter().map(Server::stats) {
            sum.frames += s.frames;
            sum.wakeups += s.wakeups;
            sum.busy_rejections += s.busy_rejections;
            sum.stream_len += s.stream_len;
            sum.ready_peak = sum.ready_peak.max(s.ready_peak);
            sum.update_p50_ns = sum.update_p50_ns.max(s.update_p50_ns);
            sum.query_p50_ns = sum.query_p50_ns.max(s.query_p50_ns);
        }
        sum
    }

    fn counters(&self) -> Counters {
        self.actors
            .iter()
            .map(|a| a.target.counters())
            .fold(Counters::default(), Counters::plus)
    }

    fn phase(
        &mut self,
        w: &Workload,
        seconds: u64,
        record: Record,
        origin: Instant,
    ) -> Result<PhaseTotals, String> {
        merge(
            seconds,
            run_phase(&mut self.actors, &w.inputs, seconds, record, origin),
        )
    }
}

/// The quiescent system against the exact ledger (see `gate`).
fn check_answers<T: Target + Send>(w: &Workload, live: &mut Live<T>) -> Result<GateReport, String> {
    let mut ledger = Ledger::new(w.inputs.frames.len());
    for a in &live.actors {
        ledger.merge(&a.ledger);
    }
    let exact = ledger.observed(&w.inputs.frames, w.objects());
    let served: u64 = live.server_stats().stream_len;
    if served != exact.iter().sum::<u64>() {
        return Err(format!(
            "servers report total stream_len {served}, acknowledged weight is {}",
            exact.iter().sum::<u64>()
        ));
    }
    let keys = &w.inputs.gate_keys;
    let target = &mut live.actors[0].target;
    let mut observed = Vec::with_capacity(exact.len());
    for (object, &want) in exact.iter().enumerate() {
        let got = target
            .read(object as u32, keys[0])
            .map_err(|e| format!("gate query on object {object}: {e}"))?;
        observed.push((got.observed, want));
    }
    let counts = ledger.exact_counts(&w.inputs.frames, 0, keys);
    let mut checks = Vec::with_capacity(keys.len());
    for (&key, &f) in keys.iter().zip(&counts) {
        let answer = target
            .read(0, key)
            .map_err(|e| format!("gate query: {e}"))?;
        let freq = answer
            .freq
            .ok_or("object 0 answered without a frequency envelope")?;
        checks.push((f, freq));
    }
    gate::check(&observed, &checks)
}

/// The observed weight an answer reports per server: a merged read's
/// parts, or a single server's own figure.
fn per_server(observed: u64, parts: &[Option<u64>]) -> Vec<u64> {
    if parts.is_empty() {
        vec![observed]
    } else {
        parts.iter().map(|p| p.unwrap_or(0)).collect()
    }
}

/// Per (object, server) observed weight right now, through `target`.
fn observed_now<T: Target>(w: &Workload, target: &mut T) -> Result<Vec<Vec<u64>>, String> {
    (0..w.objects() as u32)
        .map(|object| {
            let answer = target
                .read(object, w.inputs.gate_keys[0])
                .map_err(|e| format!("baseline query: {e}"))?;
            Ok(per_server(answer.observed, &answer.parts))
        })
        .collect()
}

/// Splits the traced pass's operations into one counter history per
/// (object, server) — updates by where their weight was routed, queries
/// by what each server reported, both relative to the weight observed
/// when the pass began — and checks each with the monotone checker.
/// Returns `(histories checked, operations checked, nanoseconds)`.
fn check_histories<T: Target>(
    w: &Workload,
    target: &T,
    base: &[Vec<u64>],
    ops: &[TraceOp],
) -> Result<(usize, usize, u64), String> {
    let mut routes: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut histories: HashMap<(u32, usize), Vec<HistoryOp>> = HashMap::new();
    for op in ops {
        let mut push = |server: usize, is_update: bool, value: u64| {
            histories
                .entry((op.object, server))
                .or_default()
                .push(HistoryOp {
                    process: op.actor,
                    is_update,
                    start_ns: op.start_ns,
                    end_ns: op.end_ns,
                    value,
                });
        };
        match op.frame {
            Some(frame) => {
                let split = routes
                    .entry(frame)
                    .or_insert_with(|| target.split(&w.inputs.frames[frame as usize].items));
                for (server, &weight) in split.iter().enumerate() {
                    if weight > 0 {
                        push(server, true, weight);
                    }
                }
            }
            None => {
                let reported = per_server(op.observed, &op.parts);
                for (server, seen) in reported.into_iter().enumerate() {
                    let since = seen.checked_sub(base[op.object as usize][server]).ok_or_else(|| {
                        format!("object {} on server {server} reported less weight than before the pass", op.object)
                    })?;
                    push(server, false, since);
                }
            }
        }
    }
    let started = Instant::now();
    let mut checked = 0;
    for ((object, server), history) in &histories {
        checked += history.len();
        if !counter_history_is_ivl(history) {
            return Err(format!(
                "history of object {object} on server {server} is not IVL"
            ));
        }
    }
    Ok((
        histories.len(),
        checked,
        started.elapsed().as_nanos() as u64,
    ))
}

/// What the quiet probe of a traced run measured besides its spans.
#[derive(Default)]
struct ProbeFacts {
    /// Wire bytes and op count of the probe's direct client (merged
    /// workloads, whose own traffic goes through groups).
    direct: Option<(Counters, u64)>,
    /// Counters and merged-read count of the probe's group
    /// (single-server workloads).
    group: Option<(Counters, u64)>,
}

/// With the workload's threads gone, times bare round trips over fresh
/// connections: the cheapest query the server answers, then the layer
/// the workload itself does not exercise. A merged workload gets plain
/// client calls on the CountMin of its first replica. A single-server
/// workload gets a one-replica group, addressed at the probe object: the
/// replica layer's floor, on an object whose snapshot fits a frame at
/// any sketch size (the 1 MiB-per-shard CountMin of `ingest-bulk` does
/// not). The unchanged `SNAPSHOT_SINCE` that the fan-out overhead is
/// measured against goes to the same object as the group's reads.
fn probe(w: &Workload, addrs: &[String], log: &mut SpanLog) -> Result<ProbeFacts, String> {
    let err = |e| format!("probe: {e}");
    let frames: Vec<_> = w.inputs.frames.iter().filter(|f| f.object == 0).collect();
    let keys = &w.inputs.gate_keys;
    let object = match w.via {
        Via::Group => 0,
        Via::Direct => w.probe_object(),
    };
    let mut facts = ProbeFacts::default();
    let mut direct = Direct::open(addrs).map_err(err)?;
    for i in 0..PROBE_OPS {
        let start = log.now_ns();
        direct.read(w.probe_object(), 0).map_err(err)?;
        let end = log.now_ns();
        log.record("service.server.rtt_floor", i as u64, 0, start, end, 1);
    }
    let mut epoch = direct.snapshot_since(object, u64::MAX).map_err(err)?;
    for i in 0..PROBE_OPS {
        let start = log.now_ns();
        epoch = direct.snapshot_since(object, epoch).map_err(err)?;
        let end = log.now_ns();
        log.record("service.client.snapshot_since", i as u64, 0, start, end, 1);
    }
    match w.via {
        Via::Group => {
            let before = direct.counters();
            run_calls(&mut direct, object, &frames, keys, log).map_err(err)?;
            facts.direct = Some((direct.counters().since(before), 2 * PROBE_OPS as u64));
        }
        Via::Direct => {
            let mut group = Group::open(addrs).map_err(err)?;
            group.roster().map_err(err)?;
            run_calls(&mut group, object, &frames, keys, log).map_err(err)?;
            facts.group = Some((group.counters(), PROBE_OPS as u64));
        }
    }
    Ok(facts)
}

/// `PROBE_OPS` updates then `PROBE_OPS` queries on `object`, one span
/// each, named after the target's public functions.
fn run_calls<T: Target>(
    target: &mut T,
    object: u32,
    frames: &[&crate::gen::Frame],
    keys: &[u64],
    log: &mut SpanLog,
) -> Result<(), crate::sut::CallError> {
    for i in 0..PROBE_OPS {
        let f = frames[i % frames.len()];
        let start = log.now_ns();
        target.write(object, &f.items)?;
        let end = log.now_ns();
        log.record(T::WRITE_SPAN, i as u64, 0, start, end, f.items.len() as u64);
    }
    for i in 0..PROBE_OPS {
        let start = log.now_ns();
        target.read(object, keys[i % keys.len()])?;
        let end = log.now_ns();
        log.record(T::READ_SPAN, i as u64, 0, start, end, 1);
    }
    Ok(())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sets the workload up `cycles` times, each on fresh servers, the
/// previous ones joined first; returns the seconds each took and the
/// last set-up, still live.
fn set_up<T: Target + Send>(w: &Workload, cycles: usize) -> Result<(Vec<f64>, Live<T>), String> {
    let mut seconds = Vec::with_capacity(cycles);
    let mut live: Option<Live<T>> = None;
    for _ in 0..cycles {
        drop(live.take());
        let started = Instant::now();
        live = Some(Live::start(w)?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((seconds, live.expect("at least one set-up cycle")))
}

fn run_via<T: Target + Send>(cfg: &RunConfig, w: &Workload) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let cycles = if cfg.trace { 1 } else { SETUP_CYCLES / 2 };
    let (mut setups, mut live) = set_up::<T>(w, cycles)?;
    live.phase(w, WARMUP_SECONDS, Record::Off, origin)?;
    if cfg.trace {
        return run_traced(cfg, w, live, origin);
    }
    let totals = live.phase(w, cfg.seconds, Record::Samples, origin)?;
    let gate = check_answers(w, &mut live)?;
    drop(live);
    let (more, last) = set_up::<T>(w, SETUP_CYCLES - cycles)?;
    drop(last);
    setups.extend(more);
    let metrics = end_to_end(&totals, &setups, peak_rss_mib()?);
    check_complete(&metrics, &END_TO_END)?;
    let mut detail = detail(&metrics, &gate, &[]);
    if let Json::Obj(pairs) = &mut detail {
        // Second by second, so that a disturbed stretch of the window
        // can be told from a slow system; and the whole-window figures
        // the best-slice rule is an alternative to.
        let series = |values: Vec<f64>, scale: f64| {
            Json::Arr(values.into_iter().map(|v| Json::Num(v / scale)).collect())
        };
        let whole = |v: Option<f64>| v.map_or(Json::Null, |ns| Json::Num(ns / 1e3));
        pairs.push((
            "slice_write_p50_us".into(),
            series(totals.writes.per_group(MIN_MEDIAN_SAMPLES, 0.5), 1e3),
        ));
        pairs.push((
            "slice_read_p50_us".into(),
            series(totals.reads.per_group(MIN_MEDIAN_SAMPLES, 0.5), 1e3),
        ));
        pairs.push((
            "slice_ingest_mupd_s".into(),
            series(totals.items_per_s.clone(), 1e6),
        ));
        pairs.push((
            "slice_read_kqps".into(),
            series(totals.reads_per_s.clone(), 1e3),
        ));
        pairs.push((
            "window_write_p50_us".into(),
            whole(totals.writes.whole(0.5)),
        ));
        pairs.push(("window_read_p50_us".into(), whole(totals.reads.whole(0.5))));
        pairs.push(("setup_cycles_s".into(), series(setups.clone(), 1.0)));
    }
    Ok(RunOutput {
        attempted: totals.attempted,
        failed: totals.failed,
        detail,
        metrics,
    })
}

fn run_traced<T: Target + Send>(
    cfg: &RunConfig,
    w: &Workload,
    mut live: Live<T>,
    origin: Instant,
) -> Result<RunOutput, String> {
    // An untraced window first: its medians are what the traced
    // window's are compared with for the tracing overhead.
    let baseline = live.phase(w, (cfg.seconds / 4).max(1), Record::Samples, origin)?;
    let base_observed = observed_now(w, &mut live.actors[0].target)?;
    let (stats0, counters0) = (live.server_stats(), live.counters());
    let traced = live.phase(w, (cfg.seconds / 2).max(1), Record::Traced, origin)?;
    let (stats1, counters1) = (live.server_stats(), live.counters());
    let gate = check_answers(w, &mut live)?;
    let (histories, history_ops, check_ns) =
        check_histories(w, &live.actors[0].target, &base_observed, &traced.history)?;

    // Close the workload's connections, then probe the quiet servers.
    let Live { actors, servers } = live;
    drop(actors);
    let addrs: Vec<String> = servers.iter().map(Server::addr).collect();
    let mut log = SpanLog::new(origin, 0x70);
    let probed = probe(w, &addrs, &mut log)?;
    drop(servers);
    let facts = layers::replay(&w.servers[0], w.servers.len(), &w.inputs, &mut log);

    // Probe and replay spans first: the trace file keeps a prefix.
    let mut spans = log.spans;
    spans.extend_from_slice(&traced.spans);
    write_jsonl(&cfg.out_dir.join(format!("trace-{}.jsonl", w.name)), &spans)
        .map_err(|e| format!("cannot write the trace: {e}"))?;

    // Each side from the workload's own traffic where it has any, from
    // the probe where it has none.
    let moved = counters1.since(counters0);
    let (group, group_reads) = probed.group.unwrap_or((moved, traced.reads.count() as u64));
    let (wire, wire_ops) = probed.direct.unwrap_or((moved, traced.completed));
    let inputs = LayerInputs {
        spans: &spans,
        facts,
        baseline: &baseline,
        traced: &traced,
        frames: stats1.frames - stats0.frames,
        wakeups: stats1.wakeups - stats0.wakeups,
        ready_peak: stats1.ready_peak,
        busy_rejections: stats1.busy_rejections - stats0.busy_rejections,
        group,
        group_reads,
        wire,
        wire_ops,
        check_ns,
        history_ops,
    };
    let metrics = per_layer(&inputs);
    check_complete(&metrics, &PER_LAYER)?;
    let informational: Vec<Metric> = INFORMATIONAL
        .iter()
        .zip([stats1.update_p50_ns, stats1.query_p50_ns])
        .map(|(def, ns)| Metric {
            name: def.name,
            value: ns as f64,
            unit: def.unit,
            samples: 1,
        })
        .collect();
    let mut detail = detail(&metrics, &gate, &informational);
    if let Json::Obj(pairs) = &mut detail {
        pairs.push((
            "inputs_fingerprint".into(),
            Json::str(format!("{:016x}", w.inputs.fingerprint())),
        ));
        pairs.push(("histories_checked".into(), Json::Num(histories as f64)));
        pairs.push(("history_ops".into(), Json::Num(history_ops as f64)));
        pairs.push(("spans".into(), Json::Num(spans.len() as f64)));
        pairs.push((
            "write_path_us".into(),
            write_path(&metrics, facts.frame_items),
        ));
    }
    Ok(RunOutput {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
        detail,
    })
}

fn detail(metrics: &[Metric], gate: &GateReport, informational: &[Metric]) -> Json {
    Json::obj([
        (
            "samples",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), Json::Num(m.samples as f64)))
                    .collect(),
            ),
        ),
        (
            "gate",
            Json::obj([
                ("keys_checked", Json::Num(gate.keys_checked as f64)),
                ("epsilon_misses", Json::Num(gate.epsilon_misses as f64)),
                (
                    "epsilon_misses_allowed",
                    Json::Num(gate.epsilon_misses_allowed as f64),
                ),
            ]),
        ),
        (
            "informational",
            Json::Obj(
                informational
                    .iter()
                    .map(|m| (m.name.to_string(), m.json()))
                    .collect(),
            ),
        ),
    ])
}

/// The seven end-to-end metrics of one measured window. Times and rates
/// follow the best-slice rule (see `SlicedSamples::best_median`): the
/// lowest slice median, the highest slice rate, the lower quartile of
/// the set-up cycles.
fn end_to_end(t: &PhaseTotals, setups: &[f64], rss_mib: f64) -> Vec<Metric> {
    let best_rate = |per_s: &[f64], scale: f64| {
        let best = per_s.iter().copied().max_by(f64::total_cmp);
        (best.map_or(f64::NAN, |r| r / scale), per_s.len())
    };
    let best_us = |s: &SlicedSamples| {
        s.best_median()
            .map_or((f64::NAN, 0), |(ns, groups)| (ns / 1e3, groups))
    };
    let values = [
        (
            quartiles(setups).map_or(f64::NAN, |(q1, _, _)| q1),
            setups.len(),
        ),
        best_rate(&t.items_per_s, 1e6),
        best_rate(&t.reads_per_s, 1e3),
        best_us(&t.writes),
        best_us(&t.reads),
        (median(&t.widths).unwrap_or(f64::NAN), t.widths.len()),
        (rss_mib, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Metric {
            name: def.name,
            value,
            unit: def.unit,
            samples,
        })
        .collect()
}

/// Everything the per-layer ledger is computed from.
struct LayerInputs<'a> {
    spans: &'a [Span],
    facts: ReplayFacts,
    baseline: &'a PhaseTotals,
    traced: &'a PhaseTotals,
    frames: u64,
    wakeups: u64,
    ready_peak: u64,
    busy_rejections: u64,
    group: Counters,
    group_reads: u64,
    wire: Counters,
    wire_ops: u64,
    check_ns: u64,
    history_ops: usize,
}

/// Median and count of a list of readings.
fn med(values: Vec<f64>) -> (f64, usize) {
    (median(&values).unwrap_or(f64::NAN), values.len())
}

/// Median duration (ns) of the spans with one of `names`.
fn duration(spans: &[Span], names: &[&str]) -> (f64, usize) {
    med(spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.duration_ns() as f64)
        .collect())
}

/// Median per-unit self time (ns) of the spans called `name`.
fn self_per_unit(spans: &[Span], selfs: &HashMap<u64, i64>, name: &str) -> (f64, usize) {
    med(spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 / s.units.max(1) as f64)
        .collect())
}

/// The forty-seven per-layer metrics of one traced run, in table order.
fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let s = x.spans;
    let selfs = self_times(s);
    let unit = |name: &str| med(per_unit_ns(s, name));
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            f64::NAN
        } else {
            num as f64 / den as f64
        }
    };
    let scale = |(v, n): (f64, usize), k: f64| (v * k, n);
    let count = |v: f64| (v, 1);

    let client_write = duration(s, &["service.client.batch"]);
    let req_encode = duration(s, &["service.protocol.request_encode"]);
    let decode_item = unit("service.protocol.batch_decode");
    let resp_encode = unit("service.protocol.response_encode");
    let resp_decode = unit("service.protocol.response_decode");
    let objects_apply = duration(s, &["service.objects.apply_batch"]);
    let replayed_ns = req_encode.0
        + decode_item.0 * x.facts.frame_items as f64
        + objects_apply.0
        + resp_encode.0
        + resp_decode.0;
    let replica_query = duration(s, &["replica.query"]);
    let snapshot_since = duration(s, &["service.client.snapshot_since"]);

    let p50 = |t: &PhaseTotals| (t.writes.whole(0.5), t.reads.whole(0.5));
    let overhead = |traced: Option<f64>, base: Option<f64>| match (traced, base) {
        (Some(t), Some(b)) if b > 0.0 => Some(100.0 * (t - b) / b),
        _ => None,
    };
    let ((tw, tr), (bw, br)) = (p50(x.traced), p50(x.baseline));
    let overheads: Vec<f64> = [overhead(tw, bw), overhead(tr, br)]
        .into_iter()
        .flatten()
        .collect();
    let tail_us = |samples: &SlicedSamples| {
        (
            samples
                .slice_median(0.99)
                .map_or(f64::NAN, |(v, _)| v / 1e3),
            samples.count(),
        )
    };

    let values: [(f64, usize); 47] = [
        unit("sketch.hash_row_batch"),
        unit("sketch.cm_update_by"),
        unit("concurrent.lease"),
        unit("concurrent.prepare"),
        unit("concurrent.apply_batch"),
        count(x.facts.coalesce_ratio),
        unit("concurrent.estimate"),
        unit("concurrent.dirty_spans_since"),
        unit("concurrent.cells_snapshot"),
        req_encode,
        decode_item,
        resp_encode,
        resp_decode,
        count(x.facts.bytes_per_item),
        scale(
            self_per_unit(s, &selfs, "service.objects.apply_batch"),
            x.facts.frame_items as f64,
        ),
        self_per_unit(s, &selfs, "service.objects.query"),
        duration(s, &["service.objects.snapshot_since"]),
        scale(duration(s, &["service.server.rtt_floor"]), 1e-3),
        ((client_write.0 - replayed_ns) / 1e3, client_write.1),
        count(x.frames as f64),
        // The threaded backend has no reactor wakeups to count.
        count(if x.wakeups == 0 {
            0.0
        } else {
            ratio(x.frames, x.wakeups)
        }),
        count(x.ready_peak as f64),
        count(x.busy_rejections as f64),
        scale(
            duration(s, &["service.client.batch", "service.client.query"]),
            1e-3,
        ),
        count(ratio(x.wire.bytes_out, x.wire_ops)),
        count(ratio(x.wire.bytes_in, x.wire_ops)),
        scale(unit("merge.encode"), 1024.0),
        scale(unit("merge.decode"), 1024.0),
        duration(s, &["merge.apply_change"]),
        duration(s, &["merge.merge_states"]),
        unit("replica.route"),
        scale(duration(s, &["replica.batch"]), 1e-3),
        scale(replica_query, 1e-3),
        ((replica_query.0 - snapshot_since.0) / 1e3, replica_query.1),
        count(ratio(x.group.unchanged, x.group.snapshot_reads)),
        count(ratio(x.group.deltas, x.group.snapshot_reads)),
        count(ratio(x.group.fulls, x.group.snapshot_reads)),
        count(ratio(x.group.snapshot_bytes_in, x.group_reads)),
        count(ratio(x.group.snapshot_bytes_out, x.group_reads)),
        count(x.group.catchup_pushed as f64),
        (ratio(x.check_ns, x.history_ops as u64), x.history_ops),
        (
            percentile_sorted(&x.traced.lag_ns, 0.99).map_or(f64::NAN, |v| v / 1e3),
            x.traced.lag_ns.len(),
        ),
        count(ratio(x.traced.late, x.traced.completed)),
        tail_us(&x.traced.writes),
        tail_us(&x.traced.reads),
        med(overheads),
        count(variation(&x.traced.items_per_s).max(variation(&x.traced.reads_per_s))),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Metric {
            name: def.name,
            value,
            unit: def.unit,
            samples,
        })
        .collect()
}

/// The ledger's one column: where an update frame's round trip goes,
/// innermost layer first, by metric name. `sum_us` is the client round
/// trip rebuilt from the parts.
fn write_path(metrics: &[Metric], frame_items: u64) -> Json {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let items = frame_items as f64;
    let kernel = get("concurrent.apply_batch_ns_per_item") * items / 1e3;
    let protocol = (get("service.protocol.req_encode_ns")
        + get("service.protocol.batch_decode_ns_per_item") * items
        + get("service.protocol.resp_encode_ns")
        + get("service.protocol.resp_decode_ns"))
        / 1e3;
    let objects = get("service.objects.route_apply_ns_per_frame") / 1e3;
    let server = get("service.server.frame_overhead_us");
    Json::obj([
        ("frame_items", Json::Num(items)),
        ("kernel_us", Json::Num(kernel)),
        ("protocol_us", Json::Num(protocol)),
        ("objects_us", Json::Num(objects)),
        ("server_us", Json::Num(server)),
        ("sum_us", Json::Num(kernel + protocol + objects + server)),
    ])
}
