//! `loadgen`: multi-threaded load generator for `ivl-service`.
//!
//! ```text
//! usage: loadgen [--backend threaded|event-loop|both] [--threads N]
//!                [--ops N] [--keys N] [--queries N] [--batch N]
//!                [--shards N] [--write-buffer B] [--mix SPEC]
//!                [--replicas N] [--mode partition|mirror]
//!                [--query-ratio R] [--rejoin]
//!                [--addr HOST:PORT] [--json FILE] [--history-out FILE]
//!                [--shutdown] [--no-check]
//! ```
//!
//! By default boots an in-process recording server, hammers it over
//! real TCP with `--threads` ingest connections (Zipf keys, batched
//! frames) plus one querying connection, prints throughput and
//! client-side p50/p95/p99 latencies, then drains and replays the
//! recorded history through the IVL checkers (one monotone verdict per
//! registered object — Theorem 1 locality — plus an exact check over a
//! second tiny run). Exit status 2 if a check fails.
//!
//! `--mix cm=8,hll=1,morris=1` spreads the load over several
//! registered objects by weight (names double as object kinds; a
//! `name:kind` entry such as `hits:hll=1` drives an object whose name
//! differs from its kind, e.g. one registered on an external server
//! with `ivl_serve --object hits=hll`). The in-process roster lists the
//! mix entries in order, so the first entry is object 0 whatever its
//! kind. Latency tails are reported per object, both in text and under
//! `"objects"` in `--json`. `--rejoin` needs a CountMin in the mix.
//!
//! `--backend both` runs the same total load twice — once per serving
//! backend, both times with 4x `--threads` ingest connections on the
//! same shard budget. That connection count is beyond what the
//! threaded backend's lease pool sustains (its surplus connections
//! busy-bounce against the shard budget), while the event loop
//! multiplexes all of them over its reactors without a single `busy`,
//! so the comparison shows what serving 4x the provisioned
//! concurrency costs each backend at the tail.
//!
//! `--addr` drives an external server (e.g. a separately launched
//! `ivl_serve`) instead of booting one; server-side history checks are
//! skipped, but `--history-out` still records a *client-side* counter
//! history — each batch is a counter update of its total weight, each
//! query a counter read returning the envelope's stream length — in
//! the `ivl_spec::io` text format, replayable with
//! `ivl_check <file> counter`. `--shutdown` sends a SHUTDOWN frame
//! when the load finishes.
//!
//! `--replicas N` appends replicated runs after the normal ones: N
//! in-process servers sharing a seed, every ingest worker driving its
//! own `ReplicaGroup` in `--mode partition` (default) or `mirror`,
//! plus the `N == 1` degenerate group as a baseline when `N > 1`.
//! Reported tails are the *merged* batch/query latencies (the group's
//! route-split sends and merge-on-query reads), with per-replica rows:
//! partition-mode batch tails per routed replica, and direct
//! single-replica query tails for the merge-on-query overhead
//! comparison. `--history-out` writes one client-side counter history
//! per replica (`FILE.replicaK`) — partition attributes each routed
//! sub-batch to its replica, mirror attributes every batch to every
//! replica, and queries respond with the merged read's per-part
//! observed weights — replayable with `ivl_check --replicated`.
//!
//! `--rejoin` runs the anti-entropy acceptance scenario instead of the
//! normal runs: 3 partitioned in-process replicas (or `--replicas N`,
//! N >= 2) take a pre-kill load, one is killed and restarted empty at
//! the same address, and the driver measures the composed envelope's
//! `lag` at each stage — pre-kill (L0), during the outage, widened on
//! rejoin detection (the forgotten weight), and after the group's
//! catch-up push — failing (exit 2) unless the post-catch-up lag
//! returns within 2x L0. Updates routed to the dead replica are held
//! client-side and replayed after the rejoin, so each per-replica
//! `--history-out` history stays a faithful record of what that
//! replica acknowledged (the catch-up push itself is re-delivered
//! weight, not a new update, and is deliberately not recorded).
//! Time-to-convergence and the catch-up counters land in `--json`.
//!
//! `--query-ratio R` sizes the query load so queries make up fraction
//! `R` of all operations (overriding `--queries`) — the query-heavy
//! mixes where the group's delta-cached merged reads pay off. The
//! replicated report then carries merged-read accounting: how the
//! snapshot roundtrips split across `unchanged`/delta/full replies
//! and the bytes they moved, in text and under `"merged_reads"` in
//! `--json`. After the load, one full-state `SNAPSHOT_SINCE` reply
//! per queried object is read over a direct client; their size,
//! weighted by the query mix, is reported as `full_reply_bytes` — the
//! per-roundtrip cost of a merged read with nothing cached, which the
//! delta path's `bytes_in / reads` is judged against.

use ivl_bench::{mops, timed_scope, Worker};
use ivl_replica::{DeltaStats, MergedRead, ReplicaError, ReplicaGroup, ReplicaMode};
use ivl_service::objects::{ObjectConfig, ObjectKind};
use ivl_service::server::{serve, Backend, ServerConfig};
use ivl_service::{Client, ClientError, ErrorCode, ErrorEnvelope, StatsReport};
use ivl_sketch::countmin::CountMinParams;
use ivl_sketch::stream::ZipfStream;
use ivl_spec::history::{History, HistoryBuilder, ObjectId, ProcessId};
use ivl_spec::io::write_history;
use ivl_spec::ivl::check_ivl_exact;
use ivl_spec::linearize::MAX_EXACT_OPS;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many times more ingest connections than `--threads` the
/// `--backend both` comparison offers each backend (same shard
/// budget, same total ops).
const COMPARE_CONN_MULTIPLIER: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Single(Backend),
    Both,
}

/// One `--mix` component: a named object and its share of the load.
#[derive(Clone)]
struct MixEntry {
    name: String,
    kind: ObjectKind,
    weight: u64,
}

/// Parses `cm=8,hll=1,morris=1` (weight defaults to 1).
fn parse_mix(spec: &str) -> Option<Vec<MixEntry>> {
    let mut entries = Vec::new();
    for part in spec.split(',') {
        let (label, weight) = match part.split_once('=') {
            Some((n, w)) => (n, w.parse::<u64>().ok().filter(|&w| w > 0)?),
            None => (part, 1),
        };
        // `name:kind` names an object whose name is not a kind string
        // (e.g. `hits:hll`); a bare label doubles as both.
        let (name, kind) = match label.split_once(':') {
            Some((n, k)) => (n, k),
            None => (label, label),
        };
        entries.push(MixEntry {
            name: name.to_owned(),
            kind: kind.parse().ok()?,
            weight,
        });
    }
    Some(entries)
}

/// The resolved traffic plan: object roster, wire ids, and cumulative
/// weight buckets for deterministic weighted selection.
struct MixPlan {
    entries: Vec<MixEntry>,
    ids: Vec<u32>,
    total_weight: u64,
}

impl MixPlan {
    fn resolve(entries: &[MixEntry], ids: Vec<u32>) -> Self {
        assert_eq!(entries.len(), ids.len());
        let total_weight = entries.iter().map(|e| e.weight).sum::<u64>().max(1);
        MixPlan {
            entries: entries.to_vec(),
            ids,
            total_weight,
        }
    }

    /// In-process plan: object id == roster index.
    fn in_process(entries: &[MixEntry]) -> Self {
        MixPlan::resolve(entries, (0..entries.len() as u32).collect())
    }

    fn object_configs(&self) -> Vec<ObjectConfig> {
        self.entries
            .iter()
            .map(|e| ObjectConfig::new(&e.name, e.kind))
            .collect()
    }

    /// Deterministic weighted pick: maps `seq` into the cumulative
    /// weight buckets, so every `total_weight` consecutive picks hit
    /// each entry exactly `weight` times.
    fn pick(&self, seq: u64) -> usize {
        let mut slot = seq % self.total_weight;
        for (idx, e) in self.entries.iter().enumerate() {
            if slot < e.weight {
                return idx;
            }
            slot -= e.weight;
        }
        0
    }
}

struct Opts {
    mode: Mode,
    threads: usize,
    ops: u64,
    keys: usize,
    queries: u64,
    batch: usize,
    shards: usize,
    write_buffer: u64,
    mix: Vec<MixEntry>,
    replicas: usize,
    replica_mode: ReplicaMode,
    query_ratio: Option<f64>,
    rejoin: bool,
    check: bool,
    addr: Option<String>,
    json: Option<String>,
    history_out: Option<String>,
    shutdown: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            mode: Mode::Single(Backend::Threaded),
            threads: 4,
            ops: 20_000,
            keys: 512,
            queries: 2_000,
            batch: 32,
            shards: 8,
            write_buffer: 0,
            mix: parse_mix("cm").expect("default mix parses"),
            replicas: 0,
            replica_mode: ReplicaMode::Partition,
            query_ratio: None,
            rejoin: false,
            check: true,
            addr: None,
            json: None,
            history_out: None,
            shutdown: false,
        }
    }
}

fn parse() -> Option<Opts> {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = || args.next()?.parse::<u64>().ok();
        match arg.as_str() {
            "--threads" => o.threads = (num()? as usize).max(1),
            "--ops" => o.ops = num()?,
            "--keys" => o.keys = (num()? as usize).max(2),
            "--queries" => o.queries = num()?,
            "--batch" => o.batch = (num()? as usize).clamp(1, 4096),
            "--shards" => o.shards = num()? as usize,
            "--write-buffer" => o.write_buffer = num()?,
            "--mix" => o.mix = parse_mix(&args.next()?)?,
            "--replicas" => o.replicas = num()? as usize,
            "--mode" => o.replica_mode = args.next()?.parse().ok()?,
            "--query-ratio" => {
                let r = args.next()?.parse::<f64>().ok()?;
                if !(0.0..1.0).contains(&r) {
                    return None;
                }
                o.query_ratio = Some(r);
            }
            "--rejoin" => o.rejoin = true,
            "--no-check" => o.check = false,
            "--shutdown" => o.shutdown = true,
            "--backend" => {
                o.mode = match args.next()?.as_str() {
                    "both" => Mode::Both,
                    one => Mode::Single(one.parse().ok()?),
                }
            }
            "--addr" => o.addr = Some(args.next()?),
            "--json" => o.json = Some(args.next()?),
            "--history-out" => o.history_out = Some(args.next()?),
            _ => return None,
        }
    }
    // `--query-ratio R` sizes the querying connection's load so that
    // queries make up fraction R of all operations: with U total
    // updates, Q = U·R/(1−R) queries, overriding `--queries`.
    if let Some(r) = o.query_ratio {
        let total_updates = o.ops * o.threads as u64;
        o.queries = ((total_updates as f64) * r / (1.0 - r)).round() as u64;
    }
    Some(o)
}

/// Client-side latency samples, merged across workers.
#[derive(Default)]
struct Samples(Mutex<Vec<u64>>);

impl Samples {
    fn push_all(&self, mut local: Vec<u64>) {
        self.0.lock().unwrap().append(&mut local);
    }

    /// Sorted samples; consumes the accumulator.
    fn sorted(self) -> Vec<u64> {
        let mut v = self.0.into_inner().unwrap();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank percentile over an already-sorted slice.
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[derive(Clone, Copy)]
struct Tail {
    p50: u64,
    p95: u64,
    p99: u64,
}

impl Tail {
    fn of(sorted: &[u64]) -> Tail {
        Tail {
            p50: pct(sorted, 0.50),
            p95: pct(sorted, 0.95),
            p99: pct(sorted, 0.99),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            self.p50, self.p95, self.p99
        )
    }
}

/// A client-side counter history of the run: batches become counter
/// updates of their total weight, queries become counter reads of the
/// envelope's stream length. Replayable with `ivl_check <file>
/// counter`.
struct ClientRecorder {
    builder: Mutex<HistoryBuilder<u64, u64, u64>>,
}

impl ClientRecorder {
    fn new() -> Self {
        ClientRecorder {
            builder: Mutex::new(HistoryBuilder::new()),
        }
    }

    fn finish(self) -> History<u64, u64, u64> {
        self.builder.into_inner().unwrap().finish()
    }
}

/// Per-object latency tails for the report.
struct ObjLat {
    name: String,
    batch_ns: Tail,
    query_ns: Tail,
}

struct RunOutcome {
    backend: String,
    ingest_conns: usize,
    total_updates: u64,
    wall: Duration,
    batch_ns: Tail,
    query_ns: Tail,
    objects: Vec<ObjLat>,
    stats: StatsReport,
    /// Merged-read snapshot accounting (replicated runs only): how the
    /// group's reads split across unchanged/delta/full replies and
    /// what they cost on the wire.
    merged_reads: Option<MergedReads>,
}

/// A replicated run's merged-read accounting and its yardstick.
struct MergedReads {
    stats: DeltaStats,
    /// Mean size of one full-state `SNAPSHOT_SINCE` reply over the
    /// queried objects, weighted by the query mix.
    full_reply_bytes: f64,
}

impl RunOutcome {
    fn json(&self, queries: u64) -> String {
        let objects: Vec<String> = self
            .objects
            .iter()
            .map(|o| {
                format!(
                    "{{\"name\": \"{}\", \"batch_ns\": {}, \"query_ns\": {}}}",
                    o.name,
                    o.batch_ns.json(),
                    o.query_ns.json()
                )
            })
            .collect();
        let merged_reads = match &self.merged_reads {
            Some(MergedReads {
                stats: d,
                full_reply_bytes,
            }) => format!(
                ",\n      \"merged_reads\": {{\"reads\": {}, \"unchanged\": {}, \
                 \"deltas\": {}, \"fulls\": {}, \"unchanged_rate\": {:.4}, \
                 \"delta_rate\": {:.4}, \"full_rate\": {:.4}, \
                 \"bytes_out\": {}, \"bytes_in\": {}, \"full_reply_bytes\": {:.1}}}",
                d.reads,
                d.unchanged,
                d.deltas,
                d.fulls,
                d.unchanged_rate(),
                d.delta_rate(),
                d.full_rate(),
                d.bytes_out,
                d.bytes_in,
                full_reply_bytes,
            ),
            None => String::new(),
        };
        format!(
            "    {{\n      \"backend\": \"{}\",\n      \"ingest_conns\": {},\n      \
             \"total_updates\": {},\n      \"queries\": {},\n      \"wall_s\": {:.6},\n      \
             \"throughput_mops\": {:.4},\n      \"batch_ns\": {},\n      \"query_ns\": {},\n      \
             \"objects\": [{}],\n      \
             \"server\": {{\"busy_rejections\": {}, \"frames\": {}, \"wakeups\": {}, \
             \"ready_peak\": {}}}{}\n    }}",
            self.backend,
            self.ingest_conns,
            self.total_updates,
            queries,
            self.wall.as_secs_f64(),
            mops(self.total_updates + queries, self.wall),
            self.batch_ns.json(),
            self.query_ns.json(),
            objects.join(", "),
            self.stats.busy_rejections,
            self.stats.frames,
            self.stats.wakeups,
            self.stats.ready_peak,
            merged_reads,
        )
    }
}

/// Decorrelated-jitter backoff for `busy` retries: each pause is
/// `min(cap, uniform(base, 3·prev))`. The old fixed 1 ms sleep made
/// every bounced worker retry in lockstep — they re-collided on the
/// same exhausted shard pool and the batch p99 smeared across tens of
/// milliseconds; jitter desynchronizes the herd so a freed lease is
/// usually contested by one worker, not all of them.
struct Backoff {
    rng: u64,
    last_us: u64,
}

impl Backoff {
    /// Shortest pause — well under a lease-return round trip.
    const BASE_US: u64 = 100;
    /// Longest pause — a few ms, past which waiting stops helping.
    const CAP_US: u64 = 4_000;

    fn new(seed: u64) -> Self {
        Backoff {
            // xorshift rejects the all-zero state.
            rng: seed | 1,
            last_us: Self::BASE_US,
        }
    }

    /// xorshift64* step.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Sleeps for the next decorrelated interval. No reset on success:
    /// the next draw re-derives from the last pause, so a worker that
    /// just waited long decays back toward `base` within a few draws.
    fn pause(&mut self) {
        let hi = self
            .last_us
            .saturating_mul(3)
            .clamp(Self::BASE_US + 1, Self::CAP_US);
        self.last_us = Self::BASE_US + self.next_u64() % (hi - Self::BASE_US);
        // lint:allow sleep — load generator backs off on server Busy by design
        std::thread::sleep(Duration::from_micros(self.last_us));
    }
}

/// One ingest connection: `ops` weighted updates in `batch`-sized
/// frames over Zipf-distributed keys, each batch routed to a mix
/// object by weighted round-robin and timed per object. A `busy`
/// answer (more ingest connections than threaded-backend shards) is
/// backpressure, not failure: back off and retry until a peer hangs
/// up and frees its shard lease.
#[allow(clippy::too_many_arguments)]
fn ingest_client(
    addr: SocketAddr,
    ops: u64,
    keys: usize,
    batch: usize,
    seed: u64,
    plan: &MixPlan,
    lats: &[Samples],
    recorder: Option<&ClientRecorder>,
    process: ProcessId,
) {
    let mut client = Client::connect(addr).expect("connect ingest");
    let mut stream = ZipfStream::new(keys, 1.1, seed);
    let mut backoff = Backoff::new(seed ^ 0xb0ff);
    let mut pending = Vec::with_capacity(batch);
    let mut locals: Vec<Vec<u64>> = vec![Vec::new(); plan.entries.len()];
    let mut sent = 0u64;
    let mut seq = 0u64;
    while sent < ops {
        pending.clear();
        while pending.len() < batch && sent < ops {
            let key = stream.next_item();
            pending.push((key, 1 + key % 3));
            sent += 1;
        }
        // Offset each connection's rotation so the mix interleaves
        // across connections instead of synchronizing on one object.
        let obj_idx = plan.pick(seq.wrapping_add(seed));
        seq += 1;
        let object = plan.ids[obj_idx];
        let weight: u64 = pending.iter().map(|&(_, w)| w).sum();
        let op = recorder.map(|r| {
            r.builder
                .lock()
                .unwrap()
                .invoke_update(process, ObjectId(object), weight)
        });
        let t0 = Instant::now();
        loop {
            match client.object_id(object).batch(&pending) {
                Ok(_) => break,
                Err(ClientError::Server {
                    code: ErrorCode::Busy,
                    ..
                }) => backoff.pause(),
                Err(e) => panic!("batch failed: {e}"),
            }
        }
        locals[obj_idx].push(t0.elapsed().as_nanos() as u64);
        if let (Some(r), Some(op)) = (recorder, op) {
            r.builder.lock().unwrap().respond_update(op);
        }
    }
    for (lat, local) in lats.iter().zip(locals) {
        lat.push_all(local);
    }
}

/// The querying connection: `queries` Zipf point queries spread over
/// the mix objects, each checked for envelope consistency and timed.
fn query_client(
    addr: SocketAddr,
    queries: u64,
    keys: usize,
    plan: &MixPlan,
    lats: &[Samples],
    recorder: Option<&ClientRecorder>,
    process: ProcessId,
) {
    let mut client = Client::connect(addr).expect("connect querier");
    let mut stream = ZipfStream::new(keys, 1.1, 0xbeef);
    let mut locals: Vec<Vec<u64>> = vec![Vec::new(); plan.entries.len()];
    for i in 0..queries {
        let key = stream.next_item();
        let obj_idx = plan.pick(i);
        let object = plan.ids[obj_idx];
        let op = recorder.map(|r| {
            r.builder
                .lock()
                .unwrap()
                .invoke_query(process, ObjectId(object), 0)
        });
        let t0 = Instant::now();
        let env = client.object_id(object).query(key).expect("query answered");
        locals[obj_idx].push(t0.elapsed().as_nanos() as u64);
        if let (Some(r), Some(op)) = (recorder, op) {
            // Every envelope kind exposes `observed` (acknowledged
            // update weight), so each projection replays as a counter.
            r.builder.lock().unwrap().respond_query(op, env.observed());
        }
        if let ErrorEnvelope::Frequency(env) = &env {
            assert!(
                env.estimate >= env.lower_bound(),
                "inconsistent envelope: {env:?}"
            );
        }
    }
    for (lat, local) in lats.iter().zip(locals) {
        lat.push_all(local);
    }
}

/// Drives one full load against `addr`: `conns` ingest connections
/// splitting `total_ops` updates, plus one querying connection.
/// Returns wall time, overall batch/query tails, per-object latency
/// rows, and the update count actually sent.
fn drive(
    addr: SocketAddr,
    o: &Opts,
    conns: usize,
    total_ops: u64,
    plan: &MixPlan,
    recorder: Option<&ClientRecorder>,
) -> (Duration, Tail, Tail, Vec<ObjLat>, u64) {
    let batch_lat: Vec<Samples> = (0..plan.entries.len())
        .map(|_| Samples::default())
        .collect();
    let query_lat: Vec<Samples> = (0..plan.entries.len())
        .map(|_| Samples::default())
        .collect();
    let per_conn = total_ops / conns as u64;
    let total_updates = per_conn * conns as u64;
    let mut workers: Vec<Worker<'_>> = (0..conns)
        .map(|t| -> Worker<'_> {
            let (keys, batch) = (o.keys, o.batch);
            let (lat, rec) = (&batch_lat, recorder);
            Box::new(move || {
                ingest_client(
                    addr,
                    per_conn,
                    keys,
                    batch,
                    0x10ad ^ t as u64,
                    plan,
                    lat,
                    rec,
                    ProcessId(t as u32),
                )
            })
        })
        .collect();
    let (queries, keys) = (o.queries, o.keys);
    let (lat, rec) = (&query_lat, recorder);
    workers.push(Box::new(move || {
        query_client(addr, queries, keys, plan, lat, rec, ProcessId(conns as u32));
    }));
    let wall = timed_scope(workers);
    let mut all_batches = Vec::new();
    let mut all_queries = Vec::new();
    let mut objects = Vec::with_capacity(plan.entries.len());
    for ((entry, b), q) in plan.entries.iter().zip(batch_lat).zip(query_lat) {
        let b = b.sorted();
        let q = q.sorted();
        objects.push(ObjLat {
            name: entry.name.clone(),
            batch_ns: Tail::of(&b),
            query_ns: Tail::of(&q),
        });
        all_batches.extend(b);
        all_queries.extend(q);
    }
    all_batches.sort_unstable();
    all_queries.sort_unstable();
    (
        wall,
        Tail::of(&all_batches),
        Tail::of(&all_queries),
        objects,
        total_updates,
    )
}

/// One in-process run against the given backend; returns the outcome
/// for the JSON report, or an error string if a sanity or IVL check
/// fails.
fn run_in_process(o: &Opts, backend: Backend, conns: usize) -> Result<RunOutcome, String> {
    // Strict per-operation IVL only holds at write_buffer == 0; with
    // buffering, acknowledged updates may be briefly invisible (the
    // envelope's lag), so the recorded-history check is skipped.
    let strict = o.write_buffer == 0;
    let plan = MixPlan::in_process(&o.mix);
    let cfg = ServerConfig {
        backend,
        shards: o.shards,
        record: o.check && strict,
        write_buffer: o.write_buffer,
        objects: plan.object_configs(),
        ..ServerConfig::default()
    };
    let params = CountMinParams::for_bounds(cfg.alpha, cfg.delta);
    let handle = serve("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let roster: Vec<String> = plan
        .entries
        .iter()
        .map(|e| match e.kind {
            ObjectKind::CountMin => format!(
                "{}x{} (width {}, depth {}, alpha {:.4}, delta {:.4})",
                e.name,
                e.weight,
                params.width,
                params.depth,
                params.alpha(),
                params.delta()
            ),
            _ => format!("{}x{}", e.name, e.weight),
        })
        .collect();
    println!(
        "server on {addr} [{backend} backend] — {} shards, write-buffer {}, mix [{}]",
        o.shards,
        o.write_buffer,
        roster.join(", ")
    );

    let recorder = o.history_out.as_ref().map(|_| ClientRecorder::new());
    let total_ops = o.ops * o.threads as u64;
    let (wall, batch_ns, query_ns, objects, total_updates) =
        drive(addr, o, conns, total_ops, &plan, recorder.as_ref());
    report(
        backend,
        conns,
        total_updates,
        o.queries,
        wall,
        batch_ns,
        query_ns,
    );
    report_objects(&backend.to_string(), &objects);

    let stats = handle.stats();
    println!(
        "stats: {} updates, {} queries, {} batches, {} frames, {} wakeups \
         (ready peak {}), stream {}, buffered pending {} ({} flushes), \
         update p50/p99 {}/{} ns, query p50/p99 {}/{} ns",
        stats.updates,
        stats.queries,
        stats.batches,
        stats.frames,
        stats.wakeups,
        stats.ready_peak,
        stats.stream_len,
        stats.buffered_pending,
        stats.flushes,
        stats.update_p50_ns,
        stats.update_p99_ns,
        stats.query_p50_ns,
        stats.query_p99_ns
    );
    if stats.updates != total_updates {
        return Err(format!(
            "server counted {} updates, loadgen sent {total_updates}",
            stats.updates
        ));
    }

    let joined = handle.join();
    if o.check && !strict {
        // Flush-on-drain sanity in lieu of the history check: after
        // join, every acknowledged CountMin update must be visible in
        // the drained sketches' stream estimates.
        let mut visible = 0;
        for cm in (0..plan.ids.len() as u32).filter_map(|id| joined.registry.cm(id)) {
            let (shown, acknowledged) = (cm.sketch().stream_len_estimate(), cm.stream_len());
            if shown != acknowledged {
                return Err(format!(
                    "drained sketch shows {shown} weight but {acknowledged} was acknowledged \
                     — flush-on-drain lost updates"
                ));
            }
            visible += shown;
        }
        println!(
            "IVL history check skipped (write-buffer {} > 0: deferred visibility \
             is the advertised lag); flush-on-drain verified: {visible} weight visible",
            o.write_buffer
        );
    }
    if o.check && strict {
        let events = joined
            .history
            .as_ref()
            .map(|h| h.events().len())
            .unwrap_or(0);
        let t0 = Instant::now();
        let verdicts = joined.verdicts().expect("recording was on");
        println!(
            "IVL (monotone interval checker, per object) over {events} events in {:.3}s:",
            t0.elapsed().as_secs_f64()
        );
        for v in &verdicts {
            let shown = match v.ivl {
                Some(ok) => ok.to_string(),
                None => "waived".to_owned(),
            };
            println!(
                "  object {} {} [{}]: {} over {} ops",
                v.id, v.name, v.kind, shown, v.ops
            );
            if v.ivl == Some(false) {
                return Err(format!(
                    "recorded {backend} projection for object {} ({}) is not IVL",
                    v.id, v.name
                ));
            }
        }
    }
    if let (Some(path), Some(rec)) = (&o.history_out, recorder) {
        write_client_history(path, rec)?;
    }
    Ok(RunOutcome {
        backend: backend.to_string(),
        ingest_conns: conns,
        total_updates,
        wall,
        batch_ns,
        query_ns,
        objects,
        stats,
        merged_reads: None,
    })
}

/// Drives an already-running external server (`--addr`): no in-process
/// recording, but the client-side history and STATS are available.
fn run_external(o: &Opts, addr_text: &str) -> Result<RunOutcome, String> {
    let addr: SocketAddr = addr_text
        .parse()
        .map_err(|e| format!("bad --addr {addr_text}: {e}"))?;
    println!("driving external server on {addr}");
    let mut probe = Client::connect(addr).map_err(|e| e.to_string())?;
    // Resolve mix names against the external server's roster: the
    // wire ids are whatever the server registered, not our indices.
    let infos = probe.objects().map_err(|e| e.to_string())?;
    let ids: Vec<u32> = o
        .mix
        .iter()
        .map(|e| {
            infos
                .iter()
                .find(|i| i.name == e.name)
                .map(|i| i.id)
                .ok_or_else(|| format!("external server has no object named {:?}", e.name))
        })
        .collect::<Result<_, _>>()?;
    let plan = MixPlan::resolve(&o.mix, ids);
    let recorder = o.history_out.as_ref().map(|_| ClientRecorder::new());
    let total_ops = o.ops * o.threads as u64;
    let (wall, batch_ns, query_ns, objects, total_updates) =
        drive(addr, o, o.threads, total_ops, &plan, recorder.as_ref());

    let stats = probe.stats().map_err(|e| e.to_string())?;
    let backend = format!("external({addr_text})");
    report_named(
        &backend,
        o.threads,
        total_updates,
        o.queries,
        wall,
        batch_ns,
        query_ns,
    );
    report_objects(&backend, &objects);
    if o.shutdown {
        probe.shutdown().map_err(|e| e.to_string())?;
        println!("sent SHUTDOWN");
    }
    if let (Some(path), Some(rec)) = (&o.history_out, recorder) {
        write_client_history(path, rec)?;
    }
    Ok(RunOutcome {
        backend,
        ingest_conns: o.threads,
        total_updates,
        wall,
        batch_ns,
        query_ns,
        objects,
        stats,
        merged_reads: None,
    })
}

fn report(
    backend: Backend,
    conns: usize,
    updates: u64,
    queries: u64,
    wall: Duration,
    batch_ns: Tail,
    query_ns: Tail,
) {
    report_named(
        &backend.to_string(),
        conns,
        updates,
        queries,
        wall,
        batch_ns,
        query_ns,
    );
}

fn report_named(
    backend: &str,
    conns: usize,
    updates: u64,
    queries: u64,
    wall: Duration,
    batch_ns: Tail,
    query_ns: Tail,
) {
    println!(
        "[{backend}] {updates} updates + {queries} queries over {} conns in {:.3}s \
         — {:.2} Mops/s end-to-end",
        conns + 1,
        wall.as_secs_f64(),
        mops(updates + queries, wall)
    );
    println!(
        "[{backend}] batch p50/p95/p99 {}/{}/{} ns, query p50/p95/p99 {}/{}/{} ns",
        batch_ns.p50, batch_ns.p95, batch_ns.p99, query_ns.p50, query_ns.p95, query_ns.p99
    );
}

/// Per-object latency rows (printed only when the mix has more than
/// one object — a single-object run's rows equal the overall tails).
fn report_objects(backend: &str, objects: &[ObjLat]) {
    if objects.len() < 2 {
        return;
    }
    for o in objects {
        println!(
            "[{backend}] {:8} batch p50/p95/p99 {}/{}/{} ns, query p50/p95/p99 {}/{}/{} ns",
            o.name,
            o.batch_ns.p50,
            o.batch_ns.p95,
            o.batch_ns.p99,
            o.query_ns.p50,
            o.query_ns.p95,
            o.query_ns.p99
        );
    }
}

/// Serializes the client-side counter history for `ivl_check`.
fn write_client_history(path: &str, rec: ClientRecorder) -> Result<(), String> {
    let history = rec.finish();
    let ops = history.operations().len();
    std::fs::write(path, write_history(&history))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("client-side counter history: {ops} ops -> {path}");
    Ok(())
}

/// Retries a group write for as long as the refusal is backpressure
/// (a replica's `busy` shard budget), like the single-server path.
fn group_batch_retrying(
    group: &mut ReplicaGroup,
    backoff: &mut Backoff,
    object: u32,
    items: &[(u64, u64)],
) -> Result<(), String> {
    loop {
        match group.batch(object, items) {
            Ok(_) => return Ok(()),
            Err(ReplicaError::Client(ClientError::Server {
                code: ErrorCode::Busy,
                ..
            })) => backoff.pause(),
            Err(e) => return Err(format!("replicated batch failed: {e}")),
        }
    }
}

/// One replicated ingest worker: its own [`ReplicaGroup`] over the
/// shared roster. Partition mode pre-splits each batch by the group's
/// key route so the send latency of each sub-batch is attributable to
/// one replica; mirror mode fans the whole batch and only the merged
/// latency is meaningful.
#[allow(clippy::too_many_arguments)]
fn replicated_ingest(
    addrs: &[String],
    mode: ReplicaMode,
    seed_group: u64,
    ops: u64,
    keys: usize,
    batch: usize,
    seed: u64,
    plan: &MixPlan,
    merged_lat: &Samples,
    replica_lat: &[Samples],
    recorders: Option<&Vec<ClientRecorder>>,
    process: ProcessId,
) {
    let n = addrs.len();
    let mut group =
        ReplicaGroup::new(addrs.to_vec(), mode, seed_group).expect("non-empty replica group");
    let mut stream = ZipfStream::new(keys, 1.1, seed);
    let mut backoff = Backoff::new(seed ^ 0xb0ff);
    let mut pending = Vec::with_capacity(batch);
    let mut merged_local = Vec::new();
    let mut replica_local: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut sent = 0u64;
    let mut seq = 0u64;
    while sent < ops {
        pending.clear();
        while pending.len() < batch && sent < ops {
            let key = stream.next_item();
            pending.push((key, 1 + key % 3));
            sent += 1;
        }
        let object = plan.ids[plan.pick(seq.wrapping_add(seed))];
        seq += 1;
        match mode {
            ReplicaMode::Partition => {
                let mut subs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
                for &(k, w) in &pending {
                    subs[group.route(k)].push((k, w));
                }
                for (r, sub) in subs.iter().enumerate() {
                    if sub.is_empty() {
                        continue;
                    }
                    let weight: u64 = sub.iter().map(|&(_, w)| w).sum();
                    let op = recorders.map(|rec| {
                        rec[r].builder.lock().unwrap().invoke_update(
                            process,
                            ObjectId(object),
                            weight,
                        )
                    });
                    let t0 = Instant::now();
                    group_batch_retrying(&mut group, &mut backoff, object, sub)
                        .expect("partitioned batch");
                    let ns = t0.elapsed().as_nanos() as u64;
                    merged_local.push(ns);
                    replica_local[r].push(ns);
                    if let (Some(rec), Some(op)) = (recorders, op) {
                        rec[r].builder.lock().unwrap().respond_update(op);
                    }
                }
            }
            ReplicaMode::Mirror => {
                let weight: u64 = pending.iter().map(|&(_, w)| w).sum();
                let ops_per_replica: Option<Vec<_>> = recorders.map(|rec| {
                    rec.iter()
                        .map(|r| {
                            r.builder.lock().unwrap().invoke_update(
                                process,
                                ObjectId(object),
                                weight,
                            )
                        })
                        .collect()
                });
                let t0 = Instant::now();
                group_batch_retrying(&mut group, &mut backoff, object, &pending)
                    .expect("mirrored batch");
                merged_local.push(t0.elapsed().as_nanos() as u64);
                if let (Some(rec), Some(ops)) = (recorders, ops_per_replica) {
                    for (r, op) in rec.iter().zip(ops) {
                        r.builder.lock().unwrap().respond_update(op);
                    }
                }
            }
        }
    }
    merged_lat.push_all(merged_local);
    for (lat, local) in replica_lat.iter().zip(replica_local) {
        lat.push_all(local);
    }
}

/// The replicated querier: merged reads through the group (timed as
/// the merged tail, recorded per replica with the read's per-part
/// observed weights) interleaved with direct single-replica queries
/// for the per-replica baseline the merge overhead is judged against.
#[allow(clippy::too_many_arguments)]
fn replicated_query(
    addrs: &[String],
    mode: ReplicaMode,
    seed_group: u64,
    queries: u64,
    keys: usize,
    plan: &MixPlan,
    merged_lat: &Samples,
    replica_lat: &[Samples],
    recorders: Option<&Vec<ClientRecorder>>,
    process: ProcessId,
    delta_out: &Mutex<DeltaStats>,
) {
    let n = addrs.len();
    let mut group =
        ReplicaGroup::new(addrs.to_vec(), mode, seed_group).expect("non-empty replica group");
    let mut direct: Vec<Client> = addrs
        .iter()
        .map(|a| Client::connect(a.parse::<SocketAddr>().expect("replica addr")))
        .collect::<Result<_, _>>()
        .expect("connect direct queriers");
    let mut stream = ZipfStream::new(keys, 1.1, 0xbeef);
    let mut merged_local = Vec::new();
    let mut replica_local: Vec<Vec<u64>> = vec![Vec::new(); n];
    for i in 0..queries {
        let key = stream.next_item();
        let object = plan.ids[plan.pick(i)];
        let ops_per_replica: Option<Vec<_>> = recorders.map(|rec| {
            rec.iter()
                .map(|r| {
                    r.builder
                        .lock()
                        .unwrap()
                        .invoke_query(process, ObjectId(object), 0)
                })
                .collect()
        });
        let t0 = Instant::now();
        let read = group.query(object, key).expect("merged query answered");
        merged_local.push(t0.elapsed().as_nanos() as u64);
        if let (Some(rec), Some(ops)) = (recorders, ops_per_replica) {
            for ((r, op), part) in rec.iter().zip(ops).zip(&read.parts) {
                let observed = part.expect("all replicas reachable in-process");
                r.builder.lock().unwrap().respond_query(op, observed);
            }
        }
        if let ErrorEnvelope::Frequency(env) = &read.envelope {
            assert!(
                env.estimate >= env.lower_bound(),
                "inconsistent merged envelope: {env:?}"
            );
        }
        let r = (i % n as u64) as usize;
        let t0 = Instant::now();
        direct[r]
            .object_id(object)
            .query(key)
            .expect("direct query answered");
        replica_local[r].push(t0.elapsed().as_nanos() as u64);
    }
    merged_lat.push_all(merged_local);
    for (lat, local) in replica_lat.iter().zip(replica_local) {
        lat.push_all(local);
    }
    *delta_out.lock().unwrap() = group.delta_stats();
}

/// The size of one full-state `SNAPSHOT_SINCE` reply (`u64::MAX` names
/// no real epoch) from the replica at `addr`, averaged over the
/// objects the run queries with the query mix as weights.
fn full_reply_bytes(addr: &str, plan: &MixPlan) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (mut bytes, mut weight) = (0u64, 0u64);
    for (entry, &id) in plan.entries.iter().zip(&plan.ids) {
        let (_, in0) = client.wire_bytes();
        client
            .object_id(id)
            .snapshot_since(u64::MAX)
            .map_err(|e| e.to_string())?;
        let (_, in1) = client.wire_bytes();
        bytes += entry.weight * (in1 - in0);
        weight += entry.weight;
    }
    Ok(bytes as f64 / weight.max(1) as f64)
}

/// Boots `n` in-process replicas sharing a seed and drives them
/// through per-worker [`ReplicaGroup`]s. Overall tails are the merged
/// group latencies; the per-"object" rows are per-replica tails.
fn run_replicated(o: &Opts, backend: Backend, n: usize) -> Result<RunOutcome, String> {
    let mode = o.replica_mode;
    let plan = MixPlan::in_process(&o.mix);
    let handles: Vec<_> = (0..n)
        .map(|_| {
            serve(
                "127.0.0.1:0",
                ServerConfig {
                    backend,
                    shards: o.shards,
                    write_buffer: o.write_buffer,
                    objects: plan.object_configs(),
                    ..ServerConfig::default()
                },
            )
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let seed_group = ServerConfig::default().seed;
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    println!(
        "replicated: {n} replicas [{}] in {mode} mode ({backend} backend, seed {seed_group})",
        addrs.join(", ")
    );

    let merged_batch = Samples::default();
    let merged_query = Samples::default();
    let replica_batch: Vec<Samples> = (0..n).map(|_| Samples::default()).collect();
    let replica_query: Vec<Samples> = (0..n).map(|_| Samples::default()).collect();
    let recorders: Option<Vec<ClientRecorder>> = o
        .history_out
        .as_ref()
        .map(|_| (0..n).map(|_| ClientRecorder::new()).collect());

    let per_conn = o.ops;
    let total_updates = per_conn * o.threads as u64;
    let mut workers: Vec<Worker<'_>> = (0..o.threads)
        .map(|t| -> Worker<'_> {
            let (keys, batch) = (o.keys, o.batch);
            let (addrs, plan) = (&addrs, &plan);
            let (mlat, rlat, rec) = (&merged_batch, &replica_batch, recorders.as_ref());
            Box::new(move || {
                replicated_ingest(
                    addrs,
                    mode,
                    seed_group,
                    per_conn,
                    keys,
                    batch,
                    0x10ad ^ t as u64,
                    plan,
                    mlat,
                    rlat,
                    rec,
                    ProcessId(t as u32),
                )
            })
        })
        .collect();
    let (queries, keys, threads) = (o.queries, o.keys, o.threads);
    let delta_out = Mutex::new(DeltaStats::default());
    {
        let (addrs, plan) = (&addrs, &plan);
        let (mlat, rlat, rec) = (&merged_query, &replica_query, recorders.as_ref());
        let delta_out = &delta_out;
        workers.push(Box::new(move || {
            replicated_query(
                addrs,
                mode,
                seed_group,
                queries,
                keys,
                plan,
                mlat,
                rlat,
                rec,
                ProcessId(threads as u32),
                delta_out,
            );
        }));
    }
    let wall = timed_scope(workers);
    let merged_reads = MergedReads {
        stats: delta_out.into_inner().unwrap(),
        full_reply_bytes: full_reply_bytes(&addrs[0], &plan)?,
    };

    let batch_ns = Tail::of(&merged_batch.sorted());
    let query_ns = Tail::of(&merged_query.sorted());
    let mut objects = Vec::with_capacity(n);
    for (r, (b, q)) in replica_batch.into_iter().zip(replica_query).enumerate() {
        objects.push(ObjLat {
            name: format!("replica{r}"),
            batch_ns: Tail::of(&b.sorted()),
            query_ns: Tail::of(&q.sorted()),
        });
    }

    let label = format!("replicated-{mode}-x{n}");
    report_named(
        &label,
        o.threads,
        total_updates,
        o.queries,
        wall,
        batch_ns,
        query_ns,
    );
    report_objects(&label, &objects);
    let d = &merged_reads.stats;
    if d.reads > 0 {
        println!(
            "[{label}] merged reads: {} snapshot roundtrips ({} unchanged, {} delta, \
             {} full; rates {:.2} / {:.2} / {:.2}), wire {} B out + {} B in \
             ({:.0} B per full reply)",
            d.reads,
            d.unchanged,
            d.deltas,
            d.fulls,
            d.unchanged_rate(),
            d.delta_rate(),
            d.full_rate(),
            d.bytes_out,
            d.bytes_in,
            merged_reads.full_reply_bytes,
        );
    }

    // Aggregate server-side counters across the replicas; keep the
    // first replica's latency histograms (they are not summable).
    let mut stats = handles[0].stats();
    for h in &handles[1..] {
        let s = h.stats();
        stats.updates += s.updates;
        stats.queries += s.queries;
        stats.batches += s.batches;
        stats.frames += s.frames;
        stats.wakeups += s.wakeups;
        stats.busy_rejections += s.busy_rejections;
        stats.stream_len += s.stream_len;
        stats.ready_peak = stats.ready_peak.max(s.ready_peak);
    }
    let expected = match mode {
        ReplicaMode::Partition => total_updates,
        ReplicaMode::Mirror => total_updates * n as u64,
    };
    if stats.updates != expected {
        return Err(format!(
            "replicas counted {} updates, expected {expected} ({mode} mode)",
            stats.updates
        ));
    }
    for h in handles {
        h.join();
    }
    if let (Some(path), Some(recs)) = (&o.history_out, recorders) {
        for (r, rec) in recs.into_iter().enumerate() {
            write_client_history(&format!("{path}.replica{r}"), rec)?;
        }
    }
    Ok(RunOutcome {
        backend: label,
        ingest_conns: o.threads,
        total_updates,
        wall,
        batch_ns,
        query_ns,
        objects,
        stats,
        merged_reads: Some(merged_reads),
    })
}

/// Sends `updates` weighted updates through the group in route-split
/// sub-batches. With `down` set, sub-batches routed to that replica
/// are *held* in `held` instead of sent (the replica is dead; its
/// history must not claim acknowledgements) — the caller replays them
/// after the rejoin. Sent weight per mix object accumulates in
/// `sent_weight` for the parts-coverage check.
#[allow(clippy::too_many_arguments)]
fn rejoin_send(
    group: &mut ReplicaGroup,
    backoff: &mut Backoff,
    stream: &mut ZipfStream,
    plan: &MixPlan,
    n: usize,
    batch: usize,
    updates: u64,
    seq: &mut u64,
    recorders: Option<&Vec<ClientRecorder>>,
    process: ProcessId,
    down: Option<usize>,
    held: &mut Vec<(u32, Vec<(u64, u64)>)>,
    sent_weight: &mut [u64],
) -> Result<(), String> {
    let mut pending = Vec::with_capacity(batch);
    let mut sent = 0u64;
    while sent < updates {
        pending.clear();
        while pending.len() < batch && sent < updates {
            let key = stream.next_item();
            pending.push((key, 1 + key % 3));
            sent += 1;
        }
        let obj_idx = plan.pick(*seq);
        *seq += 1;
        let object = plan.ids[obj_idx];
        let mut subs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for &(k, w) in &pending {
            subs[group.route(k)].push((k, w));
        }
        for (r, sub) in subs.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            if down == Some(r) {
                held.push((object, sub.clone()));
                continue;
            }
            let weight: u64 = sub.iter().map(|&(_, w)| w).sum();
            let op = recorders.map(|rec| {
                rec[r]
                    .builder
                    .lock()
                    .unwrap()
                    .invoke_update(process, ObjectId(object), weight)
            });
            group_batch_retrying(group, backoff, object, sub)?;
            sent_weight[obj_idx] += weight;
            if let (Some(rec), Some(op)) = (recorders, op) {
                rec[r].builder.lock().unwrap().respond_update(op);
            }
        }
    }
    Ok(())
}

/// One merged read recorded into every replica's client history (the
/// read's per-part observed weights are each replica's counter value).
/// Only called while the whole group is reachable: a `None` part would
/// leave a dangling invocation, so it is an error here.
fn rejoin_query_recorded(
    group: &mut ReplicaGroup,
    object: u32,
    key: u64,
    recorders: Option<&Vec<ClientRecorder>>,
    process: ProcessId,
) -> Result<MergedRead, String> {
    let ops = recorders.map(|rec| {
        rec.iter()
            .map(|r| {
                r.builder
                    .lock()
                    .unwrap()
                    .invoke_query(process, ObjectId(object), 0)
            })
            .collect::<Vec<_>>()
    });
    let read = group
        .query(object, key)
        .map_err(|e| format!("merged query failed: {e}"))?;
    if let (Some(rec), Some(ops)) = (recorders, ops) {
        for ((r, op), part) in rec.iter().zip(ops).zip(&read.parts) {
            let observed =
                part.ok_or_else(|| "recorded query saw an unreachable replica".to_string())?;
            r.builder.lock().unwrap().respond_query(op, observed);
        }
    }
    Ok(read)
}

/// The `--rejoin` scenario: load, kill, restart, converge. Fails
/// unless the composed envelope's lag returns within 2x its pre-kill
/// width once the group's catch-up push is absorbed.
fn run_rejoin(o: &Opts) -> Result<(), String> {
    let n = if o.replicas >= 2 { o.replicas } else { 3 };
    let plan = MixPlan::in_process(&o.mix);
    // The lag the scenario tracks is the CountMin's envelope lag.
    let cm = plan
        .entries
        .iter()
        .position(|e| e.kind == ObjectKind::CountMin)
        .ok_or("--rejoin needs a CountMin in --mix")?;
    let cm_id = plan.ids[cm];
    let cfg = || ServerConfig {
        backend: Backend::Threaded,
        shards: o.shards,
        write_buffer: o.write_buffer,
        objects: plan.object_configs(),
        ..ServerConfig::default()
    };
    let mut handles: Vec<_> = (0..n)
        .map(|_| serve("127.0.0.1:0", cfg()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let seed_group = ServerConfig::default().seed;
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    println!(
        "rejoin: {n} replicas [{}] in partition mode (threaded backend, seed {seed_group})",
        addrs.join(", ")
    );
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, seed_group)
        .expect("non-empty replica group");
    group.set_retry_limit(3);
    group.set_backoff(Duration::from_millis(5));
    let recorders_owned: Option<Vec<ClientRecorder>> = o
        .history_out
        .as_ref()
        .map(|_| (0..n).map(|_| ClientRecorder::new()).collect());
    let recorders = recorders_owned.as_ref();
    let process = ProcessId(0);
    let mut stream = ZipfStream::new(o.keys, 1.1, 0x10ad);
    let mut backoff = Backoff::new(0xb0ff);
    let mut seq = 0u64;
    let mut held: Vec<(u32, Vec<(u64, u64)>)> = Vec::new();
    let mut sent_weight = vec![0u64; plan.entries.len()];

    // Phase 1 — pre-kill load, then the L0 baseline read.
    let ops_a = o.ops.max(64);
    rejoin_send(
        &mut group,
        &mut backoff,
        &mut stream,
        &plan,
        n,
        o.batch,
        ops_a,
        &mut seq,
        recorders,
        process,
        None,
        &mut held,
        &mut sent_weight,
    )?;
    let mut pre_lag = 0;
    for (idx, &object) in plan.ids.iter().enumerate() {
        let read = rejoin_query_recorded(&mut group, object, 7, recorders, process)?;
        if idx == cm {
            pre_lag = read.envelope.frequency().expect("a CountMin").lag;
        }
    }

    // Phase 2 — kill replica 0 (close our side first: its connection
    // threads only exit at client EOF) and keep loading. Its route
    // share is held client-side; merged reads degrade but answer.
    let victim = handles.remove(0);
    let victim_addr = victim.addr().to_string();
    group.disconnect(0);
    drop(victim.join());
    rejoin_send(
        &mut group,
        &mut backoff,
        &mut stream,
        &plan,
        n,
        o.batch,
        ops_a / 2,
        &mut seq,
        recorders,
        process,
        Some(0),
        &mut held,
        &mut sent_weight,
    )?;
    let down_read = group
        .query(cm_id, 7)
        .map_err(|e| format!("downtime query failed: {e}"))?;
    let down_lag = down_read.envelope.frequency().expect("frequency").lag;

    // Phase 3 — restart the replica empty at its old address (the old
    // listener needs a moment to release it).
    let reborn = {
        let mut reborn = None;
        for _ in 0..100 {
            match serve(&victim_addr, cfg()) {
                Ok(h) => {
                    reborn = Some(h);
                    break;
                }
                // lint:allow sleep — waiting for the OS to release the address
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        reborn.ok_or_else(|| format!("could not rebind {victim_addr}"))?
    };
    let t_restart = Instant::now();

    // Detection round: one unrecorded read per object while the reborn
    // replica still observes less than the displaced caches — each
    // detection retains that cache for the push and widens lag by the
    // forgotten weight.
    let mut widened_lag = 0;
    for (idx, &object) in plan.ids.iter().enumerate() {
        let read = group
            .query(object, 7)
            .map_err(|e| format!("rejoin-detection query failed: {e}"))?;
        if idx == cm {
            widened_lag = read.envelope.frequency().expect("frequency").lag;
        }
    }
    if widened_lag <= pre_lag {
        return Err(format!(
            "the kill lost no weight (lag {pre_lag} -> {widened_lag}): \
             the scenario did not exercise catch-up"
        ));
    }

    // Replay the held share now that its replica is back — recorded as
    // ordinary acknowledged updates, after the detection round so the
    // replayed weight can never mask the rejoin (detection compares
    // against the displaced cache's observed count).
    let mut held_weight = 0u64;
    for (object, items) in &held {
        let weight: u64 = items.iter().map(|&(_, w)| w).sum();
        let op = recorders.map(|rec| {
            rec[0]
                .builder
                .lock()
                .unwrap()
                .invoke_update(process, ObjectId(*object), weight)
        });
        group_batch_retrying(&mut group, &mut backoff, *object, items)?;
        if let Some(idx) = plan.ids.iter().position(|&id| id == *object) {
            sent_weight[idx] += weight;
        }
        held_weight += weight;
        if let (Some(rec), Some(op)) = (recorders, op) {
            rec[0].builder.lock().unwrap().respond_update(op);
        }
    }

    // Convergence: each read first flushes the pending pushes, then
    // re-pulls the absorbed state, so the lag narrows back as soon as
    // the pushes are acknowledged.
    let bound = pre_lag.saturating_mul(2);
    let mut post_lag = u64::MAX;
    let mut convergence = None;
    for _ in 0..16 {
        let read = group
            .query(cm_id, 7)
            .map_err(|e| format!("post-restart query failed: {e}"))?;
        post_lag = read.envelope.frequency().expect("frequency").lag;
        if group.catchup_pending() == 0 && post_lag <= bound {
            convergence = Some(t_restart.elapsed());
            break;
        }
    }
    let Some(convergence) = convergence else {
        return Err(format!(
            "lag did not converge: pre-kill {pre_lag}, bound {bound}, still {post_lag} \
             with {} pushes pending",
            group.catchup_pending()
        ));
    };
    let cstats = group.catchup_stats();
    if cstats.failed > 0 {
        return Err(format!("{} catch-up pushes failed", cstats.failed));
    }

    // Final recorded reads: the whole group is reachable again and the
    // parts must cover every acknowledged update.
    for (idx, &object) in plan.ids.iter().enumerate() {
        let read = rejoin_query_recorded(&mut group, object, 7, recorders, process)?;
        if idx == cm {
            let covered: u64 = read.parts.iter().flatten().sum();
            if covered != sent_weight[cm] {
                return Err(format!(
                    "post-catch-up parts cover {covered} weight, {} was acknowledged",
                    sent_weight[cm]
                ));
            }
        }
    }

    println!(
        "[rejoin] lag: pre-kill {pre_lag}, downtime {down_lag}, widened {widened_lag} \
         on detection, post-catch-up {post_lag} (bound {bound})"
    );
    println!(
        "[rejoin] converged {:.1} ms after restart; catch-up: {} detected, {} pushed, \
         {} acked, {} weight settled; {held_weight} held weight replayed",
        convergence.as_secs_f64() * 1e3,
        cstats.detected,
        cstats.pushed,
        cstats.acked,
        cstats.settled_weight,
    );

    drop(group);
    drop(reborn.join());
    for h in handles {
        drop(h.join());
    }
    if let (Some(path), Some(recs)) = (&o.history_out, recorders_owned) {
        for (r, rec) in recs.into_iter().enumerate() {
            write_client_history(&format!("{path}.replica{r}"), rec)?;
        }
    }
    if let Some(path) = &o.json {
        let doc = format!(
            "{{\n  \"bench\": \"ivl-service loadgen rejoin\",\n  \"replicas\": {n},\n  \
             \"pre_kill_lag\": {pre_lag},\n  \"downtime_lag\": {down_lag},\n  \
             \"widened_lag\": {widened_lag},\n  \"post_catchup_lag\": {post_lag},\n  \
             \"lag_bound\": {bound},\n  \"convergence_ms\": {:.3},\n  \
             \"held_weight_replayed\": {held_weight},\n  \
             \"catchup\": {{\"detected\": {}, \"pushed\": {}, \"acked\": {}, \
             \"failed\": {}, \"settled_weight\": {}}}\n}}\n",
            convergence.as_secs_f64() * 1e3,
            cstats.detected,
            cstats.pushed,
            cstats.acked,
            cstats.failed,
            cstats.settled_weight,
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// A second, tiny run whose history fits the exact checker's bound.
fn run_exact_check(backend: Backend) -> Result<(), String> {
    let cfg = ServerConfig {
        backend,
        shards: 2,
        record: true,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let workers: Vec<Worker<'_>> = (0..2)
        .map(|t| -> Worker<'_> {
            Box::new(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut cm = client.object_id(0);
                for i in 0..8u64 {
                    cm.update(i % 3, 1 + t).expect("update");
                }
                for key in 0..3u64 {
                    cm.query(key).expect("query");
                }
            })
        })
        .collect();
    timed_scope(workers);
    let joined = handle.join();
    let spec = joined
        .registry
        .cm(0)
        .expect("the default roster is one CountMin")
        .spec();
    let history = joined.history.expect("recording was on");
    let ops = history.operations().len();
    assert!(ops <= MAX_EXACT_OPS, "exact-check run too large: {ops} ops");
    let verdict = check_ivl_exact(std::slice::from_ref(&spec), &history);
    println!(
        "IVL (exact checker, {backend}): {} over {ops} ops",
        verdict.is_ivl()
    );
    if verdict.is_ivl() {
        Ok(())
    } else {
        Err(format!(
            "small {backend} serving history fails the exact IVL check"
        ))
    }
}

fn write_json(o: &Opts, runs: &[RunOutcome]) -> Result<(), String> {
    let Some(path) = &o.json else { return Ok(()) };
    let body: Vec<String> = runs.iter().map(|r| r.json(o.queries)).collect();
    let mix: Vec<String> = o
        .mix
        .iter()
        .map(|e| format!("\"{}={}\"", e.name, e.weight))
        .collect();
    let doc = format!(
        "{{\n  \"bench\": \"ivl-service loadgen\",\n  \"keys\": {},\n  \"batch\": {},\n  \
         \"shards\": {},\n  \"write_buffer\": {},\n  \"mix\": [{}],\n  \"runs\": [\n{}\n  ]\n}}\n",
        o.keys,
        o.batch,
        o.shards,
        o.write_buffer,
        mix.join(", "),
        body.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn run(o: &Opts) -> Result<(), String> {
    if o.rejoin {
        if o.addr.is_some() {
            return Err("--rejoin boots its own in-process replicas; drop --addr".into());
        }
        return run_rejoin(o);
    }
    let mut runs = Vec::new();
    if let Some(addr) = &o.addr {
        if o.replicas > 0 {
            return Err("--replicas boots its own in-process replicas; drop --addr".into());
        }
        runs.push(run_external(o, addr)?);
    } else {
        match o.mode {
            Mode::Single(backend) => {
                runs.push(run_in_process(o, backend, o.threads)?);
                if o.check {
                    run_exact_check(backend)?;
                }
            }
            Mode::Both => {
                let conns = o.threads * COMPARE_CONN_MULTIPLIER;
                runs.push(run_in_process(o, Backend::Threaded, conns)?);
                runs.push(run_in_process(o, Backend::EventLoop, conns)?);
                let (t, e) = (&runs[0], &runs[1]);
                println!(
                    "compare at {conns} conns on {} shards: \
                     batch p99 {} ns (event-loop) vs {} ns (threaded, {} busy \
                     bounces); query p99 {} ns vs {} ns; event-loop busy \
                     rejections: {}",
                    o.shards,
                    e.batch_ns.p99,
                    t.batch_ns.p99,
                    t.stats.busy_rejections,
                    e.query_ns.p99,
                    t.query_ns.p99,
                    e.stats.busy_rejections,
                );
                if e.stats.busy_rejections == 0 && e.batch_ns.p99 <= t.batch_ns.p99 {
                    println!(
                        "compare: event-loop sustained {}x the lease-budget \
                         connections at equal or better ingest p99",
                        conns / o.shards.max(1)
                    );
                }
                if o.check {
                    run_exact_check(Backend::Threaded)?;
                    run_exact_check(Backend::EventLoop)?;
                }
            }
        }
        if o.replicas > 0 {
            let backend = match o.mode {
                Mode::Single(backend) => backend,
                Mode::Both => Backend::Threaded,
            };
            // The N == 1 degenerate group isolates the replication
            // layer's own overhead from the fan-out/merge cost.
            let first = runs.len();
            if o.replicas > 1 {
                runs.push(run_replicated(o, backend, 1)?);
            }
            runs.push(run_replicated(o, backend, o.replicas)?);
            if o.replicas > 1 {
                let (one, many) = (&runs[first], &runs[first + 1]);
                println!(
                    "compare 1 vs {} replicas ({}): batch p99 {} ns -> {} ns, \
                     query p99 {} ns -> {} ns (merge-on-query over {} snapshots); \
                     merged query p50 {} ns vs single-replica {} ns ({:.1}x)",
                    o.replicas,
                    o.replica_mode,
                    one.batch_ns.p99,
                    many.batch_ns.p99,
                    one.query_ns.p99,
                    many.query_ns.p99,
                    o.replicas,
                    many.query_ns.p50,
                    one.query_ns.p50,
                    many.query_ns.p50 as f64 / one.query_ns.p50.max(1) as f64,
                );
            }
        }
    }
    write_json(o, &runs)
}

fn main() -> ExitCode {
    let Some(opts) = parse() else {
        eprintln!(
            "usage: loadgen [--backend threaded|event-loop|both] [--threads N] \
             [--ops N] [--keys N] [--queries N] [--batch N] [--shards N] \
             [--write-buffer B] [--mix cm=8,hll=1,morris=1] [--replicas N] \
             [--mode partition|mirror] [--query-ratio R] [--rejoin] \
             [--addr HOST:PORT] [--json FILE] [--history-out FILE] \
             [--shutdown] [--no-check]"
        );
        return ExitCode::from(1);
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::from(2)
        }
    }
}
