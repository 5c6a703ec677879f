//! `ivl_serve`: run a sketch server until a client sends `SHUTDOWN`.
//!
//! ```text
//! usage: ivl_serve [addr] [--backend threaded|event-loop] [--shards N]
//!                  [--alpha A] [--delta D] [--max-conns N] [--record]
//!                  [--write-buffer B] [--seed N] [--object NAME=KIND]...
//!   addr           listen address (default 127.0.0.1:7070; port 0 picks one)
//!   --backend      serving backend: "threaded" (default, one thread per
//!                  connection) or "event-loop" (epoll reactor shards)
//!   --shards       sketch shards == max concurrent ingest connections
//!                  (threaded) or reactor threads (event-loop) (8)
//!   --alpha        CountMin relative error (0.005)
//!   --delta        CountMin failure probability (0.01)
//!   --max-conns    connection limit (64)
//!   --record       record the full history; on drain, check each
//!                  object's projection IVL against its own spec
//!   --write-buffer writer-local batch size b (0 = off): coalesce up to
//!                  b update weight per writer before touching the
//!                  shared CountMin; envelopes widen by lag = shards*b
//!   --seed         coin-flip seed for the objects' hash functions (1).
//!                  Replicas that should merge (ivl_replicate) must
//!                  share a seed and an object roster.
//!   --object       register a named object (repeatable), in id order
//!                  from 0. KIND is one of cm|hll|morris|min. Without
//!                  any --object the roster is one CountMin, "cm=cm".
//! ```

use ivl_service::objects::{ObjectConfig, ObjectKind};
use ivl_service::server::{serve, ServerConfig};
use ivl_sketch::countmin::CountMinParams;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ivl_serve [addr] [--backend threaded|event-loop] [--shards N] \
         [--alpha A] [--delta D] [--max-conns N] [--record] [--write-buffer B] \
         [--seed N] [--object NAME=KIND]..."
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7070".to_owned();
    let mut cfg = ServerConfig::default();
    let mut objects: Vec<ObjectConfig> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("{what} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--backend" => match take("--backend").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.backend = v,
                None => return usage(),
            },
            "--shards" => match take("--shards").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.shards = v,
                None => return usage(),
            },
            "--alpha" => match take("--alpha").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.alpha = v,
                None => return usage(),
            },
            "--delta" => match take("--delta").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.delta = v,
                None => return usage(),
            },
            "--max-conns" => match take("--max-conns").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_connections = v,
                None => return usage(),
            },
            "--write-buffer" => match take("--write-buffer").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.write_buffer = v,
                None => return usage(),
            },
            "--seed" => match take("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage(),
            },
            "--object" => match take("--object").map(|v| v.parse()) {
                Some(Ok(v)) => objects.push(v),
                Some(Err(e)) => {
                    eprintln!("--object: {e}");
                    return usage();
                }
                None => return usage(),
            },
            "--record" => cfg.record = true,
            "--help" | "-h" => return usage(),
            other if !other.starts_with('-') => addr = other.to_owned(),
            _ => return usage(),
        }
    }
    if !objects.is_empty() {
        cfg.objects = objects;
    }
    let params = CountMinParams::for_bounds(cfg.alpha, cfg.delta);
    let backend = cfg.backend;
    let write_buffer = cfg.write_buffer;
    let roster: Vec<String> = cfg
        .objects
        .iter()
        .enumerate()
        .map(|(id, o)| match o.kind {
            ObjectKind::CountMin => format!(
                "{id}:{}={} (width {}, depth {}, alpha {:.4}, delta {:.4})",
                o.name,
                o.kind,
                params.width,
                params.depth,
                params.alpha(),
                params.delta()
            ),
            _ => format!("{id}:{}={}", o.name, o.kind),
        })
        .collect();
    let handle = match serve(&addr, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "ivl_serve listening on {} [{} backend] (write-buffer {}) objects [{}]",
        handle.addr(),
        backend,
        write_buffer,
        roster.join(", ")
    );
    handle.wait_for_shutdown();
    let joined = handle.join();
    let s = &joined.stats;
    println!(
        "drained: {} conns ({} rejected), {} updates, {} queries, {} batches, \
         stream {}, update p50/p99 {}/{} ns, query p50/p99 {}/{} ns",
        s.accepted,
        s.rejected,
        s.updates,
        s.queries,
        s.batches,
        s.stream_len,
        s.update_p50_ns,
        s.update_p99_ns,
        s.query_p50_ns,
        s.query_p99_ns
    );
    if let Some(verdicts) = joined.verdicts() {
        let events = joined
            .history
            .as_ref()
            .map(|h| h.events().len())
            .unwrap_or(0);
        println!("recorded history: {events} events; per-object verdicts (Theorem 1 locality):");
        let mut failed = false;
        for v in &verdicts {
            let shown = match v.ivl {
                Some(true) => "IVL",
                Some(false) => {
                    failed = true;
                    "VIOLATION"
                }
                None => "waived",
            };
            println!(
                "  object {} {:10} [{:6}] {:4} ops: {:9}  ({})",
                v.id, v.name, v.kind, v.ops, shown, v.note
            );
        }
        if failed {
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
