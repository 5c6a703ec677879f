//! `ivl_client`: one-shot commands against a running `ivl_serve`.
//!
//! ```text
//! usage: ivl_client <addr> [--object NAME] <command> [args]
//!   update <key> <weight>     ingest weight occurrences of key (a
//!                             one-item batch frame)
//!   query <key>               estimate + IVL error envelope
//!   batch <key:weight> ...    many updates in one frame
//!   snapshot [--since EPOCH]  mergeable state summary: kind, epoch,
//!                             envelope, and hash fingerprint; with
//!                             --since, the delta against that epoch
//!   objects                   list the server's registered objects
//!   stats                     server counters, latency quantiles, and
//!                             per-object operation rows; `batches`
//!                             counts write frames (an update is one),
//!                             `updates` the items they carried
//!   shutdown                  drain the server
//!
//! --object NAME routes update/query/batch/snapshot to a named
//! registered object (default: object 0, whatever its kind).
//! ```

use ivl_service::client::Client;
use ivl_service::DeltaChange;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ivl_client <addr> [--object NAME] <update <key> <weight> | query <key> | \
         batch <key:weight>... | snapshot [--since EPOCH] | objects | stats | shutdown>"
    );
    ExitCode::from(1)
}

fn run(args: &[String]) -> Result<(), String> {
    let mut client = Client::connect(&args[0]).map_err(|e| e.to_string())?;
    let mut rest = &args[1..];
    let mut object: Option<&str> = None;
    if let [flag, name, tail @ ..] = rest {
        if flag == "--object" {
            object = Some(name.as_str());
            rest = tail;
        }
    }
    let Some((command, cmd_args)) = rest.split_first() else {
        return Err("missing command".into());
    };
    // Resolve the object roster once; --object addresses by wire id
    // from then on, so the lookup costs one extra roundtrip total.
    let object = match object {
        Some(name) => client.object(name).map_err(|e| e.to_string())?.id(),
        None => 0,
    };
    match (command.as_str(), cmd_args) {
        ("update", [key, weight]) => {
            let key = key.parse().map_err(|_| "bad key")?;
            let weight = weight.parse().map_err(|_| "bad weight")?;
            let applied = client
                .object_id(object)
                .update(key, weight)
                .map_err(|e| e.to_string())?;
            println!("ack: {applied} updates applied on this connection");
        }
        ("query", [key]) => {
            let key = key.parse().map_err(|_| "bad key")?;
            let env = client
                .object_id(object)
                .query(key)
                .map_err(|e| e.to_string())?;
            println!("{env}");
        }
        ("batch", items) if !items.is_empty() => {
            let mut pairs = Vec::with_capacity(items.len());
            for item in items {
                let (k, w) = item.split_once(':').ok_or("batch items are key:weight")?;
                pairs.push((
                    k.parse().map_err(|_| "bad key")?,
                    w.parse().map_err(|_| "bad weight")?,
                ));
            }
            let applied = client
                .object_id(object)
                .batch(&pairs)
                .map_err(|e| e.to_string())?;
            println!("ack: {applied} updates applied on this connection");
        }
        ("snapshot", rest) => {
            let since = match rest {
                [] => u64::MAX,
                [flag, epoch] if flag == "--since" => {
                    epoch.parse().map_err(|_| "bad --since epoch")?
                }
                _ => return Err("snapshot takes no arguments or --since EPOCH".into()),
            };
            // One code path for both shapes: `SNAPSHOT_SINCE` with the
            // never-an-epoch sentinel base always answers a full state,
            // and every reply carries the object epoch.
            let (_, in0) = client.wire_bytes();
            let delta = client
                .object_id(object)
                .snapshot_since(since)
                .map_err(|e| e.to_string())?;
            println!(
                "object {} [{}] at epoch {}",
                delta.object, delta.kind, delta.epoch
            );
            // The bucket a replica group's `DeltaStats` would count
            // this reply in, and what it cost on the wire.
            let (bucket, cells) = match &delta.change {
                DeltaChange::Unchanged => {
                    println!("  state: unchanged since epoch {since}");
                    ("unchanged", 0)
                }
                DeltaChange::CmRuns {
                    base_epoch,
                    runs,
                    values,
                } => {
                    println!(
                        "  state: {} CountMin overwrite runs ({} cells) against epoch {base_epoch}",
                        runs.len(),
                        values.len()
                    );
                    ("delta", values.len())
                }
                DeltaChange::Full(state) => {
                    println!("  state: full {state}");
                    ("full", state.cell_count())
                }
            };
            println!("  envelope: {}", delta.envelope);
            println!(
                "  reply: {bucket}, {cells} cells, {} B on the wire",
                client.wire_bytes().1 - in0
            );
        }
        ("objects", []) => {
            let infos = client.objects().map_err(|e| e.to_string())?;
            println!("{} registered objects:", infos.len());
            for info in infos {
                println!("  {} {} [{}]", info.id, info.name, info.kind);
            }
        }
        ("stats", []) => {
            let s = client.stats().map_err(|e| e.to_string())?;
            println!(
                "connections: {} accepted, {} rejected, {} active\n\
                 operations : {} updates, {} queries, {} batches, \
                 {} protocol errors, {} busy rejections\n\
                 transport  : {} frames, {} wakeups (ready peak {})\n\
                 stream     : {} total weight\n\
                 buffering  : {} weight pending in writer buffers, {} flushes\n\
                 latency    : update p50/p99 {}/{} ns, query p50/p99 {}/{} ns",
                s.accepted,
                s.rejected,
                s.active,
                s.updates,
                s.queries,
                s.batches,
                s.protocol_errors,
                s.busy_rejections,
                s.frames,
                s.wakeups,
                s.ready_peak,
                s.stream_len,
                s.buffered_pending,
                s.flushes,
                s.update_p50_ns,
                s.update_p99_ns,
                s.query_p50_ns,
                s.query_p99_ns
            );
            for row in &s.objects {
                println!(
                    "object {}  : {} updates, {} queries, {} observed weight",
                    row.id, row.updates, row.queries, row.observed
                );
            }
        }
        ("shutdown", []) => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server draining");
        }
        _ => return Err("unknown command".into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return usage();
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
