//! `ivl_client`: one-shot commands against a running `ivl_serve`.
//!
//! ```text
//! usage: ivl_client <addr> [--object NAME] <command> [args]
//!   update <key> <weight>     ingest weight occurrences of key
//!   query <key>               estimate + IVL error envelope
//!   batch <key:weight> ...    many updates in one frame
//!   snapshot [--since EPOCH]  mergeable state summary: kind, epoch,
//!                             envelope, and hash fingerprint; with
//!                             --since, the delta against that epoch
//!   objects                   list the server's registered objects
//!   stats                     server counters, latency quantiles, and
//!                             per-object operation rows
//!   shutdown                  drain the server
//!
//! --object NAME routes update/query/batch to a named registered
//! object (default: object 0, the v1-compatible CountMin).
//! ```

use ivl_service::client::Client;
use ivl_service::envelope::ErrorEnvelope;
use ivl_service::{DeltaChange, MergeableState, SnapshotDelta, SnapshotState};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ivl_client <addr> [--object NAME] <update <key> <weight> | query <key> | \
         batch <key:weight>... | snapshot [--since EPOCH] | objects | stats | shutdown>"
    );
    ExitCode::from(1)
}

fn print_envelope(key: u64, env: &ErrorEnvelope) {
    match env {
        ErrorEnvelope::Frequency(env) => println!(
            "key {}: estimate {} (true frequency in [{}, {}] w.p. >= {:.3}; \
             epsilon {} = ceil({:.4} * {}), write-buffer lag {})",
            env.key,
            env.estimate,
            env.lower_bound(),
            env.upper_bound(),
            1.0 - env.delta,
            env.epsilon,
            env.alpha,
            env.stream_len,
            env.lag
        ),
        ErrorEnvelope::Cardinality {
            estimate,
            rel_std_err,
            registers,
            register_sum,
            observed,
        } => println!(
            "cardinality: estimate {estimate:.1} (rel std err {rel_std_err:.4}, \
             {registers} registers, register sum {register_sum}, observed weight {observed})"
        ),
        ErrorEnvelope::ApproxCount {
            estimate,
            a,
            exponent,
            observed,
        } => println!(
            "approximate count: estimate {estimate:.1} (a {a}, exponent {exponent}, \
             acknowledged weight {observed})"
        ),
        ErrorEnvelope::Minimum { minimum, observed } => {
            if *minimum == u64::MAX {
                println!("minimum: empty (observed weight {observed}); queried key {key}");
            } else {
                println!("minimum: {minimum} (observed weight {observed}); queried key {key}");
            }
        }
    }
}

fn state_fingerprint(state: &SnapshotState) -> String {
    match state.fingerprint() {
        Some(fp) => format!("{fp:#018x}"),
        None => "none".into(),
    }
}

fn print_snapshot(delta: &SnapshotDelta, base: u64) {
    println!(
        "object {} [{}] at epoch {}",
        delta.object, delta.kind, delta.epoch
    );
    match &delta.change {
        DeltaChange::Full(state) => match state {
            SnapshotState::CountMin {
                width,
                depth,
                cells,
                ..
            } => {
                let nonzero = cells.iter().filter(|&&c| c != 0).count();
                println!(
                    "  state: full CountMin {depth}x{width} ({nonzero} nonzero cells, \
                     fingerprint {})",
                    state_fingerprint(state)
                );
            }
            SnapshotState::Hll { registers, .. } => {
                let set = registers.iter().filter(|&&r| r != 0).count();
                println!(
                    "  state: full HLL ({} registers, {set} set, fingerprint {})",
                    registers.len(),
                    state_fingerprint(state)
                );
            }
            SnapshotState::Morris { exponent } => {
                println!("  state: full Morris exponent {exponent} (fingerprint none)");
            }
            SnapshotState::MinRegister { minimum } => {
                if *minimum == u64::MAX {
                    println!("  state: full min register, empty (fingerprint none)");
                } else {
                    println!("  state: full min register, minimum {minimum} (fingerprint none)");
                }
            }
        },
        DeltaChange::Unchanged => println!("  state: unchanged since epoch {base}"),
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
        }
    }
    match &delta.envelope {
        ErrorEnvelope::Frequency(env) => println!(
            "  envelope: epsilon {} = ceil({:.4} * {}) w.p. >= {:.3}, write-buffer lag {}",
            env.epsilon,
            env.alpha,
            env.stream_len,
            1.0 - env.delta,
            env.lag
        ),
        ErrorEnvelope::Cardinality {
            rel_std_err,
            registers,
            register_sum,
            observed,
            ..
        } => println!(
            "  envelope: rel std err {rel_std_err:.4}, {registers} registers \
             (sum {register_sum}), observed weight {observed}"
        ),
        ErrorEnvelope::ApproxCount {
            a,
            exponent,
            observed,
            ..
        } => println!(
            "  envelope: Morris a {a}, exponent {exponent}, acknowledged weight {observed}"
        ),
        ErrorEnvelope::Minimum { minimum, observed } => {
            if *minimum == u64::MAX {
                println!("  envelope: minimum empty, observed weight {observed}");
            } else {
                println!("  envelope: minimum {minimum}, observed weight {observed}");
            }
        }
    }
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
        Some(name) => Some(client.object(name).map_err(|e| e.to_string())?.id()),
        None => None,
    };
    match (command.as_str(), cmd_args) {
        ("update", [key, weight]) => {
            let key = key.parse().map_err(|_| "bad key")?;
            let weight = weight.parse().map_err(|_| "bad weight")?;
            let applied = match object {
                Some(id) => client.object_id(id).update(key, weight),
                None => client.update(key, weight),
            }
            .map_err(|e| e.to_string())?;
            println!("ack: {applied} updates applied on this connection");
        }
        ("query", [key]) => {
            let key = key.parse().map_err(|_| "bad key")?;
            let env = client
                .object_id(object.unwrap_or(0))
                .query(key)
                .map_err(|e| e.to_string())?;
            print_envelope(key, &env);
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
            let applied = match object {
                Some(id) => client.object_id(id).batch(&pairs),
                None => client.batch(&pairs),
            }
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
            // never-an-epoch sentinel base always answers a full state
            // and, unlike plain `SNAPSHOT`, carries the object epoch.
            let (_, in0) = client.wire_bytes();
            let delta = client
                .snapshot_since(object.unwrap_or(0), since)
                .map_err(|e| e.to_string())?;
            print_snapshot(&delta, since);
            // The bucket a replica group's `DeltaStats` would count
            // this reply in, and what it cost on the wire.
            let (bucket, cells) = match &delta.change {
                DeltaChange::Unchanged => ("unchanged", 0),
                DeltaChange::Full(SnapshotState::CountMin { cells, .. }) => ("full", cells.len()),
                DeltaChange::Full(SnapshotState::Hll { registers, .. }) => {
                    ("full", registers.len())
                }
                DeltaChange::Full(_) => ("full", 1),
                DeltaChange::CmRuns { values, .. } => ("delta", values.len()),
            };
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
