//! `ivl_replicate`: a replication frontend speaking the ordinary
//! `ivl-service` wire protocol, backed by N `ivl_serve` replicas.
//!
//! ```text
//! usage: ivl_replicate [addr] --replica ADDR [--replica ADDR]...
//!                      [--mode partition|mirror] [--seed N]
//!   addr          listen address (default 127.0.0.1:7272; port 0 picks one)
//!   --replica     a backend ivl_serve address (repeatable, >= 1)
//!   --mode        partition (default): each update routed to one
//!                 replica by key hash; mirror: fanned to all
//!   --seed        the replicas' --seed (1): rebuilds the hash
//!                 prototypes used to merge their snapshots
//! ```
//!
//! Argument parsing plus one call: `ivl_replica::serve_group` serves one
//! `ReplicaGroup`, shared by every client connection, through the same
//! frame step as `ivl_serve`. Clients connect as if to one server and
//! get merged answers under the composed IVL envelope; `SNAPSHOT_SINCE`
//! answers `Unchanged` while the merge has not moved, so groups stack on
//! frontends. A dead replica widens answers instead of failing them and
//! is probed once per backoff window. Mismatched replica coins, and any
//! `PUSH_STATE`, get a typed `merge-mismatch` error. `SHUTDOWN`
//! propagates to every reachable replica; then the frontend drains like
//! `ivl_serve`, serving open connections until they hang up.

use ivl_replica::{serve_group, ReplicaGroup, ReplicaMode};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ivl_replicate [addr] --replica ADDR [--replica ADDR]... \
         [--mode partition|mirror] [--seed N]"
    );
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7272".to_owned();
    let mut replicas: Vec<String> = Vec::new();
    let mut mode = ReplicaMode::Partition;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let ok = match arg.as_str() {
            "--replica" => args.next().map(|v| replicas.push(v)).is_some(),
            "--mode" => args
                .next()
                .and_then(|v| v.parse().ok())
                .map(|m| mode = m)
                .is_some(),
            "--seed" => args
                .next()
                .and_then(|v| v.parse().ok())
                .map(|n| seed = n)
                .is_some(),
            other if !other.starts_with('-') => {
                addr = other.to_owned();
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad or incomplete argument {arg:?}");
            return usage();
        }
    }
    let Ok(group) = ReplicaGroup::new(replicas.clone(), mode, seed) else {
        eprintln!("need at least one --replica");
        return usage();
    };
    let handle = match serve_group(&addr, group) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "ivl_replicate listening on {} [{mode} mode] over {} replicas [{}] (seed {seed})",
        handle.addr(),
        replicas.len(),
        replicas.join(", ")
    );
    handle.wait_for_shutdown();
    let frames = handle.join().stats.frames;
    eprintln!("ivl_replicate: drained after serving {frames} frames");
    ExitCode::SUCCESS
}
