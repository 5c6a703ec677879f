//! The four workloads: what is booted, who sends what, at which pace.
//! Names are fixed; later issues cite them.

use crate::gen::{frame, Frame, Inputs, KeyStream, Op, Pacing, Plan, Rng};
use crate::sut::{BackendChoice, Kind, ServerSpec, MAX_FRAME_ITEMS};

/// How a workload's client threads reach the servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// One `Client` connection per thread to the single server.
    Direct,
    /// One `ReplicaGroup` per thread over all the servers.
    Group,
}

/// One workload, ready to run.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub servers: Vec<ServerSpec>,
    pub via: Via,
    pub inputs: Inputs,
}

impl Workload {
    /// The roster's length (the same on every server of a workload).
    pub fn objects(&self) -> usize {
        self.servers[0].objects.len()
    }

    /// Every roster ends with a min register that only the round-trip
    /// floor probe of the traced pass queries.
    pub fn probe_object(&self) -> u32 {
        self.objects() as u32 - 1
    }
}

/// `(name, why)`, in the order the set runs them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest-bulk",
        "4096-item frames into a 1 MiB-per-shard CountMin: hashing, batch kernel and batch decode dominate, the server does little",
    ),
    (
        "serve-mixed",
        "open loop, 8000 small ops/s at a third of capacity: socket, wakeup, route, lease and encode dominate; bypasses the kernels",
    ),
    (
        "read-merged",
        "merged reads over 3 quiet replicas: per-replica round-trip handling in replica and server; bytes and merge are idle",
    ),
    (
        "churn-merged",
        "write-then-read over 3 replicas: every read finds moved epochs, so deltas, dirty spans, merge and compose do real work",
    ),
];

/// Zipf exponent of every key stream.
const ZIPF_S: f64 = 1.1;
/// Key universe of `ingest-bulk`.
const BULK_KEYS: u64 = 1 << 20;
/// Key universe of the small-message workloads.
const SERVING_KEYS: u64 = 1 << 16;
/// Items per frame of the small-message workloads.
const SMALL_FRAME: usize = 32;
/// Keys the correctness gate samples.
const GATE_KEYS: usize = 1000;
/// Total open-loop rate of `serve-mixed`, operations per second.
const SERVE_MIXED_OPS_PER_S: u64 = 8000;
/// Rate of the trickle ingester of `read-merged`, frames per second.
const TRICKLE_FRAMES_PER_S: u64 = 100;

fn server(
    backend: BackendChoice,
    shards: usize,
    alpha: f64,
    objects: &[(&'static str, Kind)],
) -> ServerSpec {
    ServerSpec {
        backend,
        shards,
        alpha,
        delta: 0.01,
        objects: objects.to_vec(),
    }
}

/// Distinct keys for the gate, drawn from the workload's key universe
/// so that hot and cold keys are both sampled.
fn gate_keys(keys: u64, universe: u64, seed: u64) -> Vec<u64> {
    let mut stream = KeyStream::new(keys, ZIPF_S, universe, seed ^ 0x6a7e);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(GATE_KEYS);
    while out.len() < GATE_KEYS {
        let k = stream.next_key();
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// Picks an object id by cumulative weight.
fn pick(rng: &mut Rng, weights: &[(u32, u64)]) -> u32 {
    let total: u64 = weights.iter().map(|&(_, w)| w).sum();
    let mut at = rng.below(total);
    for &(object, w) in weights {
        if at < w {
            return object;
        }
        at -= w;
    }
    unreachable!("weights sum to total")
}

/// Builds workload `name` from `seed` for `threads` client threads
/// (`min(2, CPUs the run may use)`; `read-merged` always has one).
pub fn build(name: &str, seed: u64, backend: BackendChoice, threads: usize) -> Option<Workload> {
    let universe = seed;
    let stream = |keys, actor: usize, role: u64| {
        KeyStream::new(
            keys,
            ZIPF_S,
            universe,
            seed ^ (role << 32) ^ (actor as u64 + 1),
        )
    };
    match name {
        "ingest-bulk" => {
            // One CountMin at alpha = 1e-4: 27183 x 5 cells, about
            // 1 MiB per shard, beyond L2. Two shards, at most two
            // connections, so no lease ever bounces.
            const FRAMES_PER_ACTOR: usize = 64;
            const WRITES_PER_READ: usize = 8;
            let mut frames: Vec<Frame> = Vec::new();
            let mut plans = Vec::new();
            for actor in 0..threads {
                let mut keys = stream(BULK_KEYS, actor, 1);
                let mut query_keys = stream(BULK_KEYS, actor, 2);
                let mut ops = Vec::new();
                for i in 0..FRAMES_PER_ACTOR {
                    ops.push(Op::Write {
                        frame: frames.len() as u32,
                    });
                    frames.push(frame(&mut keys, 0, MAX_FRAME_ITEMS));
                    if (i + 1) % WRITES_PER_READ == 0 {
                        // A light query stream, so that every answer
                        // this workload gives is also timed and gated.
                        ops.push(Op::Read {
                            object: 0,
                            key: query_keys.next_key(),
                        });
                    }
                }
                plans.push(Plan {
                    ops,
                    pacing: Pacing::Closed,
                    trickle: None,
                });
            }
            Some(Workload {
                name: "ingest-bulk",
                servers: vec![server(
                    backend,
                    2,
                    1e-4,
                    &[("cm", Kind::CountMin), ("min", Kind::Min)],
                )],
                via: Via::Direct,
                inputs: Inputs {
                    frames,
                    plans,
                    gate_keys: gate_keys(BULK_KEYS, universe, seed),
                },
            })
        }
        "serve-mixed" => {
            // The serving defaults, the smallest realistic messages,
            // at a fixed rate about a third of what this path sustains.
            const OPS_PER_ACTOR: usize = 4096;
            let mix = [(0, 8), (1, 1), (2, 1), (3, 1)];
            let period_ns = 1_000_000_000 * threads as u64 / SERVE_MIXED_OPS_PER_S;
            let mut frames = Vec::new();
            let mut plans = Vec::new();
            for actor in 0..threads {
                let mut rng = Rng::new(seed ^ (3 << 32) ^ (actor as u64 + 1));
                let mut keys = stream(SERVING_KEYS, actor, 1);
                let mut query_keys = stream(SERVING_KEYS, actor, 2);
                let mut ops = Vec::new();
                for i in 0..OPS_PER_ACTOR {
                    let object = pick(&mut rng, &mix);
                    // Four updates, then a query: the shares are exact,
                    // so the scheduled rates do not move with the seed.
                    if i % 5 < 4 {
                        ops.push(Op::Write {
                            frame: frames.len() as u32,
                        });
                        frames.push(frame(&mut keys, object, SMALL_FRAME));
                    } else {
                        ops.push(Op::Read {
                            object,
                            key: query_keys.next_key(),
                        });
                    }
                }
                plans.push(Plan {
                    ops,
                    pacing: Pacing::Open {
                        period_ns,
                        phase_ns: period_ns * actor as u64 / threads as u64,
                    },
                    trickle: None,
                });
            }
            Some(Workload {
                name: "serve-mixed",
                servers: vec![server(
                    backend,
                    2,
                    0.005,
                    &[
                        ("cm", Kind::CountMin),
                        ("hll", Kind::Hll),
                        ("morris", Kind::Morris),
                        ("min", Kind::Min),
                    ],
                )],
                via: Via::Direct,
                inputs: Inputs {
                    frames,
                    plans,
                    gate_keys: gate_keys(SERVING_KEYS, universe, seed),
                },
            })
        }
        "read-merged" | "churn-merged" => {
            const OPS_PER_ACTOR: usize = 1024;
            let mix = [(0, 7), (1, 1)];
            let mut frames = Vec::new();
            let churn = name == "churn-merged";
            // `write(i)` says whether operation `i` of a list is an
            // update; queries make up the rest.
            let mut script = |actor: usize, role: u64, write: &dyn Fn(usize) -> bool| {
                let mut rng = Rng::new(seed ^ ((3 + role) << 32) ^ (actor as u64 + 1));
                let mut keys = stream(SERVING_KEYS, actor, 1 + 2 * role);
                let mut query_keys = stream(SERVING_KEYS, actor, 2 + 2 * role);
                let mut ops = Vec::new();
                for i in 0..OPS_PER_ACTOR {
                    let object = pick(&mut rng, &mix);
                    if write(i) {
                        ops.push(Op::Write {
                            frame: frames.len() as u32,
                        });
                        frames.push(frame(&mut keys, object, SMALL_FRAME));
                    } else {
                        ops.push(Op::Read {
                            object,
                            key: query_keys.next_key(),
                        });
                    }
                }
                ops
            };
            let plans = if churn {
                // Every thread alternates update, query.
                (0..threads)
                    .map(|actor| Plan {
                        ops: script(actor, 0, &|i| i % 2 == 0),
                        pacing: Pacing::Closed,
                        trickle: None,
                    })
                    .collect()
            } else {
                // One thread: a closed loop of queries, with the trickle
                // of update frames woven in. (On one CPU a second thread
                // would measure the scheduler's time slices, not the
                // system: a sleeper queues behind four runnable threads.)
                vec![Plan {
                    ops: script(0, 0, &|_| false),
                    pacing: Pacing::Closed,
                    trickle: Some((
                        script(0, 1, &|_| true),
                        1_000_000_000 / TRICKLE_FRAMES_PER_S,
                    )),
                }]
            };
            let replica = server(
                backend,
                1,
                0.005,
                &[
                    ("cm", Kind::CountMin),
                    ("hll", Kind::Hll),
                    ("min", Kind::Min),
                ],
            );
            Some(Workload {
                name: if churn { "churn-merged" } else { "read-merged" },
                servers: vec![replica.clone(), replica.clone(), replica],
                via: Via::Group,
                inputs: Inputs {
                    frames,
                    plans,
                    gate_keys: gate_keys(SERVING_KEYS, universe, seed),
                },
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for (name, _) in WORKLOADS {
            let a = build(name, 42, BackendChoice::EventLoop, 2).unwrap();
            let b = build(name, 42, BackendChoice::EventLoop, 2).unwrap();
            assert_eq!(a.inputs.to_bytes(), b.inputs.to_bytes(), "{name}");
            let c = build(name, 43, BackendChoice::EventLoop, 2).unwrap();
            assert_ne!(a.inputs.fingerprint(), c.inputs.fingerprint(), "{name}");
        }
        assert!(build("no-such", 1, BackendChoice::EventLoop, 2).is_none());
    }

    #[test]
    fn plans_have_the_shape_the_readme_states() {
        let count = |w: &Workload, actor: usize| {
            let ops = &w.inputs.plans[actor].ops;
            let writes = ops.iter().filter(|o| matches!(o, Op::Write { .. })).count();
            (writes, ops.len() - writes)
        };
        let bulk = build("ingest-bulk", 7, BackendChoice::EventLoop, 2).unwrap();
        assert_eq!(count(&bulk, 0), (64, 8));
        assert!(bulk
            .inputs
            .frames
            .iter()
            .all(|f| f.items.len() == 4096 && f.object == 0));
        assert_eq!(bulk.probe_object(), 1);

        let mixed = build("serve-mixed", 7, BackendChoice::EventLoop, 2).unwrap();
        let (w, r) = count(&mixed, 0);
        assert_eq!((w, r), (3277, 819));
        assert_eq!(
            mixed.inputs.plans[1].pacing,
            Pacing::Open {
                period_ns: 250_000,
                phase_ns: 125_000
            }
        );

        let read = build("read-merged", 7, BackendChoice::EventLoop, 2).unwrap();
        assert_eq!(read.inputs.plans.len(), 1);
        assert_eq!(count(&read, 0), (0, 1024));
        let (trickle, period_ns) = read.inputs.plans[0].trickle.as_ref().unwrap();
        assert_eq!(*period_ns, 10_000_000);
        assert!(trickle.iter().all(|o| matches!(o, Op::Write { .. })));
        assert_eq!(read.inputs.frames.len(), 1024);
        assert_eq!(read.servers.len(), 3);

        let churn = build("churn-merged", 7, BackendChoice::EventLoop, 2).unwrap();
        assert_eq!(count(&churn, 1), (512, 512));
        for w in [&bulk, &mixed, &read, &churn] {
            assert_eq!(w.inputs.gate_keys.len(), 1000);
        }
    }
}
