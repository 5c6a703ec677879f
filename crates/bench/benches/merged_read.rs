//! E23: what one quiet merged read costs, per object kind. Three
//! in-process replicas shaped like the repo benchmark's `read-merged`
//! (event-loop backend, one shard, α = 0.005, objects cm / hll / min),
//! warmed with 8 192 distinct keys per object, then `ReplicaGroup::query`
//! on each object with nothing moving, so every replica answers
//! `Unchanged`. A sample is `READS` reads; the time per read is
//! `ms/iter / READS`. Pin it to one CPU (`taskset -c 1`), as the repo
//! benchmark pins itself, to compare builds.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ivl_replica::{ReplicaGroup, ReplicaMode};
use ivl_service::objects::{ObjectConfig, ObjectKind};
use ivl_service::{Backend, ServerConfig};
use std::hint::black_box;

const READS: u64 = 2_000;
const SEED: u64 = 7;

fn bench_merged_reads(c: &mut Criterion) {
    let config = ServerConfig {
        backend: Backend::EventLoop,
        shards: 1,
        alpha: 0.005,
        seed: SEED,
        objects: vec![
            ObjectConfig::new("cm", ObjectKind::CountMin),
            ObjectConfig::new("hll", ObjectKind::Hll),
            ObjectConfig::new("min", ObjectKind::MinRegister),
        ],
        ..ServerConfig::default()
    };
    let replicas: Vec<_> = (0..3)
        .map(|_| ivl_service::serve("127.0.0.1:0", config.clone()).expect("bind a replica"))
        .collect();
    let addrs = replicas.iter().map(|r| r.addr().to_string()).collect();
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, SEED).expect("group");
    let keys: Vec<(u64, u64)> = (0..8_192u64)
        .map(|k| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), 1))
        .collect();
    for frame in keys.chunks(32) {
        for object in 0..3 {
            group.batch(object, frame).expect("warm-up frame");
        }
    }

    let mut reads = c.benchmark_group("merged_read");
    reads
        .sample_size(10)
        .throughput(Throughput::Elements(READS));
    for (object, name) in [(0u32, "cm"), (1, "hll"), (2, "min")] {
        reads.bench_function(name, |b| {
            b.iter(|| {
                for key in 0..READS {
                    black_box(group.query(object, key).expect("merged read"));
                }
            })
        });
    }
    reads.finish();

    drop(group);
    for r in replicas {
        drop(r.join());
    }
}

criterion_group!(benches, bench_merged_reads);
criterion_main!(benches);
