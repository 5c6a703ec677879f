//! E19: single-writer ingest hot path — strict `Pcm` vs `ShardedPcm`
//! vs `BufferedPcm` across the batch-bound sweep b ∈ {1, 8, 64, 256}.
//!
//! One thread ingests a pre-generated Zipf stream; only the ingest
//! loop (plus, for the buffered sketch, the final flush) is timed, so
//! the numbers isolate the update path: hash + d atomic `fetch_add`s
//! for strict, a one-entry sweep for sharded, a coalescing-table insert
//! and amortized propagation for buffered. The `buffered_lease` and
//! `batch32_buf64` rows run the served CountMin write path: a lease
//! plus a scratch kept across frames as the write buffer. The
//! `frame4096` row is the benchmark's `ingest-bulk` frame shape without
//! the socket, and `fastmod_rem` times the row hash's `% w` alone.
//! Committed results live in `BENCH_core.json`.
//!
//! Beyond the usual criterion CLI, this bench accepts:
//!
//! ```text
//!   --quick       smaller stream + 3 samples (CI smoke)
//!   --json FILE   write the measured table as JSON (BENCH_core.json)
//!   --enforce     exit 1 if buffered b=64 ingests below 0.6x strict, or
//!                 batch32/z=1.5 below 1.0x per_item/z=1.5
//! ```

use criterion::{BenchmarkId, Criterion, Throughput};
use ivl_concurrent::{BatchScratch, BufferedPcm, ConcurrentSketch, Pcm, ShardedPcm, SketchHandle};
use ivl_service::protocol::MAX_BATCH_ITEMS;
use ivl_sketch::countmin::CountMinParams;
use ivl_sketch::hash::{FastMod, MixHash};
use ivl_sketch::stream::ZipfStream;
use ivl_sketch::CoinFlips;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ALPHABET: usize = 10_000;
const ZIPF_S: f64 = 1.1;
const SHARDS: usize = 4;
const BATCHES: [u64; 4] = [1, 8, 64, 256];
/// Wire-batch size for the E20 batch-kernel comparison — the loadgen
/// default, so the measured ratio is the serving-path speedup.
const FRAME: usize = 32;
/// Key alphabet for the E20 batch-kernel comparison: loadgen's default
/// (`--keys 512`), not this bench's 10k E19 alphabet — the kernel's
/// coalescing win scales with the duplicate rate inside a frame, so
/// the honest measurement uses the key distribution the wire actually
/// carries.
const FRAME_ALPHABET: usize = 512;
/// Zipf exponent of the hot-key regime the batch kernel is built for
/// (the same z=1.5 that makes the buffered coalescing win visible in
/// the skew group below). A 32-item frame at z=1.5 carries ~0.41
/// distinct keys per item, versus ~0.67 at the serving default z=1.1 —
/// and since the kernel's win is proportional to the in-frame
/// duplicate rate (break-even sits near 0.7 distinct), the enforced
/// pair measures this regime while the serving-default pair is
/// reported alongside it (see EXPERIMENTS E20 for both).
const FRAME_HOT_S: f64 = 1.5;
/// Key alphabet of the `frame4096` row: the benchmark's `ingest-bulk`
/// universe.
const BULK_KEYS: usize = 1 << 20;

fn params() -> CountMinParams {
    // α ≈ 0.1%, δ ≈ 1%: the dimensions a production deployment uses.
    CountMinParams::for_bounds(0.001, 0.01)
}

fn stream(n: usize, seed: u64) -> Vec<u64> {
    skewed_stream(n, ZIPF_S, seed)
}

fn skewed_stream(n: usize, s: f64, seed: u64) -> Vec<u64> {
    ZipfStream::new(ALPHABET, s, seed).take(n).collect()
}

/// A served CountMin writer's scratch: sized, like the server's, for
/// the largest wire frame.
fn writer_scratch() -> BatchScratch {
    BatchScratch::with_capacity(params().depth, MAX_BATCH_ITEMS as usize)
}

/// The served CountMin write path at batch bound `b`: a shard lease,
/// each frame buffered into the writer's scratch and swept into the
/// lease, then the final sweep a returning lease performs.
fn buffered_lease<F: AsRef<[(u64, u64)]>>(
    sketch: &ShardedPcm,
    scratch: &mut BatchScratch,
    b: u64,
    frames: impl IntoIterator<Item = F>,
) {
    let mut lease = sketch.lease().expect("a free shard per writer");
    for frame in frames {
        scratch.buffer(sketch.hashes(), frame.as_ref(), b, |s| {
            lease.sweep(s);
        });
    }
    lease.sweep(scratch);
}

/// Times `iters` fresh-sketch ingest passes over `items`, timing only
/// what `ingest` does (construction and stream generation excluded).
fn timed_passes(
    iters: u64,
    items: &[u64],
    mut ingest: impl FnMut(&mut CoinFlips, &[u64]) -> Duration,
) -> Duration {
    let mut total = Duration::ZERO;
    for k in 0..iters {
        let mut coins = CoinFlips::from_seed(k);
        total += ingest(&mut coins, items);
    }
    total
}

fn bench_hot_path(c: &mut Criterion, n: usize) {
    let items = stream(n, 42);
    let mut group = c.benchmark_group("sketch_hot_path");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));

    group.bench_function("strict", |b| {
        b.iter_custom(|iters| {
            timed_passes(iters, &items, |coins, items| {
                let pcm = Pcm::new(params(), coins);
                let start = Instant::now();
                for &i in items {
                    pcm.update(i);
                }
                start.elapsed()
            })
        });
    });

    group.bench_function(BenchmarkId::new("sharded", format!("s={SHARDS}")), |b| {
        b.iter_custom(|iters| {
            timed_passes(iters, &items, |coins, items| {
                let sketch = ShardedPcm::new(params(), SHARDS, coins);
                let mut h = sketch.handle();
                let start = Instant::now();
                for &i in items {
                    h.update(i);
                }
                start.elapsed()
            })
        });
    });

    for batch in BATCHES {
        group.bench_function(BenchmarkId::new("buffered", format!("b={batch}")), |b| {
            b.iter_custom(|iters| {
                timed_passes(iters, &items, |coins, items| {
                    let sketch = BufferedPcm::new(params(), batch, coins);
                    let mut h = sketch.handle();
                    let start = Instant::now();
                    for &i in items {
                        h.update(i);
                    }
                    // The final propagation is part of the ingest
                    // cost: queries must be able to see the stream.
                    h.flush();
                    start.elapsed()
                })
            });
        });
    }

    // The service's actual write path, one update per frame: the
    // lease's SWMR cells take a plain load+store instead of a
    // lock-prefixed `fetch_add`.
    for batch in BATCHES {
        group.bench_function(
            BenchmarkId::new("buffered_lease", format!("b={batch}")),
            |b| {
                b.iter_custom(|iters| {
                    timed_passes(iters, &items, |coins, items| {
                        let sketch = ShardedPcm::new(params(), SHARDS, coins);
                        let mut scratch = writer_scratch();
                        let start = Instant::now();
                        let frames = items.iter().map(|&i| [(i, 1)]);
                        buffered_lease(&sketch, &mut scratch, batch, frames);
                        start.elapsed()
                    })
                });
            },
        );
    }
    group.finish();
}

/// E20: the batch ingest kernels vs the per-item loop, on Zipf streams
/// chunked into wire-sized frames of [`FRAME`]. The kernels coalesce
/// duplicate keys within each frame, hash each distinct key once, and
/// touch cells row-major with prefetch — the exact code `BATCH2`
/// frames take through both serving backends. Two regimes run: the
/// hot-key regime ([`FRAME_HOT_S`], the enforced pair) where in-frame
/// duplicates are plentiful, and the serving default ([`ZIPF_S`]),
/// which sits at the coalescing break-even and is reported for
/// honesty, not enforced.
fn bench_batch_kernel(c: &mut Criterion, n: usize) {
    let mut group = c.benchmark_group("sketch_batch_kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));

    for (tag, s) in [("z=1.5", FRAME_HOT_S), ("z=1.1", ZIPF_S)] {
        let items: Vec<u64> = ZipfStream::new(FRAME_ALPHABET, s, 45).take(n).collect();
        let frames: Vec<Vec<(u64, u64)>> = items
            .chunks(FRAME)
            .map(|chunk| chunk.iter().map(|&k| (k, 1)).collect())
            .collect();

        group.bench_function(BenchmarkId::new("per_item", tag), |b| {
            b.iter_custom(|iters| {
                timed_passes(iters, &items, |coins, _| {
                    let pcm = Pcm::new(params(), coins);
                    let start = Instant::now();
                    for frame in &frames {
                        for &(k, w) in frame {
                            pcm.update_by(k, w);
                        }
                    }
                    start.elapsed()
                })
            });
        });

        group.bench_function(BenchmarkId::new("batch32", tag), |b| {
            b.iter_custom(|iters| {
                timed_passes(iters, &items, |coins, _| {
                    let pcm = Pcm::new(params(), coins);
                    let mut scratch = BatchScratch::with_capacity(params().depth, FRAME);
                    let start = Instant::now();
                    for frame in &frames {
                        pcm.update_batch(frame, &mut scratch);
                    }
                    start.elapsed()
                })
            });
        });

        // The lease and buffered kernels only run in the hot regime —
        // they exist to show the kernels compose with the sharded and
        // buffered write paths, not to re-measure skew sensitivity.
        if s != FRAME_HOT_S {
            continue;
        }

        group.bench_function(BenchmarkId::new("batch32_lease", tag), |b| {
            b.iter_custom(|iters| {
                timed_passes(iters, &items, |coins, _| {
                    let sketch = ShardedPcm::new(params(), SHARDS, coins);
                    let mut lease = sketch.lease().expect("fresh sketch has free shards");
                    let mut scratch = BatchScratch::with_capacity(params().depth, FRAME);
                    let start = Instant::now();
                    for frame in &frames {
                        lease.apply_batch(frame, &mut scratch);
                    }
                    start.elapsed()
                })
            });
        });

        group.bench_function(BenchmarkId::new("batch32_buf64", tag), |b| {
            b.iter_custom(|iters| {
                timed_passes(iters, &items, |coins, _| {
                    let sketch = ShardedPcm::new(params(), SHARDS, coins);
                    let mut scratch = writer_scratch();
                    let start = Instant::now();
                    buffered_lease(&sketch, &mut scratch, 64, &frames);
                    start.elapsed()
                })
            });
        });
    }

    // The benchmark's `ingest-bulk` shape without the socket: full
    // 4096-item frames of 2^20 scrambled Zipf keys into one lease of a
    // two-shard α = 1e-4, δ = 0.01 sketch (about 1 MiB per shard).
    let keys = MixHash::draw(&mut CoinFlips::from_seed(46));
    let bulk: Vec<(u64, u64)> = ZipfStream::new(BULK_KEYS, ZIPF_S, 46)
        .take(n)
        .map(|rank| (keys.hash(rank), 1))
        .collect();
    let bulk_params = CountMinParams::for_bounds(1e-4, 0.01);
    group.bench_function(BenchmarkId::new("frame4096", "z=1.1"), |b| {
        b.iter_custom(|iters| {
            timed_passes(iters, &[], |coins, _| {
                let sketch = ShardedPcm::new(bulk_params, 2, coins);
                let mut lease = sketch.lease().expect("fresh sketch has free shards");
                let mut scratch =
                    BatchScratch::with_capacity(bulk_params.depth, MAX_BATCH_ITEMS as usize);
                let start = Instant::now();
                for frame in bulk.chunks(MAX_BATCH_ITEMS as usize) {
                    lease.apply_batch(frame, &mut scratch);
                }
                start.elapsed()
            })
        });
    });

    // The row hash's `% w` alone, at `ingest-bulk`'s width.
    let wmod = FastMod::new(bulk_params.width as u64);
    let inputs: Vec<u64> = bulk.iter().map(|&(k, _)| k).collect();
    group.bench_function(BenchmarkId::new("fastmod_rem", bulk_params.width), |b| {
        b.iter(|| {
            black_box(&inputs)
                .iter()
                .fold(0u64, |acc, &x| acc ^ wmod.rem(x))
        })
    });
    group.finish();
}

/// Skew sensitivity: the buffered win is proportional to the
/// coalescing hit rate, which a Zipf exponent of 1.5 makes visible —
/// repeats inside a b=64 window collapse to one table hit, skipping
/// both the row hashing and the shared-cell traffic.
fn bench_skew(c: &mut Criterion, n: usize) {
    let hot = skewed_stream(n, 1.5, 44);
    let mut group = c.benchmark_group("sketch_hot_path_skew");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));

    group.bench_function("strict/z=1.5", |b| {
        b.iter_custom(|iters| {
            timed_passes(iters, &hot, |coins, items| {
                let pcm = Pcm::new(params(), coins);
                let start = Instant::now();
                for &i in items {
                    pcm.update(i);
                }
                start.elapsed()
            })
        });
    });

    group.bench_function("buffered/z=1.5,b=64", |b| {
        b.iter_custom(|iters| {
            timed_passes(iters, &hot, |coins, items| {
                let sketch = BufferedPcm::new(params(), 64, coins);
                let mut h = sketch.handle();
                let start = Instant::now();
                for &i in items {
                    h.update(i);
                }
                h.flush();
                start.elapsed()
            })
        });
    });
    group.finish();
}

/// The contended shape of the same comparison: `T` writers ingest
/// disjoint slices of the stream concurrently. Strict `Pcm` writers
/// bounce the hot rows' cache lines on every `fetch_add`; buffered
/// lease writers touch only private cells plus a thread-local buffer,
/// so this is where the batched construction's O(1)-update claim
/// (Lemma 10) shows up as wall clock.
fn bench_contended(c: &mut Criterion, n: usize) {
    const THREADS: usize = 4;
    let items = stream(n, 43);
    let chunk = items.len() / THREADS;
    let mut group = c.benchmark_group("sketch_hot_path_contended");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(n as u64));

    group.bench_function(BenchmarkId::new("strict", format!("t={THREADS}")), |b| {
        b.iter_custom(|iters| {
            timed_passes(iters, &items, |coins, items| {
                let pcm = Pcm::new(params(), coins);
                let start = Instant::now();
                std::thread::scope(|s| {
                    for slice in items.chunks(chunk) {
                        let pcm = &pcm;
                        s.spawn(move || {
                            for &i in slice {
                                pcm.update(i);
                            }
                        });
                    }
                });
                start.elapsed()
            })
        });
    });

    group.bench_function(
        BenchmarkId::new("buffered_lease", format!("t={THREADS},b=64")),
        |b| {
            b.iter_custom(|iters| {
                timed_passes(iters, &items, |coins, items| {
                    let sketch = ShardedPcm::new(params(), THREADS, coins);
                    let mut scratches: Vec<_> = (0..THREADS).map(|_| writer_scratch()).collect();
                    let start = Instant::now();
                    std::thread::scope(|s| {
                        for (slice, scratch) in items.chunks(chunk).zip(&mut scratches) {
                            let sketch = &sketch;
                            s.spawn(move || {
                                let frames = slice.iter().map(|&i| [(i, 1)]);
                                buffered_lease(sketch, scratch, 64, frames);
                            });
                        }
                    });
                    start.elapsed()
                })
            });
        },
    );
    group.finish();
}

/// Melem/s of the result whose label ends in `suffix`.
fn rate_of(c: &Criterion, suffix: &str) -> Option<f64> {
    c.results()
        .iter()
        .find(|r| r.label.ends_with(suffix))
        .and_then(|r| r.elems_per_sec)
}

/// The rate of `a` over the rate of `b`, when both were measured.
fn ratio_of(c: &Criterion, a: &str, b: &str) -> Option<f64> {
    match (rate_of(c, a), rate_of(c, b)) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    }
}

fn write_json(c: &Criterion, path: &str, n: usize, quick: bool) -> std::io::Result<()> {
    let mut rows = String::new();
    for r in c.results() {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let rate = r.elems_per_sec.unwrap_or(0.0);
        rows.push_str(&format!(
            "    {{\"bench\": \"{}\", \"ns_per_pass\": {:.0}, \"melem_per_s\": {:.3}}}",
            r.label,
            r.ns_per_iter,
            rate / 1e6
        ));
    }
    let [ratio, batch_hot, batch_serving] = [
        ("buffered/b=64", "strict"),
        ("batch32/z=1.5", "per_item/z=1.5"),
        ("batch32/z=1.1", "per_item/z=1.1"),
    ]
    .map(|(a, b)| ratio_of(c, a, b).unwrap_or(0.0));
    let doc = format!(
        "{{\n  \"bench\": \"sketch_hot_path\",\n  \"items\": {n},\n  \
         \"alphabet\": {ALPHABET},\n  \"zipf_s\": {ZIPF_S},\n  \
         \"shards\": {SHARDS},\n  \"frame\": {FRAME},\n  \
         \"frame_alphabet\": {FRAME_ALPHABET},\n  \"quick\": {quick},\n  \
         \"buffered_b64_vs_strict\": {ratio:.3},\n  \
         \"batch32_vs_per_item_hot\": {batch_hot:.3},\n  \
         \"batch32_vs_per_item_serving\": {batch_serving:.3},\n  \"runs\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(path, doc)
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut enforce = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next(),
            "--enforce" => enforce = true,
            // --quick is read by the criterion shim; cargo bench
            // passes --bench and filter strings — ignore both.
            _ => {}
        }
    }

    let mut c = Criterion::default();
    let n = if c.is_quick() { 20_000 } else { 200_000 };
    bench_hot_path(&mut c, n);
    bench_batch_kernel(&mut c, n);
    bench_skew(&mut c, n);
    bench_contended(&mut c, n);

    if let Some(path) = &json_path {
        if let Err(e) = write_json(&c, path, n, c.is_quick()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if enforce {
        // Two floors. Buffered b=64 against strict is generous (0.6x):
        // on a noisy shared runner single-writer buffering sits around
        // parity, so the gate only trips on a genuine pathology
        // (coalescing or flush regressed into multiplying work), not on
        // scheduler jitter. The batch kernel must beat the per-item loop
        // (1.0x) in its hot-key regime (z=1.5, where in-frame duplicates
        // are plentiful) — the coalescing payoff the kernel exists for;
        // the serving-default pair (z=1.1) sits at the break-even by
        // construction and is reported, not gated.
        let floors = [
            ("buffered/b=64", "strict", 0.6),
            ("batch32/z=1.5", "per_item/z=1.5", 1.0),
        ];
        for (fast, base, floor) in floors {
            match ratio_of(&c, fast, base) {
                Some(r) if r >= floor => println!("enforce: {fast} at {r:.2}x {base} — ok"),
                Some(r) => {
                    eprintln!(
                        "enforce: {fast} at {r:.2}x {base} (< {floor}) — \
                         it multiplies work instead of amortizing it"
                    );
                    std::process::exit(1);
                }
                None => {
                    eprintln!("enforce: missing {fast} or {base} measurement");
                    std::process::exit(1);
                }
            }
        }
    }
}
