//! What a cold CountMin costs in heap bytes: building a registry
//! allocates the shards' cell matrices and little else, and seeding a
//! replica group's check from a full state allocates no matrix at all.
//! A counting global allocator sums the bytes every allocation asks for.
//!
//! The count is process-global, so both measurements run inside ONE
//! `#[test]` (the harness would otherwise interleave other tests'
//! allocations into the window).

use ivl_merge::kinds;
use ivl_service::objects::{ObjectConfig, ObjectKind};
use ivl_service::{slot_coins, ObjectRegistry};
use ivl_sketch::countmin::CountMinParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper summing the bytes of every allocation
/// (a `realloc` counts its new size; frees are irrelevant).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates straight to `System`; the counter is a relaxed
// atomic bump with no further allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes `f` asks for, with its result.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_cold_count_min_allocates_only_its_shards_cells() {
    const ALPHA: f64 = 1e-4;
    const DELTA: f64 = 0.01;
    const SHARDS: usize = 2;
    const SEED: u64 = 3;
    let params = CountMinParams::for_bounds(ALPHA, DELTA);
    let matrix = (8 * params.width * params.depth) as u64;
    let objects = [ObjectConfig::new("cm", ObjectKind::CountMin)];

    let (built, registry) =
        bytes_of(|| ObjectRegistry::build(&objects, ALPHA, DELTA, SHARDS, 0, SEED));
    let bound = SHARDS as u64 * matrix + 64 * 1024;
    assert!(
        built <= bound,
        "building one {}x{} CountMin on {SHARDS} shards allocated {built} B; \
         its shards' cells are {} B and the bound is {bound} B",
        params.depth,
        params.width,
        SHARDS as u64 * matrix
    );

    let state = registry.snapshot(0).expect("object 0").state;
    let mut coins = slot_coins(SEED, 0);
    let (seeded, seed) = bytes_of(|| kinds::seed(&state, &mut coins).expect("a CountMin seeds"));
    assert!(
        seeded < matrix,
        "seeding from a full state allocated {seeded} B, a {matrix} B matrix's worth"
    );
    seed.admit(&state)
        .expect("the seed admits its own object's state");
}
