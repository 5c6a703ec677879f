//! The batch fast path's perf claim, enforced: after warmup, serving a
//! steady-state BATCH2 frame performs **zero heap allocations** on
//! either backend. A counting global allocator wraps the system
//! allocator; the test drives a warmed server through hundreds of
//! batch frames and asserts the process-wide allocation count does not
//! move.
//!
//! The count is process-global, so everything here runs inside ONE
//! `#[test]` (the harness would otherwise interleave other tests'
//! allocations into the measurement window). Warmup covers every
//! amortized one-time cost on the serving path: connection spawn,
//! `FrameDecoder` ring growth, lazy writer/lease/scratch creation, the
//! poller's event-buffer fill, and the reactor's response-buffer pool.

use ivl_service::protocol::encode_batch;
use ivl_service::{Backend, Client, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every allocation entry point
/// (frees are irrelevant to the claim).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates straight to `System`; the counter is a relaxed
// atomic bump with no further allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Reads one length-prefixed response frame into `frame` (reused).
fn read_response(stream: &mut TcpStream, frame: &mut Vec<u8>) {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes).expect("response prefix");
    let len = u32::from_le_bytes(len_bytes) as usize;
    frame.clear();
    frame.resize(len, 0);
    stream.read_exact(frame).expect("response payload");
    assert_eq!(frame[0], 0x81, "expected ACK, got opcode {:#x}", frame[0]);
}

fn drive(backend: Backend, write_buffer: u64) {
    let label = format!("{backend:?}/wb={write_buffer}");
    let server = ivl_service::serve(
        "127.0.0.1:0",
        ServerConfig {
            backend,
            shards: 2,
            write_buffer,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // A duplicate-heavy BATCH2 frame (keys repeat, so it exercises the
    // coalescing path), the common shape under a skewed workload.
    let items: Vec<(u64, u64)> = (0..32u64).map(|i| (i % 11, (i % 3) + 1)).collect();
    let mut frame = Vec::with_capacity(1024);
    let mut rsp = Vec::with_capacity(256);
    encode_batch(&mut frame, 0, &items);

    // Warmup: ring growth, writer/lease/scratch creation, response
    // pools, poller buffers.
    for _ in 0..64 {
        stream.write_all(&frame).expect("warmup write");
        read_response(&mut stream, &mut rsp);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    // Setup (spawn, registry, warmup growth) must have registered on
    // the counter, or the zero-delta assertion below proves nothing.
    assert!(before > 100, "counter not hooked: {before}");
    for _ in 0..256 {
        stream.write_all(&frame).expect("steady write");
        read_response(&mut stream, &mut rsp);
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    // The server threads are the only other live allocators; the
    // client side of the window reuses its two buffers. Any delta is
    // a per-frame allocation on the serving path.
    assert_eq!(
        delta, 0,
        "{label}: {delta} heap allocations across 256 steady-state batch frames"
    );

    drop(stream);
    // Sanity: the frames actually applied (not silently rejected).
    let client_stats = Client::connect(server.addr()).and_then(|mut c| c.stats());
    server.shutdown();
    let stats = client_stats.expect("stats");
    assert_eq!(stats.batches, 320, "{label}: batch frames served");
    assert_eq!(stats.updates, 320 * 32, "{label}: updates counted");
    server.join();
}

#[test]
fn steady_state_batch_frames_allocate_nothing() {
    for backend in [Backend::Threaded, Backend::EventLoop] {
        for write_buffer in [0u64, 64] {
            drive(backend, write_buffer);
        }
    }
}
