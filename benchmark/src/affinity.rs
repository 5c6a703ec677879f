//! Pins a run to one CPU.
//!
//! On a small virtual machine a request that crosses cores wakes a
//! halted vCPU, and how long that takes depends on the host's adaptive
//! halt polling — on what the box did in the last minute, not on the
//! code under test. Unpinned, the same commit measures 14 us or 63 us
//! for the same round trip, in streaks of several runs. With every
//! thread on one CPU a round trip is context switches on a core that
//! never idles mid-request, and repeats.
//!
//! The standard library has no affinity call, so this is the harness's
//! one foreign call (glibc's `sched_getaffinity` / `sched_setaffinity`,
//! which `std` already links).

#![allow(unsafe_code)]

use std::os::raw::c_int;

/// `cpu_set_t` is 1024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Restricts the calling thread, and every thread spawned from it
/// afterwards (servers and clients alike inherit the mask), to the
/// highest-numbered CPU it is allowed on — the one furthest from where
/// a box's housekeeping tends to run. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, which is all `sched_getaffinity` requires; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
        .ok_or("empty CPU mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu_and_new_threads_inherit_it() {
        // On its own thread, so the test harness's threads stay free.
        std::thread::spawn(|| {
            let cpu = super::pin_to_one_cpu().expect("pinning works on Linux");
            let seen = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get())
                .join()
                .unwrap();
            assert_eq!(seen, 1, "pinned to CPU {cpu}");
        })
        .join()
        .unwrap();
    }
}
