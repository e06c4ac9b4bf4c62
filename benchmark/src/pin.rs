//! One processor for the whole run.
//!
//! The runner is a guest with two virtual processors on a shared host. With
//! both in use a job's path is a chain of cross-processor wake-ups of idle
//! threads, and what such a wake-up costs is the hypervisor's business: the
//! probe's p50 read ≈ 80 µs or ≈ 190 µs by the guest's mood, the open loops'
//! p50 moved by a sixth between runs of one binary. Confined to one
//! processor the program's threads hand over by context switch, which costs
//! the same every time, and the second processor is left to the guest's own
//! noise. Every thread the program starts inherits the mask.

/// Confines this process to the highest-numbered processor it may run on
/// and returns that processor; `None` where that cannot be done (the run
/// goes on unconfined).
#[cfg(target_os = "linux")]
pub fn to_one_processor() -> Option<usize> {
    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the pointer is to a live `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, bits)| **bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << bit;
    // SAFETY: as above; called from the main thread before any other thread
    // exists, so every later thread inherits the mask.
    (unsafe { sched_setaffinity(0, size, &only) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn to_one_processor() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn a_spawned_thread_inherits_the_one_processor() {
        let cpu = super::to_one_processor().expect("affinity can be set");
        // A second call finds only that processor allowed.
        assert_eq!(std::thread::spawn(super::to_one_processor).join().unwrap(), Some(cpu));
    }
}
