//! CPU placement. On a small host the scheduler may put the load
//! generator and the server on one CPU in one run and on two in the
//! next, and a loopback round trip across CPUs costs several times one
//! within a CPU. The served workloads therefore confine the benchmark,
//! the server and all their threads to one CPU, so every run measures
//! one placement. `offline-pool` is left on every allowed CPU so its
//! threaded k-NN batch fans out as it would in use.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, lowest first.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the mask buffer is as large as the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
}

/// Confines the calling thread, and the threads and processes it starts
/// afterwards, to `cpu`. Returns whether the kernel accepted it.
pub fn pin_current(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask buffer is as large as the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    #[test]
    fn this_process_may_run_somewhere() {
        let cpus = super::allowed();
        assert!(!cpus.is_empty());
        assert!(cpus.windows(2).all(|w| w[0] < w[1]));
    }
}
