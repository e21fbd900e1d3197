//! CPU affinity of the calling thread (Linux `sched_{get,set}affinity`).
//!
//! `schedd_session` runs its client and daemon threads on one CPU: in a
//! closed loop only one of them is runnable at a time, and sharing a
//! CPU keeps every round trip from waiting for two virtual CPUs to be
//! scheduled at once, which is what made the round trip time of a free
//! pair swing by a factor of two between runs.

/// A `cpu_set_t`: 1024 CPUs, one bit each.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU set.
pub fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread to `set`; false if the kernel refused.
pub fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// The set holding only the lowest CPU of `set`.
pub fn first_cpu(set: &CpuSet) -> Option<CpuSet> {
    let word = set.iter().position(|&w| w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << set[word].trailing_zeros();
    Some(one)
}
