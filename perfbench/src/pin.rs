//! CPU placement. On a two-core host the scheduler otherwise moves client
//! and server threads between the cores from run to run, and each
//! placement has its own latency; fixing it makes runs repeat.

/// The core that runs the server; the client threads run on [`CLIENT_CPU`].
pub const SERVER_CPU: usize = 1;
pub const CLIENT_CPU: usize = 0;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Whether the host has the two cores the placement needs.
pub fn available() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// Restrict the calling thread (and threads it spawns later) to `cpu`.
/// Best effort: returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpu: usize) -> bool {
    if !available() {
        return false;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the kernel only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
