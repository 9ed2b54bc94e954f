//! Host fingerprint stamped on every result, and the process's peak memory.
//!
//! Both come from the CPU and the kernel directly (CPUID, `getrusage`), so
//! the benchmark reads no file outside its checkout.

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The CPU's brand string, or `unknown` where CPUID has none.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID exists on every x86_64 processor, and leaves above the
    // reported maximum extended leaf are never queried.
    #[allow(unused_unsafe)]
    let max_leaf = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_leaf < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: as above; `leaf` is at most the maximum extended leaf.
        #[allow(unused_unsafe)]
        let r = unsafe { __cpuid(leaf) };
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    brand
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    pub struct Rusage {
        utime: Timeval,
        stime: Timeval,
        pub maxrss_kb: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    /// Peak resident set of this process in kilobytes, if known.
    pub fn peak_rss_kb() -> Option<i64> {
        let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `usage` points to a writable, correctly laid out
        // `struct rusage` for 64-bit Linux, and `RUSAGE_SELF` (0) is valid.
        let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
        // SAFETY: zero-initialised integers are a valid `Rusage`, and a
        // successful call filled it in.
        (rc == 0).then(|| unsafe { usage.assume_init() }.maxrss_kb)
    }
}

/// Peak resident memory of this process in MiB (0 where unknown).
pub fn peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    if let Some(kb) = rusage::peak_rss_kb() {
        return kb as f64 / 1024.0;
    }
    0.0
}
