//! The host a run measures on: its record (core count, build profile,
//! commit) and pinning to one CPU.

/// The CPUs a run may use, read before any pinning.
#[derive(Copy, Clone, Debug)]
pub struct Host {
    /// CPUs available to the process (`nproc`).
    pub nproc: usize,
    /// The CPU the process was pinned to, if any.
    pub pinned_cpu: Option<usize>,
}

impl Host {
    /// The host as found, unpinned.
    pub fn unpinned() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            pinned_cpu: None,
        }
    }

    /// The host, after pinning the calling thread to one CPU (see
    /// [`pin_to_one_cpu`]).
    pub fn pinned() -> Host {
        let nproc = Host::unpinned().nproc;
        Host {
            nproc,
            pinned_cpu: pin_to_one_cpu(),
        }
    }

    /// The core count, build profile, commit and pinned CPU.
    pub fn record(&self) -> String {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let cpu = self
            .pinned_cpu
            .map_or("none".to_string(), |c| c.to_string());
        format!(
            "machine nproc={} profile={profile} commit={} pinned_cpu={cpu}",
            self.nproc,
            commit()
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(r)?.trim().to_string().into())
            }),
    };
    hash.filter(|h| h.len() >= 12 && h.chars().all(|c| c.is_ascii_hexdigit()))
        .map_or("unknown".into(), |h| h[..12].to_string())
}

/// `cpu_set_t`: 1024 CPU bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on. The simulator's threads strictly
/// alternate, so one CPU is enough; on a virtual machine, wake-ups across
/// CPUs cost a varying exit to the hypervisor, and pinning removes that
/// noise from host times. Returns the CPU, or `None` where pinning is
/// unavailable. Call it before spawning any thread.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t`-sized buffer and
    // the size passed is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t`-sized buffer and the size passed
    // is its size; pid 0 names the calling thread.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0;
    ok.then_some(cpu)
}

/// Pinning is only implemented on Linux.
#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}
