//! The host side of a measurement: which machine ran it, how much memory a
//! run peaked at, and the process control that keeps every spawned run —
//! including the worker processes of the sockets backend — from outliving
//! its measurement.

use std::process::Child;
use std::time::{Duration, Instant};

/// What a result record is tagged with. Records whose `host_id` differ were
/// measured on different machines and are never compared.
pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Fingerprint {
    pub fn probe() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        Fingerprint {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev(),
        }
    }

    /// Hash of everything but the git rev: equal ids mean the same host
    /// and toolchain, so two records may be compared.
    pub fn host_id(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{}|{}|{}", self.parallelism, self.cpu_model, self.rustc).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// The commit being measured: `PERFBENCH_GIT_REV` if set, else resolved
/// from `.git` in the working directory, else `unknown` (an exported
/// checkout has no `.git`).
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("PERFBENCH_GIT_REV") {
        return rev;
    }
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else { return "unknown".into() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
    }
}

/// Peak resident set of this process and of every child it has reaped
/// (kB). A run executes in a fresh process, so this is the run's peak; on
/// the sockets backend the reaped children are the node workers, so it
/// covers the largest of them.
pub fn peak_rss_kb() -> u64 {
    let own = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0);
    own.max(sys::children_maxrss_kb())
}

/// How a spawned run ended.
pub enum Exit {
    Code(Option<i32>),
    /// Killed at its deadline.
    TimedOut,
}

/// Wait for `child` (spawned as the leader of its own process group) until
/// `deadline`, killing the whole group if it runs over. Afterwards every
/// process left in the group — a worker orphaned by a crashed coordinator,
/// say — is killed and reaped, so nothing the run started outlives it.
/// Returns the exit and whether any process outlived the run's leader.
pub fn wait_group(child: &mut Child, deadline: Duration) -> (Exit, bool) {
    let pgid = child.id() as i32;
    let until = Instant::now() + deadline;
    let exit = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Exit::Code(status.code()),
            Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(2)),
            _ => {
                sys::kill_group(pgid);
                let _ = child.wait();
                break Exit::TimedOut;
            }
        }
    };
    let orphaned = sys::group_alive(pgid);
    sys::kill_group(pgid);
    sys::reap_group(pgid);
    (exit, orphaned)
}

/// Adopt orphaned descendants, so a worker whose coordinator died is
/// reparented to this process and can be reaped by [`wait_group`].
pub fn adopt_orphans() {
    sys::set_child_subreaper();
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        fn prctl(option: i32, ...) -> i32;
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    const SIGKILL: i32 = 9;
    const PR_SET_CHILD_SUBREAPER: i32 = 36;
    const RUSAGE_CHILDREN: i32 = -1;

    pub fn children_maxrss_kb() -> u64 {
        let mut u = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
        // SAFETY: `u` is a properly sized, writable `struct rusage`.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
        if rc == 0 { u.maxrss.max(0) as u64 } else { 0 }
    }

    pub fn kill_group(pgid: i32) {
        // SAFETY: plain syscall; a negative pid addresses the process group.
        unsafe { kill(-pgid, SIGKILL) };
    }

    /// Whether any process of the group still exists (signal 0 probes).
    pub fn group_alive(pgid: i32) -> bool {
        // SAFETY: signal 0 only checks for existence.
        unsafe { kill(-pgid, 0) == 0 }
    }

    /// Reap every child of ours still in the group (blocking; the group was
    /// just sent SIGKILL, so each exits promptly).
    pub fn reap_group(pgid: i32) {
        let mut status = 0i32;
        // SAFETY: `status` is a valid out-pointer; returns -1 (ECHILD) once
        // no child of ours remains in the group.
        while unsafe { waitpid(-pgid, &mut status, 0) } > 0 {}
    }

    pub fn set_child_subreaper() {
        // SAFETY: prctl with an integer argument.
        unsafe { prctl(PR_SET_CHILD_SUBREAPER, 1u64) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn children_maxrss_kb() -> u64 {
        0
    }
    pub fn kill_group(_pgid: i32) {}
    pub fn group_alive(_pgid: i32) -> bool {
        false
    }
    pub fn reap_group(_pgid: i32) {}
    pub fn set_child_subreaper() {}
}

