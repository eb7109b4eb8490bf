//! Host facts stamped into every result, so numbers from different hosts
//! never compare silently.

use std::path::Path;

/// A field of `/proc/self/status` (e.g. `VmHWM`, `Threads`), as its
/// leading integer; `None` where procfs is unavailable.
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (VmHWM) since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

extern "C" {
    /// glibc: return free heap memory of every arena to the OS.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap memory to the OS, then restart the VmHWM high-water
/// mark from the resident size that is left (Linux `clear_refs` value 5;
/// a no-op where unsupported). Each execution's peak is then measured on
/// its own, not on whatever earlier executions left in the allocator.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim takes no pointers and only walks the allocator's
    // own free lists under its locks; any pad value is valid.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current thread count of this process.
pub fn threads() -> u64 {
    proc_status("Threads").unwrap_or(0)
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (a checkout without `.git` gives `"unknown"`).
pub fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(refname)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == refname).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
