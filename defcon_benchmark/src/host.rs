//! What the benchmark reads from the host and leaves on it: peak resident
//! memory and CPU time from `/proc`, and a scratch directory that stays inside
//! the build directory (hence inside the checkout, and ignored by git).

use std::path::PathBuf;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel ships.
const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so the
/// numeric fields are counted from the *last* closing parenthesis.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set of this process, all threads, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_vm_hwm_mib(&text))
        .unwrap_or(0.0)
}

/// CPU seconds this process has consumed so far, all threads.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| parse_cpu_seconds(&text))
        .unwrap_or(0.0)
}

/// A fresh, empty directory next to the running executable, unique to this
/// process and `label`. The caller removes it when done.
pub fn scratch_dir(label: &str) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe.parent().unwrap_or(std::path::Path::new("."));
    let dir = base
        .join("defcon_benchmark_tmp")
        .join(format!("{label}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tdefcon_benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // comm = "a b) (c": spaces and parentheses inside field 2.
        let stat =
            "4242 (a b) (c) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(2.0));
        assert_eq!(parse_cpu_seconds("4242 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis at all"), None);
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
