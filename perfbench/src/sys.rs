//! Process CPU time and peak memory, read from `/proc`.
//!
//! Both ends of every circuit, the gateways and the name servers run in
//! this one process, so process-wide figures cover the whole system under
//! test. Where `/proc` is missing the readers return `None` and the metric
//! is reported as absent, never as zero.

use std::time::Duration;

/// Clock ticks per second in `/proc/<pid>/stat`. Linux reports these
/// fields in `USER_HZ`, which is 100 on every mainstream architecture.
const USER_HZ: u64 = 100;

/// User plus system CPU time consumed by every thread of this process.
#[must_use]
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| Duration::from_micros(ticks * 1_000_000 / USER_HZ))
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After ")": state is field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_counted_after_the_command_name() {
        let line = "4242 (a (weird) name) S 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0";
        assert_eq!(parse_cpu_ticks(line), Some(267));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
