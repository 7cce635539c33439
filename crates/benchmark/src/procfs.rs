//! Process and host facts read from `/proc`, `/sys` and the process CPU
//! clock (64-bit Linux only, which is where the pipeline runs). Unreadable
//! sources yield 0 / "unknown" rather than an error: they feed reported
//! numbers, never control flow.

use std::fs;

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` as 64-bit Linux lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library std already links; no crate names it for us.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds consumed by this process, all threads, those
/// that have exited included, to the nanosecond the scheduler accounts in.
/// (`utime` + `stime` of `/proc/self/stat` is the same clock rounded to 10 ms
/// ticks, too coarse for the 0.2 s of CPU a traced service run uses.)
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // 64-bit Linux C library expects, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Size in MiB of the largest cache level sysfs lists for CPU 0; 0 if
/// unreadable.
pub fn llc_mib() -> f64 {
    let mut best = (0u32, 0.0f64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if level > best.0 {
            best = (level, parse_cache_size_mib(size.trim()));
        }
    }
    best.1
}

fn parse_cache_size_mib(s: &str) -> f64 {
    let (digits, per_mib) = match s.as_bytes().last() {
        Some(b'K') => (&s[..s.len() - 1], 1024.0),
        Some(b'M') => (&s[..s.len() - 1], 1.0),
        Some(b'G') => (&s[..s.len() - 1], 1.0 / 1024.0),
        _ => (s, 1024.0 * 1024.0),
    };
    digits.parse::<f64>().map_or(0.0, |v| v / per_mib)
}

/// One line describing the host, for the head of a noise table.
pub fn host_description() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc {nproc}; CPU {model}; LLC {} MiB (sysfs, cpu0); kernel {}",
        llc_mib(),
        kernel.trim()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size_mib("266240K"), 260.0);
        assert_eq!(parse_cache_size_mib("4M"), 4.0);
        assert_eq!(parse_cache_size_mib("1048576"), 1.0);
        assert_eq!(parse_cache_size_mib("junk"), 0.0);
    }

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.03 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(peak_rss_mib() > 0.0);
    }
}
