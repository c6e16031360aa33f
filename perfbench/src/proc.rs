//! Process CPU time and peak resident set from `/proc/self`.

/// Clock ticks per second of `/proc/self/stat` times (`CLK_TCK`, 100 on
/// every Linux configuration this benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process, in milliseconds, including
/// threads that have already exited. `None` where `/proc` is unavailable.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_and_monotone() {
        let before = cpu_ms().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ms().unwrap() >= before);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
