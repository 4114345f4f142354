//! The machine record every result carries (core count, CPU model, compiled
//! target features, cache sizes) and the STREAM-triad bandwidth ceiling the
//! kernel numbers are divided by.

use mffv::telemetry::Stopwatch;

/// Largest triad array the probe allocates.  STREAM asks for arrays at
/// least 4x the last-level cache; when that would exceed this cap the probe
/// says so in [`Triad::note`] and records both sizes.
pub const MAX_TRIAD_ARRAY_BYTES: u64 = 64 << 20;

/// Triad passes per thread count; the best pass is the ceiling.
const TRIAD_PASSES: usize = 8;

/// What the benchmark ran on.
#[derive(Debug)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    /// `(feature, compiled in)` for the features the kernels could use.
    pub target_features: Vec<(&'static str, bool)>,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
}

impl Machine {
    pub fn detect() -> Machine {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let (l2_bytes, llc_bytes) = cache_sizes();
        Machine {
            nproc,
            cpu_model,
            target_features: target_features(),
            l2_bytes,
            llc_bytes,
        }
    }

    /// One JSON object with the whole record.
    pub fn to_json(&self) -> String {
        let features: Vec<String> = self
            .target_features
            .iter()
            .map(|(name, on)| format!("\"{name}\": {on}"))
            .collect();
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"target_features\": {{{}}}, \"l2_bytes\": {}, \"llc_bytes\": {}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            features.join(", "),
            self.l2_bytes,
            self.llc_bytes
        )
    }
}

fn target_features() -> Vec<(&'static str, bool)> {
    vec![
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
}

/// `(L2, last-level)` data-cache sizes of cpu0 from sysfs; 0 when unknown.
fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0;
    let mut llc = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if level == 2 {
            l2 = bytes;
        }
        if level >= llc.0 {
            llc = (level, bytes);
        }
    }
    (l2, llc.1)
}

/// Parse a sysfs cache size such as `2048K` or `300M`.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// STREAM-triad ceiling (`a = b + s·c`, 24 bytes moved per element).
#[derive(Debug)]
pub struct Triad {
    /// Best-pass bandwidth with every core.
    pub gbps: f64,
    /// Best-pass bandwidth on one core.
    pub gbps_1t: f64,
    pub array_bytes: u64,
    /// Why the arrays are smaller than 4x the LLC, when they are.
    pub note: String,
}

pub fn stream_triad(machine: &Machine) -> Triad {
    let wanted = machine.llc_bytes.saturating_mul(4);
    let array_bytes = wanted.clamp(16 << 20, MAX_TRIAD_ARRAY_BYTES);
    let note = if array_bytes < wanted {
        format!(
            "4x LLC ({} MiB) per array would need {} MiB for three arrays; capped at {} MiB per array, so the ceiling is partly cache bandwidth",
            wanted >> 20,
            (3 * wanted) >> 20,
            array_bytes >> 20
        )
    } else {
        "arrays are at least 4x LLC".to_string()
    };
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let gbps_1t = best_triad(&mut a, &b, &c, 1);
    let gbps = best_triad(&mut a, &b, &c, machine.nproc);
    std::hint::black_box(&a);
    Triad {
        gbps,
        gbps_1t,
        array_bytes,
        note,
    }
}

fn best_triad(a: &mut [f64], b: &[f64], c: &[f64], threads: usize) -> f64 {
    let scalar = 3.0;
    let chunk = a.len().div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..TRIAD_PASSES {
        let started = Stopwatch::start();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, &b), &c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + scalar * c;
                    }
                });
            }
        });
        best = best.min(started.elapsed_seconds());
    }
    (24 * a.len()) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("1024"), Some(1024));
        assert_eq!(parse_size("xK"), None);
    }
}
