//! The host block (what a result was measured on), the calibration kernel
//! that end-to-end times are normalised by, and the STREAM-style bandwidth
//! probe that `primitives.bw_frac.*` divides by.

use std::path::Path;
use std::time::Instant;

/// Compute threads the benchmark uses: the host's cores, at most four.
pub fn threads_p() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// What a result file was measured on. `compare` refuses to set results
/// side by side unless [`Host::same_machine`] holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Compute threads used (`min(nproc, 4)`).
    pub p: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Commit of the measured tree (`-dirty` when it has uncommitted
    /// changes), or `unknown` outside a git checkout.
    pub commit: String,
    /// Last-level cache size from sysfs, in bytes (0 if unreadable).
    pub llc_bytes: u64,
}

impl Host {
    /// Describe the machine the benchmark runs on.
    pub fn detect(repo_root: &Path) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let commit = std::process::Command::new("git")
            .arg("-C")
            .arg(repo_root)
            .args(["describe", "--always", "--abbrev=12", "--dirty"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            p: threads_p(),
            cpu_model,
            kernel,
            commit,
            llc_bytes: llc_bytes(),
        }
    }

    /// Two results are comparable only from the same kind of machine run
    /// at the same `P`.
    pub fn same_machine(&self, other: &Host) -> bool {
        self.p == other.p
            && self.nproc == other.nproc
            && self.cpu_model == other.cpu_model
            && self.llc_bytes == other.llc_bytes
    }
}

/// The largest cache of cpu0 listed in sysfs, in bytes (0 if unreadable).
fn llc_bytes() -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(dirs) = std::fs::read_dir(base) else {
        return 0;
    };
    dirs.filter_map(|d| d.ok())
        .filter_map(|d| std::fs::read_to_string(d.path().join("size")).ok())
        .filter_map(|s| parse_cache_size(s.trim()))
        .max()
        .unwrap_or(0)
}

/// Parse sysfs cache sizes such as `307200K` or `32M`.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// The calibration sort's time on the reference host (2 vCPUs of a Xeon
/// VM) in its fast phases. Normalised times are seconds at that speed.
pub const REFERENCE_CALIBRATION_S: f64 = 0.010;

/// A fixed single-thread kernel that tracks the host's speed. The reference
/// host's speed drifts by up to 2× over minutes, moving every timing of a
/// run together; dividing a cell's wall by the kernel's time just before it
/// cancels that drift. The kernel is the benchmark's own code (a standard
/// library sort of a fixed array), so no change to the program moves it.
#[derive(Debug)]
pub struct Calibration {
    src: Vec<u64>,
    buf: Vec<u64>,
}

impl Calibration {
    /// 512 Ki pseudo-random keys (4 MiB), the same in every run.
    pub(crate) fn new() -> Calibration {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let src: Vec<u64> = (0..1 << 19)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibration {
            buf: src.clone(),
            src,
        }
    }

    /// Let the pool's workers go idle, then time one sort of the array.
    pub(crate) fn measure(&mut self) -> f64 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t = Instant::now();
        self.buf.copy_from_slice(&self.src);
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        t.elapsed().as_secs_f64()
    }

    /// `wall` in seconds at the reference speed, given the calibration time
    /// measured next to it.
    pub fn normalise(wall: f64, calibration: f64) -> f64 {
        wall * REFERENCE_CALIBRATION_S / calibration
    }
}

/// Result of the bandwidth probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    /// Bytes in each array.
    pub array_bytes: u64,
    /// Best `b[i] = a[i]` rate, GB/s (16 bytes moved per element).
    pub copy_gbps: f64,
    /// Best `a[i] = b[i] + s·c[i]` rate, GB/s (24 bytes moved per element).
    pub triad_gbps: f64,
}

/// Largest probe array. Where sysfs reports an LLC of hundreds of MiB, four
/// times it would be gigabytes per array, too much for a machine shared
/// with others. At 256 MiB per array, triad's three arrays still total 2.5
/// times a 300 MiB LLC, so no pass is served from cache.
const MAX_PROBE_ARRAY: u64 = 256 << 20;

/// STREAM-style copy and triad with `p` threads; best of five passes, as
/// STREAM reports. Each array is four times the LLC, within
/// `[32 MiB, MAX_PROBE_ARRAY]`.
pub fn probe_bandwidth(p: usize) -> Bandwidth {
    let array_bytes = (4 * llc_bytes()).clamp(32 << 20, MAX_PROBE_ARRAY);
    let len = (array_bytes / 8) as usize;
    let chunk = len.div_ceil(p.max(1));
    // First touch in parallel so pages spread the way the timed passes use
    // them.
    let fill = |v: f64| -> Vec<f64> {
        let mut a = vec![0.0f64; len];
        std::thread::scope(|s| {
            for c in a.chunks_mut(chunk) {
                s.spawn(move || c.iter_mut().for_each(|x| *x = v));
            }
        });
        a
    };
    let mut a = fill(1.0);
    let mut b = fill(2.0);
    let c = fill(0.5);
    let best = |f: &mut dyn FnMut()| -> f64 {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let copy_s = best(&mut || {
        std::thread::scope(|s| {
            for (dst, src) in b.chunks_mut(chunk).zip(a.chunks(chunk)) {
                s.spawn(move || dst.copy_from_slice(src));
            }
        });
    });
    let triad_s = best(&mut || {
        std::thread::scope(|s| {
            for ((dst, x), y) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((d, &x), &y) in dst.iter_mut().zip(x).zip(y) {
                        *d = x + 3.0 * y;
                    }
                });
            }
        });
    });
    std::hint::black_box((&a, &b));
    Bandwidth {
        array_bytes,
        copy_gbps: 16.0 * len as f64 / copy_s / 1e9,
        triad_gbps: 24.0 * len as f64 / triad_s / 1e9,
    }
}
