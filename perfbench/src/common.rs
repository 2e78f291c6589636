//! Shared plumbing: metric collection, order statistics, digests, the
//! resident-memory probe, the work directory and the host record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reports, ticks, ingests and queries).
    pub attempted: u64,
    /// Operations whose output differed from the reference or failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Plain wall-clock figures behind the yardstick-relative metrics,
    /// printed with the host record.
    pub raw: Vec<Metric>,
    /// Digest of the generated inputs (capture, frames or records).
    pub inputs_digest: u64,
    /// The exact program configuration the run used, as Rust debug text.
    pub config: String,
    /// Filesystem of the directory the store workload keeps its
    /// segments in.
    pub store_fs: Option<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.raw.push(Metric { name, value, unit });
    }

    /// Adds one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Per-layer span sums of a traced run, kept in memory and turned into
/// metrics when the run ends. Every span the benchmark records wraps a
/// single call into one crate and nests no other recorded span, so a
/// span's summed duration is its self time.
#[derive(Debug, Default)]
pub struct Spans {
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Times `f` under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed());
        out
    }

    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        *self.secs.entry(name).or_default() += elapsed.as_secs_f64();
    }

    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median over passes of a per-pass statistic. The host's speed
/// changes over seconds, so a pass is the unit of one measurement: one
/// slow pass moves a median of passes less than it moves a statistic of
/// all samples pooled, whose upper tail that pass would fill.
pub fn per_pass<P>(passes: &[P], stat: impl Fn(&P) -> f64) -> f64 {
    median(&passes.iter().map(stat).collect::<Vec<_>>())
}

/// The yardstick: a fixed task that owes nothing to the code under
/// test, timed after every pass so that each pass's timings can be
/// given in units of it.
///
/// The reference host is a 2-vCPU VM whose speed at allocation-heavy,
/// memory-bound work changes by 20-40% over seconds to minutes as its
/// neighbours load the machine. A CPU-bound loop and a pointer chase
/// barely move when it does; this task (many small blocks allocated,
/// filled, indexed in a hash map and freed) moves with the workloads.
/// Over ten 20 s runs of each workload, the spread (interquartile
/// range over median) of the median pass time fell from 0.25 to 0.10
/// on batch_corpus, 0.17 to 0.06 on monitor_age, 0.12 to 0.06 on
/// monitor_fleet and 0.20 to 0.01 on store_mixed when given over the
/// yardstick.
///
/// It also keeps the peak resident set. The yardstick's blocks come
/// from the same heap as the measured calls', so the peak is read
/// after the first pass, before the yardstick first runs.
#[derive(Debug)]
pub struct Yardsticks {
    secs: Vec<f64>,
    /// Resident bytes when the peak was reset.
    base: u64,
    /// Peak above `base` during the first pass.
    peak: u64,
}

impl Yardsticks {
    const BLOCKS: usize = 200_000;
    /// Seconds of pass per yardstick run: a 4 s monitor replay is
    /// followed by 8 runs, a 0.8 s batch pass by 2.
    const SPACING: f64 = 0.5;
    const MAX_RUNS: usize = 8;

    /// Resets the peak resident set to the current one: from here on
    /// the peak covers what the measured calls add on top of the
    /// generator's resident inputs.
    pub fn start() -> Yardsticks {
        Yardsticks {
            secs: Vec::new(),
            base: reset_peak_rss(),
            peak: 0,
        }
    }

    /// Times the yardstick after a pass that took `wall`: once per
    /// `SPACING` of the pass, at least once and at most `MAX_RUNS`
    /// times, keeping the median. After the first pass it reads the
    /// peak first.
    pub fn after_pass(&mut self, wall: Duration) {
        if self.secs.is_empty() {
            self.peak = peak_rss_above(self.base);
        }
        let runs = (wall.as_secs_f64() / Self::SPACING).round() as usize;
        let times: Vec<f64> = (0..runs.clamp(1, Self::MAX_RUNS))
            .map(|_| Self::time())
            .collect();
        self.secs.push(median(&times));
    }

    /// Seconds of the yardstick after pass `i`.
    pub fn of_pass(&self, i: usize) -> f64 {
        self.secs[i]
    }

    /// Median seconds over every pass.
    pub fn median(&self) -> f64 {
        median(&self.secs)
    }

    /// Peak resident bytes of the first pass above the resident inputs.
    pub fn peak_rss(&self) -> u64 {
        self.peak
    }

    fn time() -> f64 {
        use std::collections::HashMap;
        use std::hash::{BuildHasherDefault, DefaultHasher};
        let started = Instant::now();
        let blocks: Vec<Vec<u8>> = (0..Self::BLOCKS)
            .map(|i| vec![i as u8; 32 + i % 256])
            .collect();
        let mut index: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for (i, block) in blocks.iter().enumerate() {
            index.insert(i as u64 * 2_654_435_761, block.len());
        }
        std::hint::black_box(&index);
        drop(index);
        drop(blocks);
        started.elapsed().as_secs_f64()
    }
}

/// A per-pass statistic in seconds, each over the yardstick run after
/// its pass.
pub fn rel<P>(passes: &[P], sticks: &Yardsticks, stat: impl Fn(&P) -> f64) -> Vec<f64> {
    passes
        .iter()
        .enumerate()
        .map(|(i, p)| stat(p) / sticks.of_pass(i))
        .collect()
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: the generators' seeded draws.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit digest, for input and output fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Digest of a list of lines, each terminated so that
    /// `["ab"]` and `["a", "b"]` differ.
    pub fn of_lines<S: AsRef<str>>(lines: &[S]) -> u64 {
        let mut d = Digest::default();
        for line in lines {
            d.eat(line.as_ref().as_bytes());
            d.eat(b"\n");
        }
        d.0
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap pages to the kernel and resets the process's
/// peak resident set to its current size, so the next
/// [`peak_rss_above`] reading covers only what the measured run adds
/// on top of the generator's resident inputs. Returns the resident
/// size the peak was reset to, in bytes.
fn reset_peak_rss() -> u64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` is glibc's allocator maintenance call; it
    // takes a plain integer, touches no memory owned by Rust, and is
    // safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 to clear_refs resets VmHWM to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_kb("VmRSS:") * 1024
}

/// Peak resident bytes since [`reset_peak_rss`] above `base`.
fn peak_rss_above(base: u64) -> u64 {
    (status_kb("VmHWM:") * 1024).saturating_sub(base)
}

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A scratch directory under the current directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The host a result was measured on, as one JSON object.
pub fn host_json(outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let store_fs = outcome.store_fs.as_deref().unwrap_or("n/a");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"store_fs\": \"{}\", \"config\": \"{}\"}}",
        tdat::json::escape(&cpu),
        tdat::json::escape(env!("PERFBENCH_RUSTC")),
        tdat::json::escape(env!("PERFBENCH_PROFILE")),
        tdat::json::escape(store_fs),
        tdat::json::escape(&outcome.config),
    )
}

/// The filesystem type of the mount holding `dir`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
