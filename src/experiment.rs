//! One harness for the experiment programs under `examples/`.
//!
//! An experiment is a list of labelled cells plus a function that runs
//! one cell for a seed and a worker-pool size and returns a [`Report`].
//! [`run`] owns everything else: the command line, the determinism
//! gates, the artifact and the exit code.
//!
//! * A [`Report`] has four sections. `deterministic` holds counters,
//!   conservation totals and library fingerprints; `model` holds
//!   simulated quantities (model-time latencies, rates per simulated
//!   second). Both must be bit-identical across reruns and pool sizes,
//!   and [`Report::fingerprint`] is [`parc_util::fnv1a`] over exactly
//!   those two. `measured` holds wall-clock values and is never
//!   fingerprinted. `violations` lists the invariants that failed.
//! * When the cells take a worker count, every cell runs on the
//!   experiment's canonical pool and again on every other size in
//!   [`POOLS`]. A fingerprint that moves is a violation.
//! * Gates that span cells (a scale floor, a speedup floor, a cell
//!   count) belong to the experiment-level report the `summary`
//!   function returns.
//! * `<out>/BENCH_<name>.json` carries a `host` block, every cell's
//!   report, the summary and one top-level `fingerprint` that a rerun
//!   in another process must reproduce. Any violation makes the process
//!   exit 1.
//!
//! Every experiment program takes the same two options:
//! `cargo run --release --example <name> -- [--seed N|0xHEX] [--out DIR]`,
//! with `--out` defaulting to `target/artifacts`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use parc_trace::Json;
use parc_util::fnv1a;

/// Pool sizes every cell of a pooled experiment must agree across.
pub const POOLS: [usize; 3] = [1, 3, 8];

/// What one cell, or the experiment as a whole, produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Facts that must not change across reruns and pool sizes.
    pub deterministic: BTreeMap<String, Json>,
    /// Simulated quantities: deterministic, but model time, never
    /// performance.
    pub model: BTreeMap<String, Json>,
    /// Wall-clock measurements, excluded from the fingerprint.
    pub measured: BTreeMap<String, Json>,
    /// Failed invariants; any entry fails the run.
    pub violations: Vec<String>,
    /// Side artifacts `(file name, contents)` written next to the
    /// BENCH file; contents under one name are concatenated in cell
    /// order. Only the canonical run's files are kept.
    pub files: Vec<(String, String)>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a deterministic fact.
    #[must_use]
    pub fn det(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.deterministic.insert(key.to_string(), value.into());
        self
    }

    /// Record a model-time quantity.
    #[must_use]
    pub fn model(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.model.insert(key.to_string(), value.into());
        self
    }

    /// Record a wall-clock measurement.
    #[must_use]
    pub fn measured(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.measured.insert(key.to_string(), value.into());
        self
    }

    /// Record `violation` unless `ok`.
    #[must_use]
    pub fn check(mut self, ok: bool, violation: impl Into<String>) -> Self {
        if !ok {
            self.violations.push(violation.into());
        }
        self
    }

    /// Record every violation a library check returned.
    #[must_use]
    pub fn violations(mut self, violations: impl IntoIterator<Item = String>) -> Self {
        self.violations.extend(violations);
        self
    }

    /// Attach a side artifact.
    #[must_use]
    pub fn file(mut self, name: &str, contents: String) -> Self {
        self.files.push((name.to_string(), contents));
        self
    }

    /// The number recorded under `key` in any section; NaN when there
    /// is none, so a gate comparing it fails.
    #[must_use]
    pub fn number(&self, key: &str) -> f64 {
        [&self.deterministic, &self.model, &self.measured]
            .into_iter()
            .find_map(|section| section.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    /// FNV-1a over the `deterministic` and `model` sections as written.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.fingerprinted().to_string().as_bytes())
    }

    fn fingerprinted(&self) -> Json {
        [
            ("deterministic", Json::Obj(self.deterministic.clone())),
            ("model", Json::Obj(self.model.clone())),
        ]
        .into_iter()
        .collect()
    }

    fn to_json(&self, label: Option<&str>) -> Json {
        let mut doc = [
            ("fingerprint", hex(self.fingerprint())),
            ("deterministic", Json::Obj(self.deterministic.clone())),
            ("model", Json::Obj(self.model.clone())),
            ("measured", Json::Obj(self.measured.clone())),
            ("violations", Json::from(self.violations.clone())),
        ]
        .into_iter()
        .collect::<BTreeMap<_, _>>();
        if let Some(label) = label {
            doc.insert("cell", Json::from(label));
        }
        doc.into_iter().collect()
    }
}

/// A 64-bit value as the zero-padded `0x…` string every artifact uses
/// for fingerprints and seeds.
#[must_use]
pub fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

/// One experiment: what to call its artifact, its default seed, its
/// canonical pool and its cells.
pub struct Spec<C> {
    /// Artifact stem: the runner writes `BENCH_<name>.json`.
    pub name: &'static str,
    /// Seed used when `--seed` is not given.
    pub seed: u64,
    /// Canonical worker count, for cells that take one; `None` for
    /// cells that do not (they are passed pool `0`).
    pub pool: Option<usize>,
    /// Labelled cells, in artifact order.
    pub cells: Vec<(String, C)>,
}

/// Everything [`execute`] produced.
pub struct Outcome {
    /// The artifact document.
    pub doc: Json,
    /// The top-level fingerprint: FNV-1a over every cell's and the
    /// summary's fingerprint.
    pub fingerprint: u64,
    /// Every violation, pool-gate failures included.
    pub violations: Vec<String>,
    /// Side artifacts by file name.
    pub files: BTreeMap<String, String>,
}

/// Run every cell, its pool reruns and the summary, and assemble the
/// artifact. Writes no files; prints one progress line per cell.
pub fn execute<C: Sync>(
    spec: &Spec<C>,
    seed: u64,
    cell: impl Fn(&C, u64, usize) -> Report + Sync,
    summary: impl FnOnce(u64, &[Report]) -> Report,
) -> Outcome {
    let started = Instant::now();
    let canonical = spec.pool.unwrap_or(0);
    let rerun_pools: Vec<usize> = match spec.pool {
        Some(pool) => POOLS.into_iter().filter(|&p| p != pool).collect(),
        None => Vec::new(),
    };
    let mut violations = Vec::new();
    let mut reports = Vec::new();
    for (label, c) in &spec.cells {
        let t = Instant::now();
        let mut report = cell(c, seed, canonical);
        report.measured.insert("wall_ms".into(), elapsed_ms(t));
        for v in &report.violations {
            violations.push(format!("{label}: {v}"));
        }
        println!("  {}", status_line(label, &report));
        reports.push(report);
    }

    // The canonical runs above are timed alone. The reruns only have
    // to agree with them, so they share the machine: one thread per
    // pool size, each running every cell.
    let cell = &cell;
    let reruns: Vec<Vec<Report>> = std::thread::scope(|scope| {
        let threads: Vec<_> = rerun_pools
            .iter()
            .map(|&pool| {
                scope.spawn(move || spec.cells.iter().map(|(_, c)| cell(c, seed, pool)).collect())
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("pool rerun panicked")).collect()
    });
    let before = violations.len();
    for (&pool, runs) in rerun_pools.iter().zip(&reruns) {
        for (((label, _), report), rerun) in spec.cells.iter().zip(&reports).zip(runs) {
            for v in rerun.violations.iter().filter(|v| !report.violations.contains(v)) {
                violations.push(format!("{label} @ {pool} workers: {v}"));
            }
            if rerun.fingerprint() != report.fingerprint() {
                violations.push(format!(
                    "{label}: fingerprint {:#018x} on {pool} workers != {:#018x} on {canonical}; \
                     first difference at {}",
                    rerun.fingerprint(),
                    report.fingerprint(),
                    first_difference(&report.fingerprinted(), &rerun.fingerprinted())
                ));
            }
        }
    }
    if !rerun_pools.is_empty() {
        let verdict = match violations.len() - before {
            0 => "every fingerprint identical".to_string(),
            n => format!("{n} VIOLATION(S)"),
        };
        println!("  pool gate: reran every cell on {rerun_pools:?} workers, {verdict}");
    }

    let t = Instant::now();
    let mut total = summary(seed, &reports);
    total.measured.insert("wall_ms".into(), elapsed_ms(t));
    println!("  {}", status_line("(experiment)", &total));
    for v in &total.violations {
        violations.push(format!("experiment: {v}"));
    }
    let mut lineage = String::new();
    let mut files = BTreeMap::<String, String>::new();
    let mut cells = Vec::new();
    for ((label, _), report) in spec.cells.iter().zip(&reports) {
        lineage.push_str(&format!("{label} {:#018x}\n", report.fingerprint()));
        cells.push(report.to_json(Some(label)));
    }
    lineage.push_str(&format!("experiment {:#018x}\n", total.fingerprint()));
    for (name, contents) in reports.iter().chain([&total]).flat_map(|r| &r.files) {
        files.entry(name.clone()).or_default().push_str(contents);
    }
    let fingerprint = fnv1a(lineage.as_bytes());

    let pools: Vec<usize> = spec.pool.into_iter().chain(rerun_pools).collect();
    let doc = [
        ("experiment", Json::from(spec.name)),
        ("seed", Json::from(format!("{seed:#x}"))),
        ("pools", Json::from(pools)),
        ("host", host()),
        ("fingerprint", hex(fingerprint)),
        ("cells", Json::Arr(cells)),
        ("summary", total.to_json(None)),
        ("violations", Json::from(violations.clone())),
        ("wall_ms", elapsed_ms(started)),
    ]
    .into_iter()
    .collect();
    Outcome { doc, fingerprint, violations, files }
}

/// The `main` of an experiment program: parse `--seed`/`--out`,
/// [`execute`], write `<out>/BENCH_<name>.json` and the side files, and
/// exit 1 on any violation (2 on a bad command line).
pub fn run<C: Sync>(
    spec: Spec<C>,
    cell: impl Fn(&C, u64, usize) -> Report + Sync,
    summary: impl FnOnce(u64, &[Report]) -> Report,
) {
    let (seed, out) = match parse_args(std::env::args().skip(1), spec.seed) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\nusage: [--seed N|0xHEX] [--out DIR]");
            std::process::exit(2);
        }
    };
    let pools = match spec.pool {
        Some(pool) => format!(", pool {pool}, pool gate over {POOLS:?}"),
        None => String::new(),
    };
    println!("== {}: seed {seed:#x}, {} cell(s){pools} ==", spec.name, spec.cells.len());

    let outcome = execute(&spec, seed, cell, summary);
    std::fs::create_dir_all(&out).expect("create artifact directory");
    let path = out.join(format!("BENCH_{}.json", spec.name));
    std::fs::write(&path, format!("{:#}\n", outcome.doc)).expect("write BENCH artifact");
    for (name, contents) in &outcome.files {
        std::fs::write(out.join(name), contents).expect("write side artifact");
    }
    println!("fingerprint {:#018x} -> {}", outcome.fingerprint, path.display());

    if !outcome.violations.is_empty() {
        eprintln!("\n{} violation(s):", outcome.violations.len());
        for v in &outcome.violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

/// Parse a seed: `0x…` is hexadecimal, anything else decimal.
fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(digits) => u64::from_str_radix(digits, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad seed {s:?}: {e}"))
}

fn parse_args(
    mut args: impl Iterator<Item = String>,
    default_seed: u64,
) -> Result<(u64, PathBuf), String> {
    let (mut seed, mut out) = (default_seed, PathBuf::from("target/artifacts"));
    while let Some(flag) = args.next() {
        if flag != "--seed" && flag != "--out" {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--seed" {
            seed = parse_seed(&value)?;
        } else {
            out = PathBuf::from(value);
        }
    }
    Ok((seed, out))
}

fn host() -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rev = std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    [("cpus", Json::from(cpus)), ("profile", Json::from(profile)), ("git_rev", Json::from(rev))]
        .into_iter()
        .collect()
}

fn elapsed_ms(since: Instant) -> Json {
    Json::from(since.elapsed().as_secs_f64() * 1e3)
}

fn status_line(label: &str, report: &Report) -> String {
    let wall = report.measured.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let verdict = match report.violations.len() {
        0 => "ok".to_string(),
        n => format!("{n} VIOLATION(S)"),
    };
    format!("{label:<34} {:#018x} {wall:>10.1} ms  {verdict}", report.fingerprint())
}

/// Where two JSON values first differ, as `/key/index: a vs b`.
fn first_difference(a: &Json, b: &Json) -> String {
    let step = match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => {
            x.keys().chain(y.keys()).find(|k| x.get(*k) != y.get(*k)).map(|k| {
                (k.clone(), x.get(k).unwrap_or(&Json::Null), y.get(k).unwrap_or(&Json::Null))
            })
        }
        (Json::Arr(x), Json::Arr(y)) if x.len() == y.len() => {
            (0..x.len()).find(|&i| x[i] != y[i]).map(|i| (i.to_string(), &x[i], &y[i]))
        }
        _ => None,
    };
    match step {
        Some((key, x, y)) => format!("/{key}{}", first_difference(x, y)),
        None => {
            let short = |v: &Json| v.to_string().chars().take(120).collect::<String>();
            format!(": {} vs {}", short(a), short(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_hex_with_0x_and_decimal_otherwise() {
        assert_eq!(parse_seed("12"), Ok(12));
        assert_eq!(parse_seed("0x12"), Ok(18));
        assert!(parse_seed("0xZZ").is_err());
        assert!(parse_seed("12abc").is_err());
        assert!(parse_seed("").is_err());
    }

    #[test]
    fn command_line_takes_only_seed_and_out() {
        let args = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>().into_iter();
        assert_eq!(parse_args(args(&[]), 7), Ok((7, PathBuf::from("target/artifacts"))));
        assert_eq!(
            parse_args(args(&["--out", "x", "--seed", "0x10"]), 7),
            Ok((16, PathBuf::from("x")))
        );
        assert!(parse_args(args(&["--count", "5"]), 7).is_err());
        assert!(parse_args(args(&["--seed"]), 7).is_err());
    }

    #[test]
    fn first_difference_names_the_path() {
        let a: Json = [("x", Json::from(vec![1u64, 2]))].into_iter().collect();
        let b: Json = [("x", Json::from(vec![1u64, 3]))].into_iter().collect();
        assert_eq!(first_difference(&a, &b), "/x/1: 2 vs 3");
    }
}
