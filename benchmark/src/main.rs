//! The repo benchmark (see `README.md` beside `Cargo.toml`, and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! submod-benchmark --workload <name|all> --seed N [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! submod-benchmark --compare DIR_A DIR_B [--benchmark-json FILE]
//! ```
//!
//! One workload per process. The last line of standard output is the
//! result object the driver reads; everything above it is for people.

mod adapter;
mod compare;
mod json;
mod probes;
mod procfs;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use probes::MachinePeaks;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Kind;

/// `--seconds` when not given; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Pool threads: the smaller of the machine's cores and two, so a number
/// measured on the 2-core runner means the same thing on a larger one.
const MAX_THREADS: usize = 2;

enum Target {
    One(Kind),
    All,
}

struct Cli {
    target: Target,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Cli),
    Compare { a: PathBuf, b: PathBuf, benchmark_json: PathBuf },
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: submod-benchmark --workload <{}|all> --seed N [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]\n       submod-benchmark --compare DIR_A DIR_B [--benchmark-json FILE]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = true;
    let mut smoke = false;
    let mut out = None;
    let mut compare = None;
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(value()?.parse::<u64>().map_err(|_| "--seed takes a whole number")?);
            }
            "--seconds" => {
                let given = value()?.parse::<f64>().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&given) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                seconds = Some(given);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--benchmark-json" => benchmark_json = PathBuf::from(value()?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare { a, b, benchmark_json });
    }
    let workload = workload.ok_or("--workload is required")?;
    let target = match workload.as_str() {
        "all" => Target::All,
        name => Target::One(Kind::from_name(name).ok_or(format!("unknown workload {name}"))?),
    };
    let seed = seed.ok_or("--seed is required")?;
    // A smoke run stops at the fewest repetitions unless told otherwise.
    let seconds = seconds.unwrap_or(if smoke { 0.0 } else { DEFAULT_SECONDS as f64 });
    Ok(Command::Run(Cli { target, seed, seconds, trace, smoke, out }))
}

/// The build's target directory, from this executable's own path
/// (`<target>/<profile>/submod-benchmark`): the one place inside the
/// checkout that is the benchmark's to write and that git ignores.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// The commit of the checkout in the working directory, read from `.git`
/// without running git; `unknown` in an exported tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| dir.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

struct Header {
    commit: String,
    nproc: usize,
    threads: usize,
    peaks: MachinePeaks,
    scratch_fs: String,
}

impl Header {
    fn measure(scratch_root: &Path) -> Header {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let _ = std::fs::create_dir_all(scratch_root);
        Header {
            commit: git_commit(),
            nproc,
            threads: nproc.min(MAX_THREADS),
            peaks: probes::measure_peaks(),
            scratch_fs: filesystem_of(scratch_root),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("commit", Json::str(&self.commit)),
            ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
            ("nproc", Json::Num(self.nproc as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("dataflow_workers", Json::Num(adapter::DATAFLOW_WORKERS as f64)),
            ("kernel_backend", Json::str(adapter::kernel_backend_name())),
            ("copy_gbps", Json::Num(self.peaks.copy_gbps)),
            ("mul_add_gflops", Json::Num(self.peaks.mul_add_gflops)),
            ("scratch_fs", Json::str(&self.scratch_fs)),
        ])
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs one workload in this process and prints its report and result line.
fn run_one(kind: Kind, cli: &Cli) -> Result<bool, String> {
    let target = target_dir()?;
    let results = cli.out.clone().unwrap_or_else(|| target.join("bench-results"));
    let scratch_root = target.join("bench-scratch");
    let header = Header::measure(&scratch_root);
    let opts = run::Options {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        threads: header.threads,
        scratch: scratch_root.join(format!("{}-{}", kind.name(), std::process::id())),
        results: results.clone(),
    };

    println!(
        "# workload {} seed {}{}",
        kind.name(),
        cli.seed,
        if cli.smoke { " (smoke)" } else { "" }
    );
    println!("# why: {}", spec::WORKLOADS[kind as usize].why);
    for (key, value) in header.to_json().entries().expect("the header is an object") {
        println!("# {key}: {}", value.as_str().map_or_else(|| value.render(), str::to_string));
    }

    let outcome = run::run(&opts, header.peaks).map_err(|e| format!("{}: {e}", kind.name()))?;
    println!(
        "# n: {}  undirected edges: {}  rss peak: {}",
        outcome.n,
        outcome.edges,
        if outcome.rss_exact { "kernel high-water mark" } else { "10 ms sampler" }
    );

    // Each metric goes to the result file with everything known about it,
    // and to the driver's result line as value and unit alone.
    let mut end_to_end = Vec::new();
    let mut line_metrics = Vec::new();
    for m in &spec::END_TO_END {
        let s = outcome.end_to_end[m.name];
        println!(
            "end_to_end  {:<34} {:>14.6} {:<8} ({} is better)  min {:.6}  max {:.6}  reps {}",
            m.name, s.median, m.unit, m.better, s.min, s.max, s.reps
        );
        end_to_end.push((
            m.name,
            Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::str(m.unit)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("reps", Json::Num(s.reps as f64)),
            ]),
        ));
        if !cli.trace {
            line_metrics.push((m.name, metric_json(s.median, m.unit)));
        }
    }
    let failed = outcome.checks.failures.len() as u64;
    println!(
        "end_to_end  {:<34} {:>14.6} {:<8} {} of {} checks failed",
        "failed_share",
        failed as f64 / outcome.checks.attempted as f64,
        "ratio",
        failed,
        outcome.checks.attempted
    );
    let mut per_layer = Vec::new();
    if let Some(values) = &outcome.per_layer {
        for m in &spec::PER_LAYER {
            let value = *values
                .get(m.name)
                .ok_or_else(|| format!("the ledger did not measure {}", m.name))?;
            println!(
                "per_layer   {:<34} {:>14.6} {:<8} ({} is better)",
                m.name, value, m.unit, m.better
            );
            per_layer.push((m.name, metric_json(value, m.unit)));
        }
        line_metrics = per_layer.clone();
    }
    for failure in &outcome.checks.failures {
        println!("FAILED CHECK: {failure}");
    }

    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let record = Json::obj([
        ("workload", Json::str(kind.name())),
        ("seed", Json::Num(cli.seed as f64)),
        ("smoke", Json::Bool(cli.smoke)),
        ("header", header.to_json()),
        ("n", Json::Num(outcome.n as f64)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("end_to_end", Json::obj(end_to_end)),
        (
            "select_s_samples",
            Json::Arr(outcome.select_samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("per_layer", Json::obj(per_layer)),
    ]);
    let file = results.join(format!("{}-seed{}.json", kind.name(), cli.seed));
    std::fs::write(&file, record.render() + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;

    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(line_metrics)),
    ]);
    println!("{}", line.render());
    Ok(failed == 0)
}

/// Runs every workload, each in a process of its own (so that one
/// workload's allocator state and RSS never reach the next), passing
/// their reports through.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for kind in Kind::ALL {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", kind.name(), "--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }]);
        if cli.smoke {
            child.arg("--smoke");
        }
        if let Some(out) = &cli.out {
            child.arg("--out").arg(out);
        }
        let status = child.status().map_err(|e| format!("starting {}: {e}", kind.name()))?;
        all_ok &= status.success();
        println!();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = spec::FORBIDDEN_ENV.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("error: {knob} is set; the benchmark runs only with the workspace's defaults");
        return ExitCode::from(2);
    }
    let result = match &command {
        Command::Compare { a, b, benchmark_json } => compare::compare(a, b, benchmark_json),
        Command::Run(cli) => match cli.target {
            Target::One(kind) => run_one(kind, cli),
            Target::All => run_all(cli),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}
