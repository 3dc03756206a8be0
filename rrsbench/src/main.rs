//! End-to-end benchmark of `rrs serve`'s TCP path.
//!
//! ```text
//! cargo run --release --manifest-path rrsbench/Cargo.toml -- \
//!     --workload <small-epochs|engine-heavy|durable-history|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <path>]
//! ```
//!
//! `--trace 0` repeats the workload's fixed-size input until `--seconds`
//! have passed and reports the end-to-end metrics; `--trace 1` runs the
//! outside-in per-layer legs and reports the per-layer metrics and the
//! layer budget. Every run checks its results against a lone-engine
//! replay. The last line of standard output is the JSON result; a failed
//! check names the workload and the check and exits 1. See README.md.

mod drive;
mod layers;
mod report;
mod workload;

use drive::TempDir;
use report::{interquartile_mean, median, quantile, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Oracle, Workload};

/// Repetitions at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Set-up samples at least (extra set-ups run after the timed repetitions).
const MIN_SETUPS: usize = 5;

/// Share of a repetition's CPU time the hypervisor may steal for it to
/// count as clean.
const STEAL_SHARE: f64 = 0.01;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Where runs keep their data dirs, relative to the working directory.
const SCRATCH: &str = ".rrsbench-tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--out" => out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        out,
    })
}

/// A finished run: the result line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    report: Report,
    error: Option<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rrsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = if args.workload == "all" {
        workload::all()
    } else {
        match workload::by_name(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("rrsbench: unknown workload {}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let root = Path::new(SCRATCH).join(format!("run-{}", std::process::id()));
    let mut ok = true;
    let mut lines = Vec::new();
    for w in &workloads {
        let outcome = run(w, &args, &root);
        outcome.report.print_table(w.name);
        if let Some(e) = &outcome.error {
            eprintln!("rrsbench: workload {}: check failed: {e}", w.name);
        }
        ok &= outcome.correct;
        lines.push(report::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.report,
        ));
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(SCRATCH);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, lines.join("\n") + "\n") {
            eprintln!("rrsbench: write {}: {e}", path.display());
            ok = false;
        }
    }
    for line in &lines {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(w: &Workload, args: &Args, root: &Path) -> Outcome {
    let reference = w.generate(args.seed);
    let oracle = match Oracle::replay(&reference) {
        Ok(o) => o,
        Err(e) => return failed(0, 0, format!("oracle: {e}")),
    };
    if let Err(e) = workload::check_oracle(&reference, &oracle) {
        return failed(0, 0, e);
    }
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        return match layers::traced(w, args.seed, &reference, &oracle, root, budget) {
            Ok((report, attempted)) => Outcome {
                correct: true,
                attempted,
                failed: 0,
                report,
                error: None,
            },
            Err(e) => failed(
                reference.epochs.len() as u64,
                reference.epochs.len() as u64,
                e,
            ),
        };
    }
    end_to_end(w, args.seed, &reference, &oracle, root, budget)
}

fn failed(attempted: u64, failed: u64, error: String) -> Outcome {
    Outcome {
        correct: false,
        attempted: attempted.max(1),
        failed: failed.max(1),
        report: Report::default(),
        error: Some(error),
    }
}

/// Repeats the fixed-size input until `budget` has passed (and at least
/// `MIN_REPS` times) and reports, over the repetitions that ran clean, the
/// interquartile mean of each one's throughput, ack latency percentiles,
/// restart times and set-up time. Not the median: on `small-epochs` a
/// repetition's median ack latency falls in one of two modes about a
/// third apart, in near-equal shares, so a median over repetitions jumps
/// between the modes from run to run.
///
/// The benchmark's host is shared: while another guest holds a CPU, every
/// hand-off between this process's threads waits for it, which slowed
/// repetitions on a two-vCPU guest by up to 4x. A repetition runs clean
/// when the hypervisor stole at most 1% of its CPU time; when fewer than a
/// quarter did (or fewer than `MIN_REPS`), the quarter that lost least is
/// kept instead. Steal never speeds a repetition up, and it is measured
/// outside the program, so choosing repetitions by it keeps the figures
/// about the program without choosing them by their result.
fn end_to_end(
    w: &Workload,
    seed: u64,
    reference: &workload::Input,
    oracle: &Oracle,
    root: &Path,
    budget: Duration,
) -> Outcome {
    let epochs = reference.epochs.len() as u64;
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss = 0.0;
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let dir = match TempDir::new(root, "data") {
            Ok(d) => d,
            Err(e) => return failed(epochs * (reps.len() as u64 + 1), epochs, e),
        };
        match drive::rep(w, seed, reference, oracle, dir.path(), false) {
            Ok(rep) => reps.push(rep),
            Err(f) => {
                let attempted = epochs * (reps.len() as u64 + 1);
                return failed(attempted, epochs - f.acked, f.check);
            }
        }
        // The peak over one pass: later passes only add allocator
        // fragmentation, and their number depends on the machine's speed.
        if reps.len() == 1 {
            peak_rss = match report::peak_rss_mib() {
                Ok(v) => v,
                Err(e) => return failed(epochs, 0, e),
            };
        }
    }
    let attempted = epochs * reps.len() as u64;
    let acked: u64 = reps.iter().map(|r| r.drive.acked).sum();
    let all_steal: u64 = reps.iter().map(|r| r.steal).sum();
    for r in &reps {
        eprintln!(
            "{:<16} pass: steal {:>4} ticks, {:>12.1} jobs/s, ack p50 {:.4} ms, p99 {:.4} ms, recovery {:.3?} ms",
            w.name,
            r.steal,
            r.jobs as f64 / r.drive.elapsed.as_secs_f64(),
            quantile(&r.drive.ack_ns, 0.5) as f64 / 1e6,
            quantile(&r.drive.ack_ns, 0.99) as f64 / 1e6,
            r.recovery_ms,
        );
    }
    let total = reps.len();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let clean =
        |r: &drive::Rep| r.steal as f64 / USER_HZ <= STEAL_SHARE * r.wall.as_secs_f64() * cpus;
    let fewest = total.div_ceil(4).max(MIN_REPS);
    if reps.iter().filter(|r| clean(r)).count() >= fewest {
        reps.retain(clean);
    } else {
        reps.sort_by_key(|r| r.steal);
        reps.truncate(fewest);
    }

    let mut setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setup_s.len() < MIN_SETUPS {
        let dir = match TempDir::new(root, "setup") {
            Ok(d) => d,
            Err(e) => return failed(attempted, 0, e),
        };
        match drive::setup(w, seed, dir.path()) {
            Ok((_, _session, secs)) => setup_s.push(secs),
            Err(e) => return failed(attempted, 0, format!("set-up: {e}")),
        }
    }
    // Each pass's own p99 needs at least ten samples beyond it.
    if epochs < 1000 {
        return failed(
            attempted,
            0,
            format!("only {epochs} acks per pass, p99 needs 1000"),
        );
    }
    let ack_ms = |q: f64| {
        interquartile_mean(
            &reps
                .iter()
                .map(|r| quantile(&r.drive.ack_ns, q) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let samples = reps.len() * epochs as usize;
    let jobs_per_s: Vec<f64> = reps
        .iter()
        .map(|r| r.jobs as f64 / r.drive.elapsed.as_secs_f64())
        .collect();
    let recovery_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.recovery_ms.iter().copied())
        .collect();
    let mut report = Report::default();
    report.add_sampled(
        "jobs_per_s",
        interquartile_mean(&jobs_per_s),
        "jobs/s",
        reps.len(),
    );
    report.add_sampled("ack_p50_ms", ack_ms(0.50), "ms", samples);
    report.add_sampled("ack_p99_ms", ack_ms(0.99), "ms", samples);
    report.add_sampled(
        "recovery_ms",
        interquartile_mean(&recovery_ms),
        "ms",
        recovery_ms.len(),
    );
    report.add("peak_rss_mb", peak_rss, "MiB");
    report.add_sampled("setup_s", interquartile_mean(&setup_s), "s", setup_s.len());
    let quarters: Vec<f64> = (0..4)
        .map(|q| {
            let range = q * epochs as usize / 4..(q + 1) * epochs as usize / 4;
            let quarter: Vec<u64> = reps
                .iter()
                .flat_map(|r| r.drive.ack_ns[range.clone()].iter().copied())
                .collect();
            (report::mean(&quarter) / 1e4).round() / 100.0
        })
        .collect();
    let kept_steal: u64 = reps.iter().map(|r| r.steal).sum();
    eprintln!(
        "{:<16} {total} repetitions of {epochs} epochs ({} jobs each), {} kept with {kept_steal} of \
         {all_steal} stolen ticks ({cpus} CPUs); error_rate {:.4} ({} of {attempted} epochs failed); storage \
         bytes/job {:.1}; mean ack ms by quarter of the input {quarters:?}",
        w.name,
        reference.jobs,
        reps.len(),
        (attempted - acked) as f64 / attempted as f64,
        attempted - acked,
        median(&reps.iter().map(|r| r.disk_bytes as f64 / r.jobs as f64).collect::<Vec<_>>()),
    );
    Outcome {
        correct: true,
        attempted,
        failed: attempted - acked,
        report,
        error: None,
    }
}
