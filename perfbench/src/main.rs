//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pair-paper|series-evolve|pair-truth [--seed 1851] \
//!     [--seconds 12] [--trace 0|1]
//! ```
//!
//! `--trace 0` times the workload's job untraced and prints the
//! end-to-end metrics; `--trace 1` runs the traced per-layer probe and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, a stamped copy of the result goes to `.bench_out/`, and
//! the exit code is nonzero if any call into the program failed.

mod layers;
mod spans;
mod stats;
mod workload;

use linkage_core::LinkageConfig;
use serde_json::{json, Value};
use spans::Tracer;
use stats::{median, paired_overhead_pct, Calls};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{check_job, run_job, setup, Fingerprint, Inputs, JobOutput, Workload};

// The counting allocator the CLI installs too; dormant (two relaxed
// loads per allocation) until a collector asks for memory tracking.
#[global_allocator]
static ALLOC: obs::CountingAlloc = obs::CountingAlloc::system();

/// Generator seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1851;
/// Timed-loop length when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`, which a self-test keeps equal.
const DEFAULT_SECONDS: u64 = 12;
/// Set-up repetitions per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Fewest timed jobs per untraced invocation, however long they take;
/// also the fewest (untraced, traced) rounds of a traced invocation.
const MIN_JOBS: usize = 3;
/// Fresh processes whose mean peak resident set is `peak_rss_mb`.
const RSS_CHILDREN: usize = 5;
/// Where stamped results and span files go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics, in `BENCHMARK.json` order: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MiB"),
    ("record_f1", "ratio"),
    ("group_f1", "ratio"),
    ("setup_s", "s"),
    ("ok_share", "ratio"),
];

/// The per-layer metrics, in `BENCHMARK.json` order: name and unit.
const PER_LAYER: [(&str, &str); 40] = [
    ("synth.generate_s", "s"),
    ("synth.records", "count"),
    ("enrich.build_all_s", "s"),
    ("enrich.graphs", "count"),
    ("enrich.edges", "count"),
    ("textsim.compile_s", "s"),
    ("textsim.profiles", "count"),
    ("blocking.candidate_pairs_s", "s"),
    ("blocking.pairs", "count"),
    ("blocking.pairs_generated", "count"),
    ("pairscore.build_s", "s"),
    ("prematch.pairs_scored", "count"),
    ("prematch.ns_per_pair", "ns"),
    ("prematch.early_exit_ratio", "ratio"),
    ("prematch.batch_dedup_rate", "ratio"),
    ("pair_cache.hit_ratio", "ratio"),
    ("prematch.call_s", "s"),
    ("cluster.derived_s", "s"),
    ("phase.enrich_s", "s"),
    ("phase.prematch_s", "s"),
    ("phase.subgraph_s", "s"),
    ("phase.selection_s", "s"),
    ("phase.remainder_s", "s"),
    ("phase.unattributed_s", "s"),
    ("selection.candidates", "count"),
    ("selection.group_links", "count"),
    ("remainder.links", "count"),
    ("timeline.mean_utilization", "ratio"),
    ("timeline.plan_skew_ratio", "ratio"),
    ("mem.peak_live_mb", "MiB"),
    ("mem.prematch_alloc_mb", "MiB"),
    ("mem.subgraph_alloc_mb", "MiB"),
    ("mem.footprint_explained_share", "ratio"),
    ("evolution.graph_build_s", "s"),
    ("evolution.detect_s", "s"),
    ("evolution.chains_s", "s"),
    ("evolution.vertices", "count"),
    ("obs.collector_overhead_pct", "%"),
    ("obs.quality_replay_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as one of the fresh processes behind `peak_rss_mb`.
    rss_child: bool,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    fn take(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
        let Some(pos) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    }
    fn number<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<Option<T>, String> {
        v.map(|s| {
            s.parse()
                .map_err(|_| format!("{flag} needs a number, got {s:?}"))
        })
        .transpose()
    }
    let name = take(&mut args, "--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    let seed = number("--seed", take(&mut args, "--seed")?)?.unwrap_or(DEFAULT_SEED);
    let seconds = number("--seconds", take(&mut args, "--seconds")?)?.unwrap_or(DEFAULT_SECONDS);
    let trace = match take(&mut args, "--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let rss_child = match args.iter().position(|a| a == "--rss-child") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    if !args.is_empty() {
        return Err(format!("unknown arguments: {args:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rss_child,
    })
}

/// Facts about the host and build that every result carries.
fn host_facts(args: &Args, config: &LinkageConfig, nproc: usize) -> Value {
    json!({
        "nproc": (nproc),
        "ram_mib": (meminfo_total_mib().unwrap_or(0)),
        "threads": (config.threads),
        "rustc": (env!("PERFBENCH_RUSTC")),
        "git_commit": (git_commit().unwrap_or_else(|| "unknown".to_owned())),
        "seed": (args.seed),
        "workload": (args.workload.name()),
        "seconds": (args.seconds),
        "trace": (args.trace)
    })
}

fn meminfo_total_mib() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kib: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// Peak resident set of this process so far, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// `--rss-child`: set up once, run the job once, check it and print
/// `rss <peak MiB> <attempted> <failed>` — one fresh-process run, the
/// way a CLI invocation pays for it.
fn rss_child(args: &Args, config: &LinkageConfig) -> ExitCode {
    let mut calls = Calls::default();
    let mut off = Tracer::disabled();
    let inputs = setup(args.workload, args.seed, &mut off);
    if let Some(out) = run_job(args.workload, &inputs, config, &mut calls, &mut off) {
        let (failed, notes) = check_job(&inputs, &out, &Fingerprint::of(&out));
        calls.failed += failed;
        for n in notes {
            eprintln!("check failed: {n}");
        }
    }
    let Some(rss) = peak_rss_mib() else {
        eprintln!("perfbench: no peak resident set in /proc/self/status");
        return ExitCode::FAILURE;
    };
    println!("rss {rss} {} {}", calls.attempted, calls.failed);
    if calls.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Mean peak resident set of `RSS_CHILDREN` fresh processes that each
/// run the job once. A single process's peak is unsteady: it grows with
/// the number of jobs it ran and with how the allocator's per-thread
/// arenas happened to fragment, and across fresh processes it takes a
/// few discrete values (an arena grows by one more heap or not), which
/// a median would flip between; a mean moves by a fraction of a step.
/// The children's calls count as calls.
fn child_peak_rss(args: &Args, calls: &mut Calls) -> Option<(f64, Vec<f64>)> {
    let exe = std::env::current_exe().ok()?;
    let mut peaks = Vec::with_capacity(RSS_CHILDREN);
    for _ in 0..RSS_CHILDREN {
        let parsed = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--rss-child"])
            .args(["--seed", &args.seed.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| parse_rss_line(&String::from_utf8_lossy(&o.stdout)));
        match parsed {
            Some((rss, attempted, failed)) => {
                calls.attempted += attempted;
                calls.failed += failed;
                peaks.push(rss);
            }
            None => {
                calls.attempted += 1;
                calls.failed += 1;
            }
        }
    }
    if peaks.is_empty() {
        return None;
    }
    let mean = peaks.iter().sum::<f64>() / peaks.len() as f64;
    Some((mean, peaks))
}

/// Parse a child's `rss <MiB> <attempted> <failed>` line.
fn parse_rss_line(stdout: &str) -> Option<(f64, u64, u64)> {
    let mut words = stdout.lines().last()?.strip_prefix("rss ")?.split(' ');
    let rss = words.next()?.parse().ok()?;
    let attempted = words.next()?.parse().ok()?;
    let failed = words.next()?.parse().ok()?;
    Some((rss, attempted, failed))
}

/// Set up the workload `SETUP_REPEATS` times, keeping the last inputs;
/// returns them with the median set-up time.
fn timed_setup(args: &Args, tr: &mut Tracer) -> (Inputs, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // drop the previous copy first, so the peak holds one input set
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(setup(args.workload, args.seed, tr));
        times.push(start.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), times)
}

/// The fingerprint every job of the invocation must reproduce, and the
/// reference output the quality metrics come from. On `pair-truth` the
/// expected mappings are those of a plain, collector-disabled run.
fn reference(
    args: &Args,
    inputs: &Inputs,
    config: &LinkageConfig,
    calls: &mut Calls,
) -> Option<(Fingerprint, JobOutput)> {
    let mut off = Tracer::disabled();
    let expected = if args.workload == Workload::PairTruth {
        // pair-paper's job is a plain link of every pair
        let plain = run_job(Workload::PairPaper, inputs, config, calls, &mut off)?;
        Some(Fingerprint::of(&plain))
    } else {
        None
    };
    let out = run_job(args.workload, inputs, config, calls, &mut off)?;
    let expected = expected.unwrap_or_else(|| Fingerprint::of(&out));
    Some((expected, out))
}

/// Run one timed job and check it; returns its wall time in seconds.
fn timed_job(
    args: &Args,
    inputs: &Inputs,
    config: &LinkageConfig,
    expected: &Fingerprint,
    calls: &mut Calls,
    tr: &mut Tracer,
) -> Option<f64> {
    let start = Instant::now();
    let out = run_job(args.workload, inputs, config, calls, tr);
    let elapsed = start.elapsed().as_secs_f64();
    let out = out?;
    let (failed, notes) = check_job(inputs, &out, expected);
    calls.failed += failed;
    for n in notes {
        eprintln!("check failed: {n}");
    }
    Some(elapsed)
}

/// Outcome of one invocation: metric values by name and the samples
/// behind them.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    samples: Value,
}

fn untraced(args: &Args, config: &LinkageConfig, calls: &mut Calls) -> Option<Outcome> {
    let mut off = Tracer::disabled();
    let (inputs, setup_times) = timed_setup(args, &mut off);
    let (expected, warm) = reference(args, &inputs, config, calls)?;
    let (failed, notes) = check_job(&inputs, &warm, &expected);
    calls.failed += failed;
    for n in notes {
        eprintln!("check failed: {n}");
    }
    let (record_q, group_q) = workload::pooled_quality(&inputs, &warm);
    drop(warm);
    let (peak_rss, child_peaks) = child_peak_rss(args, calls)?;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || start.elapsed() < budget {
        jobs.push(timed_job(
            args, &inputs, config, &expected, calls, &mut off,
        )?);
    }
    let wall = median(&jobs);
    let metrics = BTreeMap::from([
        ("wall_s", wall),
        ("records_per_s", inputs.pair_records() as f64 / wall),
        ("peak_rss_mb", peak_rss),
        ("record_f1", record_q.f1),
        ("group_f1", group_q.f1),
        ("setup_s", median(&setup_times)),
        ("ok_share", calls.ok_share()),
    ]);
    Some(Outcome {
        metrics: with_units(&END_TO_END, &metrics),
        samples: json!({
            "job_s": (jobs),
            "child_peak_rss_mb": (child_peaks),
            "setup_s": (setup_times),
            "records": (inputs.pair_records()),
            "failed_share": (calls.failed_share())
        }),
    })
}

fn traced(
    args: &Args,
    config: &LinkageConfig,
    calls: &mut Calls,
    tr: &mut Tracer,
) -> Option<Outcome> {
    let inputs = tr.span("setup", |tr| setup(args.workload, args.seed, tr));
    let (expected, _) = reference(args, &inputs, config, calls)?;
    // the job untraced and traced, interleaved for the tracing overhead,
    // for --seconds; the per-layer probe follows
    let mut off = Tracer::disabled();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let (budget, start) = (Duration::from_secs(args.seconds), Instant::now());
    while plain.len() < MIN_JOBS || start.elapsed() < budget {
        // alternate which side runs first
        let traced_first = plain.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            if traced {
                let t = tr.span("job", |tr| {
                    timed_job(args, &inputs, config, &expected, calls, tr)
                })?;
                spanned.push(t);
            } else {
                plain.push(timed_job(
                    args, &inputs, config, &expected, calls, &mut off,
                )?);
            }
        }
    }
    let mut metrics = tr.span("probe", |tr| {
        layers::probe(&inputs, config, calls, tr, budget)
    });
    metrics.insert(
        "bench.trace_overhead_pct",
        paired_overhead_pct(&spanned, &plain),
    );
    Some(Outcome {
        metrics: with_units(&PER_LAYER, &metrics),
        samples: json!({
            "untraced_job_s": (plain),
            "traced_job_s": (spanned)
        }),
    })
}

/// The metrics of `table`, in its order, with their units.
///
/// # Panics
///
/// Panics if `values` lacks a metric of the table.
fn with_units(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(calls: &Calls, metrics: &[(&'static str, &'static str, f64)]) -> Value {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                Value::Str(name.to_owned()),
                json!({"value": (value), "unit": (unit)}),
            )
        })
        .collect();
    json!({
        "correct": (calls.failed == 0),
        "attempted": (calls.attempted),
        "failed": (calls.failed),
        "metrics": (Value::Map(metrics))
    })
}

fn write_out(name: &str, value: &Value) {
    let path = std::path::Path::new(OUT_DIR).join(name);
    let text = serde_json::to_string_pretty(value).expect("finite metrics serialize") + "\n";
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // the default thread count is min(nproc, 8); refuse it should it
    // ever exceed the cores this host has
    let config = LinkageConfig::default();
    if config.threads == 0 || config.threads > nproc {
        eprintln!(
            "perfbench: refusing to run {} worker thread(s) on {nproc} core(s)",
            config.threads
        );
        return ExitCode::from(2);
    }
    if args.rss_child {
        return rss_child(&args, &config);
    }
    let host = host_facts(&args, &config, nproc);
    println!(
        "host {}",
        serde_json::to_string(&host).expect("host facts serialize")
    );

    let mut calls = Calls::default();
    let run_id = format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let mut tr = Tracer::enabled(run_id);
    let outcome = if args.trace {
        traced(&args, &config, &mut calls, &mut tr)
    } else {
        untraced(&args, &config, &mut calls)
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        tr.close_all();
        for (name, t) in tr.layer_times() {
            eprintln!(
                "span {name:<32} calls {:>4}  total {:>9.4} s  self {:>9.4} s",
                t.calls,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        write_out(&format!("spans-{stem}.json"), &tr.to_json());
    }
    let Some(outcome) = outcome else {
        eprintln!(
            "perfbench: a call into the program panicked ({} of {} failed)",
            calls.failed, calls.attempted
        );
        println!(
            "{}",
            serde_json::to_string(&result_json(&calls, &[])).expect("serializes")
        );
        return ExitCode::FAILURE;
    };
    for &(name, unit, value) in &outcome.metrics {
        eprintln!("{name:<32} {value:>14.6} {unit}");
    }
    eprintln!(
        "failed_share {} ({} of {} calls)",
        calls.failed_share(),
        calls.failed,
        calls.attempted
    );
    let result = result_json(&calls, &outcome.metrics);
    write_out(
        &format!("result-{stem}.json"),
        &json!({"host": (host), "result": (result.clone()), "samples": (outcome.samples)}),
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("finite metrics serialize")
    );
    if calls.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let Value::Map(entries) = v else {
            panic!("BENCHMARK.json is an object")
        };
        let (_, value) = entries
            .iter()
            .find(|(k, _)| *k == Value::Str(key.to_owned()))
            .expect("key present");
        value
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Seq(items) = field(v, key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|item| {
                let Value::Map(fields) = item else {
                    panic!("metric is an object")
                };
                let get = |f: &str| match fields.iter().find(|(k, _)| *k == Value::Str(f.into())) {
                    Some((_, Value::Str(s))) => s.clone(),
                    _ => String::new(),
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = serde_json::parse(&text).expect("valid JSON");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&spec, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
        let run_seconds = match field(&spec, "run_seconds") {
            Value::I64(n) => u64::try_from(*n).ok(),
            Value::U64(n) => Some(*n),
            _ => None,
        };
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn arguments_parse_and_reject_mistakes() {
        let a = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let args = parse_args(a("--workload pair-truth --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(args.workload, Workload::PairTruth);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        let args = parse_args(a("--workload series-evolve")).unwrap();
        assert_eq!((args.seed, args.trace), (DEFAULT_SEED, false));
        assert!(parse_args(a("--workload nope")).is_err());
        assert!(parse_args(a("--workload pair-paper --trace 2")).is_err());
        assert!(parse_args(a("--workload pair-paper --bogus 1")).is_err());
        assert!(parse_args(a("--seed 1")).is_err());
        assert!(
            parse_args(a("--workload pair-paper --rss-child"))
                .unwrap()
                .rss_child
        );
    }

    #[test]
    fn rss_child_line_parses() {
        assert_eq!(
            parse_rss_line("noise\nrss 101.5 6 0\n"),
            Some((101.5, 6, 0))
        );
        assert_eq!(parse_rss_line("rss x 1 0"), None);
        assert_eq!(parse_rss_line(""), None);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let calls = Calls {
            attempted: 4,
            failed: 1,
        };
        let line = serde_json::to_string(&result_json(&calls, &[("wall_s", "s", 1.25)])).unwrap();
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":4,"failed":1,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
