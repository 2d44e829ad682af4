//! DHARMA's end-to-end benchmark: the paper's tagging and faceted-search
//! workloads, timed through the client primitives and an exact-latency
//! read driver, with correctness checks. See `benchmark/README.md`.
//!
//! ```text
//! dharma-e2e-bench --workload <tag-replay|search-zipf|mixed-geo>
//!                  --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run pools `Workload::instances` instances, each a fixed overlay with
//! inputs generated from the seed. It repeats whole rounds (set-up, timed
//! phase, checks), cycling through the instances, until `--seconds` have
//! passed and every instance ran once. `ops_per_s` is the 90th percentile
//! of the timed phases' throughput in short windows; other wall-clock
//! metrics are medians over the rounds. Every other metric is
//! deterministic at a seed and pooled over each instance's first round;
//! repeated rounds must agree on it exactly, or the run fails. With
//! `--trace 1`, rounds of instance 0 alternate between untraced and
//! traced, and the output is the per-layer metrics plus the tracing
//! overhead. The last line of standard output is one JSON object.

mod checks;
mod inputs;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use inputs::Workload;
use run::{run_round, RoundTimes};
use stats::{median, percentile, Metric};

const USAGE: &str =
    "usage: dharma-e2e-bench --workload <tag-replay|search-zipf|mixed-geo> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    // Rounds keep only what the report needs, so memory stays one round's.
    let mut rounds: Vec<Done> = Vec::new();
    let mut inputs_lines = Vec::new();
    let mut layers: Option<Vec<Metric>> = None;
    let mut peak_rss_mb = 0.0;
    // Every instance runs at least once, however short `--seconds` is.
    let instances = args.workload.instances();
    loop {
        let i = rounds.len() as u64;
        // Untraced runs cycle through the instances; traced runs alternate
        // untraced and traced rounds of instance 0, the overhead's base.
        let (instance, traced) = if args.trace {
            (0, i % 2 == 1)
        } else {
            (i % instances, false)
        };
        let mut round = run_round(args.workload, args.seed, instance, traced);
        checks::after_round(&mut round);
        if !rounds.iter().any(|r| r.instance == instance) {
            let (writes, sessions) = round.inputs.op_counts();
            inputs_lines.push(format!(
                "inputs: workload {} seed {} instance {instance}: {writes} writes, {sessions} sessions, {} preload blocks, {} distinct keys",
                args.workload.name(),
                args.seed,
                round.inputs.preload.len(),
                round.inputs.distinct_keys()
            ));
        }
        eprintln!(
            "round {i}: instance {instance}{}, set-up {:.4} s, {} timed ops in {:.4} s",
            if traced { " traced" } else { "" },
            round.times.setup_s(),
            round.tally.timed_ops,
            round.times.ops_s
        );
        if traced && layers.is_none() {
            layers = Some(trace::layer_metrics(&mut round));
        }
        rounds.push(Done {
            instance,
            tally: round.tally,
            times: round.times,
            rates: round.rates,
            traced,
        });
        if rounds.len() as u64 == instances {
            // The peak of one pass over every instance: later rounds
            // repeat work, and their count depends on wall time.
            peak_rss_mb = dharma_sim::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        }
        let min_rounds = if args.trace { 2 } else { instances as usize };
        if rounds.len() >= min_rounds && started.elapsed().as_secs() >= args.seconds {
            break;
        }
    }

    // Determinism: every round must tally exactly like the first round of
    // its instance.
    let mut violations: Vec<String> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        violations.extend(r.tally.violations.iter().cloned());
        let first = rounds
            .iter()
            .find(|f| f.instance == r.instance)
            .expect("r itself matches");
        if format!("{:?}", r.tally) != format!("{:?}", first.tally) {
            violations.push(format!(
                "round {i} tallied differently from the first round of instance {}",
                r.instance
            ));
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.tally.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.tally.failed).sum();

    for line in &inputs_lines {
        println!("{line}");
    }
    let firsts = first_rounds(&rounds);
    println!(
        "ran: {} rounds; per instance {} ops ({} inserts, {} tags, {} search steps in {} sessions)",
        rounds.len(),
        sum(&firsts, |t| t.ops) / firsts.len() as u64,
        sum(&firsts, |t| t.inserts) / firsts.len() as u64,
        sum(&firsts, |t| t.tags) / firsts.len() as u64,
        sum(&firsts, |t| t.steps) / firsts.len() as u64,
        sum(&firsts, |t| t.sessions) / firsts.len() as u64,
    );
    let metrics = match layers {
        Some(mut layers) => {
            layers.extend(timing_layers(&rounds));
            layers
        }
        None => end_to_end(&rounds, peak_rss_mb),
    };
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for v in &violations {
        println!("violation: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a finished round leaves behind.
struct Done {
    instance: u64,
    tally: run::Tally,
    times: RoundTimes,
    rates: Vec<f64>,
    traced: bool,
}

/// The first round of each instance, in instance order.
fn first_rounds(rounds: &[Done]) -> Vec<&Done> {
    let mut firsts: Vec<&Done> = Vec::new();
    for r in rounds {
        if !firsts.iter().any(|f| f.instance == r.instance) {
            firsts.push(r);
        }
    }
    firsts
}

fn sum(rounds: &[&Done], f: impl Fn(&run::Tally) -> u64) -> u64 {
    rounds.iter().map(|r| f(&r.tally)).sum()
}

/// A wall-clock figure: the median over the rounds, or over the traced or
/// untraced ones only.
fn wall(rounds: &[Done], traced: Option<bool>, f: impl Fn(&Done) -> f64) -> f64 {
    let v: Vec<f64> = rounds
        .iter()
        .filter(|r| traced.is_none_or(|t| r.traced == t))
        .map(f)
        .collect();
    median(&v)
}

/// The 90th percentile of the timed phases' throughput, sampled in short
/// windows over every round. On a shared host other processes slow the
/// program by about a third, for a fraction of a second to minutes at a
/// time; a high percentile follows the program's speed rather than how
/// much of a run such slowdowns happen to cover.
fn throughput(rounds: &[Done]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.rates.iter().copied())
        .collect();
    percentile(&rates, 0.9)
}

/// Per-layer metrics that need every round's timing: set-up parts,
/// event throughput, and the tracing overhead (traced against untraced
/// timed phases of the same instance).
fn timing_layers(rounds: &[Done]) -> Vec<Metric> {
    let untraced_s = wall(rounds, Some(false), |r| r.times.ops_s);
    let traced_s = wall(rounds, Some(true), |r| r.times.ops_s);
    let events = rounds[0].tally.timed.events as f64;
    vec![
        Metric::new("net.events_per_s", events / untraced_s, "events/s"),
        Metric::new(
            "dataset.generate_s",
            wall(rounds, None, |r| r.times.generate_s),
            "s",
        ),
        Metric::new(
            "overlay.build_s",
            wall(rounds, None, |r| r.times.build_s),
            "s",
        ),
        Metric::new("preload_s", wall(rounds, None, |r| r.times.preload_s), "s"),
        Metric::new(
            "trace.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// End-to-end metrics: wall-clock ones over every round, every other one
/// pooled over the first round of each instance.
fn end_to_end(rounds: &[Done], peak_rss_mb: f64) -> Vec<Metric> {
    let firsts = first_rounds(rounds);
    let ops = sum(&firsts, |t| t.ops).max(1) as f64;
    let timed_ops = sum(&firsts, |t| t.timed_ops).max(1) as f64;
    let step_ms: Vec<f64> = firsts
        .iter()
        .flat_map(|r| r.tally.step_virtual_us.iter().map(|&u| u as f64 / 1e3))
        .collect();
    let written_reads = sum(&firsts, |t| t.written_reads);
    let fresh = if written_reads == 0 {
        1.0
    } else {
        1.0 - sum(&firsts, |t| t.stale_reads) as f64 / written_reads as f64
    };
    let mean = |f: fn(&run::Tally) -> f64| {
        firsts.iter().map(|r| f(&r.tally)).sum::<f64>() / firsts.len() as f64
    };
    vec![
        Metric::new("ops_per_s", throughput(rounds), "ops/s"),
        Metric::new("search_p50_ms", percentile(&step_ms, 0.5), "ms"),
        Metric::new("search_p99_ms", percentile(&step_ms, 0.99), "ms"),
        Metric::new(
            "lookups_per_op",
            sum(&firsts, |t| t.timed_lookups) as f64 / timed_ops,
            "lookups",
        ),
        Metric::new(
            "msgs_per_op",
            sum(&firsts, |t| t.timed.sent) as f64 / timed_ops,
            "msgs",
        ),
        Metric::new(
            "bytes_per_op",
            sum(&firsts, |t| t.timed.bytes) as f64 / timed_ops,
            "bytes",
        ),
        Metric::new("max_load_ratio", mean(|t| t.max_load_ratio), "ratio"),
        Metric::new("max_store_ratio", mean(|t| t.max_store_ratio), "ratio"),
        Metric::new(
            "ok_ratio",
            1.0 - sum(&firsts, |t| t.failed) as f64 / ops,
            "ratio",
        ),
        Metric::new("fresh_read_ratio", fresh, "ratio"),
        Metric::new("setup_s", wall(rounds, None, |r| r.times.setup_s()), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}
