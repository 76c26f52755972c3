//! One benchmark invocation: rounds of a workload, then the report.

use std::time::{Duration, Instant};

use crate::ladder;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, ratio, relative_spread, Samples};
use crate::sys;
use crate::system::COUNTER_NAMES;
use crate::trace::{self, Span};
use crate::workloads::{run_round, Inputs, NamingProbe, Round, RoundSpec, Tally, Workload};

/// Measured rounds of an untraced run of `w`. Each builds its own
/// testbed, so the rounds see as many thread placements; a metric is the
/// median of its per-round values, which a round hit by outside
/// interference cannot move. `churn` has fewer, longer rounds: each of its
/// rounds ends with the first relocation's recovery (see `README.md`).
#[must_use]
pub fn rounds(w: Workload) -> usize {
    if w == Workload::Churn {
        5
    } else {
        10
    }
}

/// A per-round percentile is used only with this many samples beyond it;
/// otherwise the rounds' samples are pooled.
pub const ROUND_MIN_BEYOND: usize = 100;

/// Extra set-ups per run, timed through the first completed op and torn
/// down at once: `setup_s` is the median of these and the rounds' set-ups.
pub const EXTRA_SETUPS: usize = 30;

/// Command-line settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall time of the measured phase, all rounds together.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Where span files go: `out/` beside this package's manifest.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the benchmark and prints its report; returns the exit code.
#[must_use]
pub fn run(s: Settings) -> i32 {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} parallelism={}",
        s.workload.name(),
        s.seed,
        s.seconds,
        u8::from(s.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let inputs = Inputs::generate(s.workload, s.seed);
    let outcome = if s.trace {
        traced(s, &inputs)
    } else {
        untraced(s, &inputs)
    };
    let (report, tally, declared) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", s.workload.name());
            return 2;
        }
    };
    for e in &tally.errors {
        println!("error {e}");
    }
    print!("{}", report.render_lines());
    let missing = report.missing(declared);
    if !missing.is_empty() {
        eprintln!("perfbench: declared metrics not measured: {missing:?}");
    }
    let correct = tally.wrong == 0;
    println!(
        "{}",
        report.render_json(
            correct,
            tally.attempted,
            tally.failed + tally.wrong,
            declared
        )
    );
    i32::from(!correct)
}

type Outcome = Result<(Report, Tally, &'static [&'static str]), String>;

fn untraced(s: Settings, inputs: &Inputs) -> Outcome {
    let measured_rounds = rounds(s.workload);
    let length = Duration::from_secs(s.seconds) / measured_rounds as u32;
    let epoch = Instant::now();
    let mut setups = Vec::with_capacity(measured_rounds + EXTRA_SETUPS);
    let mut rounds = Vec::with_capacity(measured_rounds);
    for round in 0..measured_rounds + EXTRA_SETUPS {
        let measured = round < measured_rounds;
        let r = run_round(
            s.workload,
            inputs,
            RoundSpec {
                round,
                length: if measured { length } else { Duration::ZERO },
                traced: false,
                probe_naming: false,
                epoch,
            },
        )?;
        setups.push(r.setup_s);
        if measured {
            rounds.push(r.tally);
        }
    }
    let mut report = Report::default();
    end_to_end(&mut report, s.workload, &setups, &rounds);
    let mut tally = Tally::default();
    for t in rounds {
        tally.merge(t);
    }
    Ok((report, tally, END_TO_END))
}

/// The median over rounds of a per-round value, noted with the rounds'
/// interquartile range as a share of it.
fn put_round_median(r: &mut Report, name: &str, per_round: &[f64], unit: &'static str, note: &str) {
    match median(per_round) {
        Some(v) => {
            let spread = relative_spread(per_round).unwrap_or(0.0);
            r.put_noted(
                name,
                v,
                unit,
                format!("median of {}, spread {spread:.3}; {note}", per_round.len()),
            );
        }
        None => r.put_absent(name, note),
    }
}

/// A latency percentile: the median of the rounds' percentiles when every
/// round has [`ROUND_MIN_BEYOND`] samples beyond it, else the percentile
/// of all rounds' samples pooled.
fn put_latency(r: &mut Report, name: &str, rounds: &[Tally], per_mille: usize) {
    let per_round: Vec<_> = rounds
        .iter()
        .map(|t| Samples::new(t.latencies_us.clone()).percentile(per_mille))
        .collect();
    if per_round
        .iter()
        .all(|p| p.is_some_and(|p| p.beyond >= ROUND_MIN_BEYOND))
    {
        let values: Vec<f64> = per_round.iter().flatten().map(|p| p.value).collect();
        let fewest = per_round
            .iter()
            .flatten()
            .map(|p| p.samples)
            .min()
            .unwrap_or(0);
        let beyond = per_round
            .iter()
            .flatten()
            .map(|p| p.beyond)
            .min()
            .unwrap_or(0);
        put_round_median(
            r,
            name,
            &values,
            "us",
            &format!("n>={fewest} beyond>={beyond} per round"),
        );
    } else {
        let pooled: Vec<f64> = rounds
            .iter()
            .flat_map(|t| t.latencies_us.iter().copied())
            .collect();
        r.put_percentile(name, Samples::new(pooled).percentile(per_mille), "us");
    }
}

/// The end-to-end metrics that apply to `w`.
fn end_to_end(r: &mut Report, w: Workload, setups: &[f64], rounds: &[Tally]) {
    put_round_median(r, "setup_s", setups, "s", "testbed start through first op");
    let per_round = |f: &dyn Fn(&Tally) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let ops: u64 = rounds.iter().map(|t| t.ops).sum();
    if w != Workload::Churn {
        put_round_median(
            r,
            "ops_per_s",
            &per_round(&|t| t.ops as f64 / t.wall.as_secs_f64()),
            "1/s",
            &format!("{ops} ops"),
        );
    }
    if w == Workload::StreamChain {
        let bytes: u64 = rounds.iter().map(|t| t.payload_bytes).sum();
        put_round_median(
            r,
            "mib_per_s",
            &per_round(&|t| t.payload_bytes as f64 / t.wall.as_secs_f64() / (1024.0 * 1024.0)),
            "MiB/s",
            &format!("{bytes} payload bytes"),
        );
    }
    put_latency(r, "latency_p50_us", rounds, 500);
    put_latency(r, "latency_p99_us", rounds, 990);
    let all = Samples::new(
        rounds
            .iter()
            .flat_map(|t| t.latencies_us.iter().copied())
            .collect(),
    );
    r.put_opt("latency_max_us", all.max(), "us", "no samples");
    if w == Workload::Churn {
        let rec = Samples::new(
            rounds
                .iter()
                .flat_map(|t| t.recoveries_ms.iter().copied())
                .collect(),
        );
        match rec.median() {
            Some(v) => r.put_noted("recovery_p50_ms", v, "ms", format!("n={}", rec.len())),
            None => r.put_absent("recovery_p50_ms", "no relocation was observed"),
        }
        r.put_opt(
            "recovery_max_ms",
            rec.max(),
            "ms",
            "no relocation was observed",
        );
        let sum = |f: &dyn Fn(&Tally) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
        r.put("stale_replies", sum(&|t| t.stale_replies), "count");
        r.put("resent_calls", sum(&|t| t.resent_calls), "count");
        let slow = all.len() - all.count_below(1e6);
        r.put("calls_over_1s", slow as f64, "count");
    }
    let failed: u64 = rounds.iter().map(|t| t.failed + t.wrong).sum();
    let attempted: u64 = rounds.iter().map(|t| t.attempted).sum();
    r.put_ratio(
        "failed_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
        "attempted",
    );
    if rounds.iter().all(|t| t.cpu.is_some() && t.ops > 0) {
        put_round_median(
            r,
            "cpu_us_per_op",
            &per_round(&|t| t.cpu.unwrap_or_default().as_secs_f64() * 1e6 / t.ops as f64),
            "us",
            "process user+sys CPU / completed ops",
        );
    } else {
        r.put_absent(
            "cpu_us_per_op",
            "/proc/self/stat unreadable or a round completed no op",
        );
    }
    r.put_opt(
        "peak_rss_mib",
        sys::peak_rss_mib(),
        "MiB",
        "/proc/self/status unreadable",
    );
}

/// Untraced/traced round pairs of a traced run.
pub const TRACE_PAIRS: usize = 3;

fn traced(s: Settings, inputs: &Inputs) -> Outcome {
    // Rounds as long as an untraced run's, alternately without and with
    // spans: the difference of their medians is the tracing overhead.
    let length = Duration::from_secs(s.seconds) / rounds(s.workload) as u32;
    let epoch = Instant::now();
    let mut p50 = [Vec::new(), Vec::new()];
    let mut naming = None;
    let mut tally = Tally::default();
    for round in 0..2 * TRACE_PAIRS {
        let traced = round % 2 == 1;
        let last = round + 1 == 2 * TRACE_PAIRS;
        let r: Round = run_round(
            s.workload,
            inputs,
            RoundSpec {
                round,
                length,
                traced,
                probe_naming: last,
                epoch,
            },
        )?;
        p50[usize::from(traced)].extend(Samples::new(r.tally.latencies_us.clone()).median());
        naming = naming.or(r.naming);
        tally.merge(r.tally);
    }
    let (untraced_p50, traced_p50) = (median(&p50[0]), median(&p50[1]));
    let ladder = ladder::measure(s.workload, inputs, epoch)?;
    let mut spans: Vec<Span> = std::mem::take(&mut tally.spans);
    spans.extend(ladder.spans.iter().cloned());

    let mut r = Report::default();
    ladder.report(&mut r);
    naming_report(&mut r, naming, &tally);
    counters_report(&mut r, &tally);
    match (untraced_p50, traced_p50) {
        (Some(u), Some(t)) => {
            r.put("trace.untraced_p50_us", u, "us");
            r.put("trace.traced_p50_us", t, "us");
            r.put_noted(
                "trace.overhead_pct",
                (t - u) / u * 100.0,
                "%",
                format!("median p50 of {TRACE_PAIRS} traced vs {TRACE_PAIRS} untraced rounds"),
            );
        }
        _ => r.put_absent("trace.overhead_pct", "a round completed no call"),
    }
    r.put("trace.spans", spans.len() as f64, "count");
    for (name, t) in trace::totals_by_name(&spans) {
        println!(
            "span {name}: count={} mean_us={:.3} self_mean_us={:.3}",
            t.count,
            t.total_ns as f64 / t.count as f64 / 1e3,
            t.self_ns as f64 / t.count as f64 / 1e3
        );
    }
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", s.workload.name(), s.seed));
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(&spans)))
    {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
    Ok((r, tally, PER_LAYER))
}

fn naming_report(r: &mut Report, naming: Option<NamingProbe>, t: &Tally) {
    match naming {
        Some(p) => {
            r.put("naming.resolve_us", p.hit_us, "us");
            r.put("naming.resolve_cold_us", p.cold_us, "us");
        }
        None => {
            r.put_absent("naming.resolve_us", "not probed");
            r.put_absent("naming.resolve_cold_us", "not probed");
        }
    }
    let c = &t.counters;
    let hits = c.get("naming.cache_hits");
    let resolves = hits + c.get("naming.cache_misses") + c.get("naming.cache_stale");
    r.put_ratio(
        "naming.cache_hit_ratio",
        ratio(hits as f64, resolves as f64),
        "ratio",
        "resolves",
    );
    r.put("naming.resolves", resolves as f64, "count");
}

fn counters_report(r: &mut Report, t: &Tally) {
    let c = &t.counters;
    for name in COUNTER_NAMES {
        if PER_LAYER.contains(&name) {
            r.put(name, c.get(name) as f64, "count");
        }
    }
    r.put_ratio(
        "nd.frames_per_flush",
        ratio(
            c.get("nd.flushed_frames") as f64,
            c.get("nd.flushes") as f64,
        ),
        "frames",
        "flushes",
    );
    let reloc = Samples::new(t.relocate_ms.clone());
    r.put_noted(
        "ali.relocate_ms",
        reloc.median().unwrap_or(0.0),
        "ms",
        format!("median of {} relocations", reloc.len()),
    );
    r.put("ali.relocations", reloc.len() as f64, "count");
}
