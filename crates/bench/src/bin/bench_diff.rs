//! Before/after comparison and ranking analysis of `BENCH_*.json`
//! benchmark reports — the tool behind the CI perf gate, the scenario
//! ranking analysis and the local workflows documented in the crate
//! README.
//!
//! ```text
//! bench_diff compare <baseline.json> <current.json>... [--gate <factor>]
//! bench_diff merge <out.json> <in.json>...
//! bench_diff rank <report.json>... [--metric <key>] [--baseline <file>] [--gate]
//! bench_diff predictivity <small.json> <large.json> [--metric <key>] [--json <out.json>]
//! ```
//!
//! * `compare` prints a before/after table of the **timed** cases.  Cases
//!   are keyed `target/case_name`; with `--gate F` the exit code is 1 if
//!   any case's mean regresses by more than `F`x against the baseline.
//! * `merge` combines several timed reports into one, with cases renamed
//!   to `target/case_name` (how `bench_baseline.json` is produced).  The
//!   same qualified case in two files, or an input that carries quality
//!   rows, is an **error** (`lncl_bench::merge`): quality tables come from
//!   a single `scenario_sweep` run.
//! * `rank` ranks each scenario's methods by a **quality** metric
//!   (default `headline`), prints the rankings and every pairwise
//!   ranking flip between scenarios.  With `--baseline` it also reports
//!   flips against the baseline report per scenario; `--gate` then
//!   fails (exit 1) when any quality row, of any metric, is not bitwise
//!   equal to the baseline's, or a row vanished or appeared — the quality
//!   counterpart of the perf gate, on which a kernel or backward-rule
//!   change that moves one bit fails.
//! * `predictivity` joins a small-scale and a large-scale sweep report
//!   cell by cell (`lncl_bench::predictivity`) and prints per-cell rank
//!   correlation (Spearman ρ, Kendall τ-b), flip counts, winners and a
//!   trustworthy / mixed / untrustworthy verdict — which smoke cells are
//!   reliable proxies for paper-scale rankings.  `--json` additionally
//!   writes the machine-readable report (schema in the crate README).

use lncl_bench::merge::{merge_reports, qualified_cases};
use lncl_bench::predictivity::predictivity_report;
use lncl_bench::quality::HEADLINE_METRIC;
use lncl_bench::rank::{rank_scenarios, ranking_flips, unmatched_rows, RankingFlip};
use lncl_bench::timing::{BenchReport, QualityCase};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_diff compare <baseline.json> <current.json>... [--gate <factor>]");
    eprintln!("       bench_diff merge <out.json> <in.json>...");
    eprintln!("       bench_diff rank <report.json>... [--metric <key>] [--baseline <file>] [--gate]");
    eprintln!("       bench_diff predictivity <small.json> <large.json> [--metric <key>] [--json <out.json>]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<BenchReport, String> {
    BenchReport::load(Path::new(path))
}

fn format_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn compare(args: &[String]) -> ExitCode {
    let mut gate: Option<f64> = None;
    let mut files = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--gate" {
            match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 => gate = Some(f),
                _ => {
                    eprintln!("bench_diff: --gate needs a positive factor");
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(arg.clone());
        }
    }
    if files.len() < 2 {
        return usage();
    }
    let baseline = match load(&files[0]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_cases = qualified_cases(&baseline);
    let mut current_cases = Vec::new();
    for file in &files[1..] {
        match load(file) {
            Ok(r) => current_cases.extend(qualified_cases(&r)),
            Err(e) => {
                eprintln!("bench_diff: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("{:<44} {:>12} {:>12} {:>8}  status", "case", "baseline", "current", "ratio");
    println!("{}", "-".repeat(92));
    let mut regressions = 0usize;
    for case in &current_cases {
        match baseline_cases.iter().find(|b| b.name == case.name) {
            None => println!("{:<44} {:>12} {:>12} {:>8}  new", case.name, "-", format_secs(case.mean_s), "-"),
            Some(base) => {
                let ratio = case.mean_s / base.mean_s;
                let status = match gate {
                    Some(f) if ratio > f => {
                        regressions += 1;
                        "REGRESSED"
                    }
                    _ if ratio > 1.1 => "slower",
                    _ if ratio < 0.9 => "faster",
                    _ => "ok",
                };
                println!(
                    "{:<44} {:>12} {:>12} {:>7.2}x  {status}",
                    case.name,
                    format_secs(base.mean_s),
                    format_secs(case.mean_s),
                    ratio
                );
            }
        }
    }
    let mut missing = 0usize;
    for base in &baseline_cases {
        if !current_cases.iter().any(|c| c.name == base.name) {
            missing += 1;
            println!("{:<44} {:>12} {:>12} {:>8}  missing", base.name, format_secs(base.mean_s), "-", "-");
        }
    }
    if let Some(f) = gate {
        // a vanished baseline case is a lost perf protection, not a pass
        if regressions > 0 || missing > 0 {
            eprintln!(
                "bench_diff: {regressions} case(s) regressed by more than {f}x, {missing} baseline case(s) missing"
            );
            return ExitCode::FAILURE;
        }
        println!("gate ok: no case regressed by more than {f}x and none went missing");
    }
    ExitCode::SUCCESS
}

fn merge(args: &[String]) -> ExitCode {
    if args.len() < 2 {
        return usage();
    }
    let mut reports = Vec::new();
    for file in &args[1..] {
        match load(file) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("bench_diff: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let merged = match merge_reports(&reports) {
        Ok(merged) => merged,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&args[0], merged.to_json()) {
        eprintln!("bench_diff: {}: {e}", args[0]);
        return ExitCode::FAILURE;
    }
    println!("merged {} case(s) into {}", merged.cases.len(), args[0]);
    ExitCode::SUCCESS
}

fn predictivity(args: &[String]) -> ExitCode {
    let mut metric = HEADLINE_METRIC.to_string();
    let mut json_out: Option<String> = None;
    let mut files = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metric" => match iter.next() {
                Some(key) => metric = key.clone(),
                None => return usage(),
            },
            "--json" => match iter.next() {
                Some(path) => json_out = Some(path.clone()),
                None => return usage(),
            },
            _ => files.push(arg.clone()),
        }
    }
    if files.len() != 2 {
        return usage();
    }
    let (small, large) = match (load(&files[0]), load(&files[1])) {
        (Ok(s), Ok(l)) => (s, l),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = predictivity_report(&small.quality, &large.quality, &metric);
    if report.cells.is_empty() {
        eprintln!("bench_diff: no joinable cells between {} and {} on metric {metric:?}", files[0], files[1]);
        return ExitCode::FAILURE;
    }
    println!("scale predictivity by {metric:?}: {} vs {} ({} cell(s))", files[0], files[1], report.cells.len());
    println!(
        "{:<46} {:>7} {:>8} {:>8} {:>6}  {:<15} winner small -> large",
        "cell", "methods", "spearman", "tau-b", "flips", "verdict"
    );
    println!("{}", "-".repeat(118));
    for cell in &report.cells {
        println!(
            "{:<46} {:>7} {:>8.3} {:>8.3} {:>6}  {:<15} {} -> {}",
            cell.scenario,
            cell.methods,
            cell.spearman,
            cell.kendall_tau,
            cell.flips,
            cell.verdict(),
            cell.top_small,
            cell.top_large
        );
    }
    for (label, unmatched) in [("small", &report.unmatched_small), ("large", &report.unmatched_large)] {
        if !unmatched.is_empty() {
            println!("unmatched ({label} side only, or <2 shared methods): {}", unmatched.join(", "));
        }
    }
    let trustworthy = report.with_verdict("trustworthy").len();
    let untrustworthy = report.with_verdict("untrustworthy").len();
    println!(
        "\n{trustworthy} trustworthy / {} mixed / {untrustworthy} untrustworthy of {} cell(s)",
        report.cells.len() - trustworthy - untrustworthy,
        report.cells.len()
    );
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("bench_diff: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn print_flips(flips: &[RankingFlip]) {
    const SHOWN: usize = 10;
    for flip in flips.iter().take(SHOWN) {
        println!("    {} overtakes {}", flip.promoted, flip.demoted);
    }
    if flips.len() > SHOWN {
        println!("    … and {} more", flips.len() - SHOWN);
    }
}

fn rank(args: &[String]) -> ExitCode {
    let mut metric = HEADLINE_METRIC.to_string();
    let mut baseline_file: Option<String> = None;
    let mut gate = false;
    let mut files = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metric" => match iter.next() {
                Some(key) => metric = key.clone(),
                None => return usage(),
            },
            "--baseline" => match iter.next() {
                Some(file) => baseline_file = Some(file.clone()),
                None => return usage(),
            },
            "--gate" => gate = true,
            _ => files.push(arg.clone()),
        }
    }
    if files.is_empty() {
        return usage();
    }
    if gate && baseline_file.is_none() {
        eprintln!("bench_diff: rank --gate needs --baseline <file> to compare against");
        return ExitCode::from(2);
    }
    let mut quality: Vec<QualityCase> = Vec::new();
    for file in &files {
        match load(file) {
            Ok(report) => quality.extend(report.quality),
            Err(e) => {
                eprintln!("bench_diff: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let rankings = rank_scenarios(&quality, &metric);
    if rankings.is_empty() {
        eprintln!("bench_diff: no quality rows with metric {metric:?} in {files:?}");
        return ExitCode::FAILURE;
    }

    println!("method rankings by {metric:?} ({} scenario(s))", rankings.len());
    for ranking in &rankings {
        println!("\n{}", ranking.scenario);
        for entry in &ranking.entries {
            println!("  {:>3}. {:<34} {:.4}", entry.rank, entry.method, entry.value);
        }
    }

    println!("\nranking flips between scenario pairs:");
    let mut flipped_pairs = 0usize;
    for (i, a) in rankings.iter().enumerate() {
        for b in &rankings[i + 1..] {
            let flips = ranking_flips(a, b);
            if flips.is_empty() {
                continue;
            }
            flipped_pairs += 1;
            println!("  {} -> {} ({} flip(s))", a.scenario, b.scenario, flips.len());
            print_flips(&flips);
        }
    }
    if flipped_pairs == 0 {
        println!("  none — every scenario ranks the methods identically");
    }

    let Some(baseline_file) = baseline_file else {
        return ExitCode::SUCCESS;
    };
    let baseline = match load(&baseline_file) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_rankings = rank_scenarios(&baseline.quality, &metric);
    println!("\nranking flips vs baseline {baseline_file}:");
    let mut any_baseline_flip = false;
    for current in &rankings {
        let Some(base) = baseline_rankings.iter().find(|b| b.scenario == current.scenario) else { continue };
        let flips = ranking_flips(base, current);
        if flips.is_empty() {
            continue;
        }
        any_baseline_flip = true;
        println!("  {} ({} flip(s))", current.scenario, flips.len());
        print_flips(&flips);
    }
    if !any_baseline_flip {
        println!("  none");
    }
    if gate {
        // `-` a baseline row not reproduced, `+` a current row the baseline lacks
        let (lost, new) = (unmatched_rows(&baseline.quality, &quality), unmatched_rows(&quality, &baseline.quality));
        for (sign, q) in lost.iter().map(|q| ('-', q)).chain(new.iter().map(|q| ('+', q))).take(20) {
            println!("MISMATCH {sign} {}/{} {:?}", q.scenario, q.method, q.metrics);
        }
        if !lost.is_empty() || !new.is_empty() {
            eprintln!(
                "bench_diff: {} baseline row(s) not reproduced bitwise, {} new or changed",
                lost.len(),
                new.len()
            );
            return ExitCode::FAILURE;
        }
        println!("quality gate ok: all {} quality row(s) bitwise equal to the baseline", quality.len());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("merge") => merge(&args[1..]),
        Some("rank") => rank(&args[1..]),
        Some("predictivity") => predictivity(&args[1..]),
        _ => usage(),
    }
}
