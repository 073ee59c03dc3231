//! The experiments binary: regenerates every table and figure of the
//! m.Site paper, prints paper-vs-measured, and runs the timing and scale
//! gates that only mean something in a release build.
//!
//! Usage:
//! ```text
//! cargo run --release -p msite-bench --bin experiments            # everything
//! cargo run --release -p msite-bench --bin experiments -- table1
//! cargo run --release -p msite-bench --bin experiments -- fig7 [--full]
//! cargo run --release -p msite-bench --bin experiments -- throughput telemetry surge capacity hotpath
//! cargo run --release -p msite-bench --bin experiments -- --json  # one object keyed by name
//! cargo run --release -p msite-bench --bin experiments -- hotpath --bench-json=BENCH.json
//! ```
//!
//! Each experiment is one entry of [`EXPERIMENTS`]: it runs, prints its
//! tables unless `--json` is given, and returns its JSON value plus,
//! when it is gated, the gate's verdict. The binary prints one gate line
//! per gated experiment and exits 1 if any gate failed. An unknown
//! experiment name or flag exits 2 and lists the valid ones.
//! `--json` prints one object keyed by experiment name;
//! `--bench-json=<path>` writes that object plus each experiment's wall
//! clock to `<path>`. Without it no file is written.
//!
//! `fig7 --full` uses the paper's full one-minute windows (9 points × 3
//! trials ≈ 27 minutes); the default uses scaled windows that converge to
//! the same rates. `capacity` is the million-user multi-tenant session
//! sweep (three tenant forums, one shared bounded store, Zipf(~1.0)
//! revisits, a hard memory ceiling).

use msite_bench::{
    capacity, claims, content, fig6, fig7, fixtures, hotpath, report, surge, table1, telemetry,
    throughput,
};
use msite_support::json::{obj, ToJson, Value};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Command-line options every experiment sees.
struct Options {
    /// Print human-readable tables (off under `--json`).
    print: bool,
    /// Paper-length Figure 7 windows.
    full: bool,
}

/// What one experiment hands back.
struct Outcome {
    /// Its results, as `--json` and `--bench-json` write them.
    json: Value,
    /// The gate's verdict, for a gated experiment.
    gate: Option<Result<(), String>>,
}

impl Outcome {
    fn report(result: &impl ToJson) -> Outcome {
        Outcome {
            json: result.to_json_value(),
            gate: None,
        }
    }

    fn gated(result: &impl ToJson, gate: Result<(), String>) -> Outcome {
        Outcome {
            json: result.to_json_value(),
            gate: Some(gate),
        }
    }
}

/// Runs one experiment.
type Experiment = fn(&Options) -> Outcome;

/// Every experiment, in run order. No name, or `all`, runs each of them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", run_table1),
    ("fig6", run_fig6),
    ("fig7", run_fig7),
    ("claims", run_claims),
    ("throughput", run_throughput),
    ("telemetry", run_telemetry),
    ("surge", run_surge),
    ("capacity", run_capacity),
    ("hotpath", run_hotpath),
    ("content", run_content),
    ("planning", run_planning),
    ("workload", run_workload),
];

fn main() -> ExitCode {
    let mut options = Options {
        print: true,
        full: false,
    };
    let mut bench_json: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(path) = arg.strip_prefix("--bench-json=").filter(|p| !p.is_empty()) {
            bench_json = Some(path.to_string());
            continue;
        }
        match arg.as_str() {
            "--json" => options.print = false,
            "--full" => options.full = true,
            name if name == "all" || EXPERIMENTS.iter().any(|(known, _)| *known == name) => {
                names.push(arg)
            }
            unknown => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "unknown argument `{unknown}`; experiments: {}, all; flags: --json, --full, \
                     --bench-json=<path>",
                    valid.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    let selected = EXPERIMENTS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name || n == "all"));

    let mut results: Vec<(String, Value)> = Vec::new();
    let mut walls: Vec<Value> = Vec::new();
    let mut failed: Vec<&str> = Vec::new();
    for (name, run) in selected {
        let start = Instant::now();
        let outcome = run(&options);
        walls.push(obj([
            ("name", name.to_json_value()),
            ("seconds", start.elapsed().as_secs_f64().to_json_value()),
        ]));
        if let Some(gate) = outcome.gate {
            let line = match gate {
                Ok(()) => format!("{name} gate: PASS"),
                Err(e) => {
                    failed.push(*name);
                    format!("{name} gate: FAIL ({e})")
                }
            };
            // Under --json stdout carries only the JSON object.
            if options.print {
                println!("{line}");
            } else {
                eprintln!("{line}");
            }
        }
        results.push((name.to_string(), outcome.json));
    }

    if !options.print {
        println!("{}", Value::Object(results.clone()).to_pretty());
    }
    if let Some(path) = bench_json {
        let mut file = vec![("experiments".to_string(), Value::Array(walls))];
        file.extend(results);
        if let Err(e) = std::fs::write(&path, Value::Object(file).to_pretty()) {
            eprintln!("warning: could not write {path}: {e}");
        } else if options.print {
            println!("\nwrote {path}");
        }
    }

    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("gates failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_table1(options: &Options) -> Outcome {
    let rows = table1::rows();
    if options.print {
        let lines: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    report::secs(r.paper_s),
                    report::secs(r.measured_s),
                    format!("{:+.0}%", r.relative_error() * 100.0),
                ]
            })
            .collect();
        report::print_table(
            "Table 1 — wall-clock time from initial request to browsable page",
            &["Device / operation", "paper", "measured", "err"],
            &lines,
        );
        let facts = table1::snapshot_facts();
        println!(
            "snapshot artifact: {} px, {} wire bytes; entry page {} bytes",
            facts.snapshot_pixels,
            report::bytes(facts.snapshot_wire_bytes),
            report::bytes(facts.entry_html_bytes)
        );
    }
    Outcome::report(&rows)
}

fn run_fig6(options: &Options) -> Outcome {
    let r = fig6::run(10);
    if options.print {
        report::print_table(
            "Figure 6 — CraigsList AJAX adaptation for the iPad (browsing 10 ads)",
            &["flow", "page loads", "bytes"],
            &[
                vec![
                    "original (full reload per ad)".into(),
                    r.original_page_loads.to_string(),
                    report::bytes(r.original_bytes),
                ],
                vec![
                    "adapted (two-pane + proxy AJAX)".into(),
                    r.adapted_page_loads.to_string(),
                    report::bytes(r.adapted_bytes),
                ],
            ],
        );
        println!(
            "{} listing links rewritten; {:.0}% of navigation bytes saved",
            r.links_rewritten,
            r.bytes_saved() * 100.0
        );
    }
    Outcome::report(&r)
}

fn run_fig7(options: &Options) -> Outcome {
    let config = fig7::SweepConfig {
        window: if options.full {
            Duration::from_secs(60)
        } else {
            Duration::from_millis(1_000)
        },
        ..fig7::SweepConfig::default()
    };
    let points = fig7::run_sweep(&config);
    if options.print {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.percent_full_render),
                    format!("{:.0}", p.requests_per_minute),
                    p.trials
                        .iter()
                        .map(|t| format!("{t:.0}"))
                        .collect::<Vec<_>>()
                        .join(" / "),
                ]
            })
            .collect();
        report::print_table(
            "Figure 7 — satisfied requests/min vs. % requiring a full browser",
            &["% full render", "req/min (mean)", "trials"],
            &rows,
        );
        println!("paper endpoints: 224/min at 100% -> 29,038/min at 0%");
    }
    Outcome::gated(&points, fig7::check_shape(&points))
}

fn run_claims(options: &Options) -> Outcome {
    let results = claims::all();
    if options.print {
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|c| {
                vec![
                    c.id.clone(),
                    c.paper.clone(),
                    c.measured.clone(),
                    if c.holds { "PASS" } else { "FAIL" }.into(),
                ]
            })
            .collect();
        report::print_table(
            "In-text claims (C1, C2, C3, C5)",
            &["id", "paper", "measured", "holds"],
            &rows,
        );
    }
    Outcome::report(&results)
}

fn run_throughput(options: &Options) -> Outcome {
    let result = throughput::run(3);
    if options.print {
        let rows: Vec<Vec<String>> = result
            .pipeline
            .iter()
            .map(|p| {
                vec![
                    p.parallelism.to_string(),
                    format!("{:.2} ms", p.wall.as_secs_f64() * 1e3),
                    format!("{:.2}x", p.speedup),
                ]
            })
            .collect();
        report::print_table(
            &format!(
                "Throughput — {}-subpage adaptation, wall time per pool width ({} cores visible)",
                throughput::SECTIONS,
                result.cores
            ),
            &["pool width", "wall", "serial wall / width wall"],
            &rows,
        );
    }
    Outcome::gated(&result, throughput::check_shape(&result))
}

fn run_telemetry(options: &Options) -> Outcome {
    let result = telemetry::run(5);
    if options.print {
        report::print_table(
            "Telemetry overhead — adaptation fixture, registry+tracing off vs. on",
            &["metric", "value"],
            &[
                vec![
                    "baseline (off)".into(),
                    report::secs(result.baseline.as_secs_f64()),
                ],
                vec![
                    "instrumented (on)".into(),
                    report::secs(result.instrumented.as_secs_f64()),
                ],
                vec![
                    "overhead".into(),
                    format!(
                        "{:+.1}% (bound {:.0}%)",
                        result.overhead_ratio * 100.0,
                        result.bound * 100.0
                    ),
                ],
                vec![
                    "counter.inc".into(),
                    format!("{:.1} ns/op", result.counter_ns),
                ],
                vec![
                    "histogram.observe".into(),
                    format!("{:.1} ns/op", result.histogram_ns),
                ],
            ],
        );
    }
    Outcome::gated(&result, telemetry::check_shape(&result))
}

fn run_surge(options: &Options) -> Outcome {
    let s = surge::run();
    if options.print {
        report::print_table(
            &format!(
                "Adaptive capacity — {} clients, {} ms window, equal offered load",
                surge::SURGE_CLIENTS,
                surge::SURGE_WINDOW.as_millis()
            ),
            &["arm", "served", "shed", "attempts", "workers at close"],
            &[
                vec![
                    "static (2 workers)".into(),
                    s.static_arm.served.to_string(),
                    s.static_arm.shed.to_string(),
                    s.static_arm.attempts.to_string(),
                    s.static_arm.final_workers.to_string(),
                ],
                vec![
                    "adaptive (health loop)".into(),
                    s.adaptive_arm.served.to_string(),
                    s.adaptive_arm.shed.to_string(),
                    s.adaptive_arm.attempts.to_string(),
                    s.adaptive_arm.final_workers.to_string(),
                ],
            ],
        );
        println!(
            "adaptive served {:.2}x static ({} scale-ups)",
            s.speedup(),
            s.adaptive_arm.scale_ups
        );
    }
    Outcome::gated(&s, surge::check_shape(&s))
}

fn run_capacity(options: &Options) -> Outcome {
    // The million-user multi-tenant session sweep (request-bound;
    // seconds in release builds).
    let result = capacity::run(&capacity::CapacityConfig::default());
    if options.print {
        report::print_table(
            &format!(
                "Session capacity — {} distinct users, {} tenants, Zipf(1.0) revisits",
                result.distinct_users,
                result.tenants.len()
            ),
            &["metric", "value"],
            &[
                vec![
                    "sustained throughput".into(),
                    format!("{:.0} req/s", result.requests_per_second),
                ],
                vec![
                    "request latency".into(),
                    format!(
                        "p50 <= {} us, p99 <= {} us",
                        result.p50_micros, result.p99_micros
                    ),
                ],
                vec![
                    "total requests".into(),
                    format!(
                        "{} ({} revisits, {} hits, {} subpage)",
                        result.total_requests,
                        result.revisits,
                        result.revisit_hits,
                        result.subpage_requests
                    ),
                ],
                vec![
                    "live sessions at close".into(),
                    format!("{} / {} bound", result.live_sessions, result.max_sessions),
                ],
                vec![
                    "resident bytes".into(),
                    format!(
                        "{} store + {} fs / {} ceiling ({} mid-sweep violations)",
                        report::bytes(result.store_bytes),
                        report::bytes(result.fs_bytes),
                        report::bytes(result.memory_ceiling_bytes),
                        result.ceiling_violations
                    ),
                ],
                vec!["evictions".into(), result.evictions.to_string()],
            ],
        );
        let tenant_rows: Vec<Vec<String>> = result
            .tenants
            .iter()
            .map(|t| {
                vec![
                    t.tenant.clone(),
                    t.live.to_string(),
                    t.created.to_string(),
                    t.evicted.to_string(),
                ]
            })
            .collect();
        report::print_table(
            &format!(
                "Per-tenant occupancy (quota {} of {} sessions)",
                result.tenant_quota, result.max_sessions
            ),
            &["tenant", "live", "created", "evicted"],
            &tenant_rows,
        );
    }
    Outcome::gated(&result, capacity::check_shape(&result))
}

fn run_hotpath(options: &Options) -> Outcome {
    let result = hotpath::run(5);
    if options.print {
        report::print_table(
            "SWAR hot paths — fast vs scalar twins (identity-gated, see DESIGN.md §15)",
            &["path", "speedup", "gate"],
            &[
                vec![
                    "tokenizer + entity codec".into(),
                    format!(
                        "{:.2}x ({:.0} MB/s)",
                        result.tokenizer_entity_speedup, result.tokenizer_mb_s
                    ),
                    format!(">={:.1}x", result.tokenizer_gate),
                ],
                vec![
                    "crc32 (slicing-by-8)".into(),
                    format!(
                        "{:.1}x ({:.0} MB/s)",
                        result.crc32_speedup, result.crc32_mb_s
                    ),
                    format!(">={:.1}x", result.crc_gate),
                ],
                vec![
                    "adler32 (unrolled)".into(),
                    format!("{:.2}x", result.adler32_speedup),
                    "-".into(),
                ],
            ],
        );
    }
    Outcome::gated(&result, hotpath::check_shape(&result))
}

fn run_content(options: &Options) -> Outcome {
    let result = content::run(8);
    if options.print {
        let e = &result.extraction;
        report::print_table(
            &format!(
                "Content adaptation — extraction over {} article variants, tiered gallery",
                e.pages
            ),
            &["metric", "value"],
            &[
                vec![
                    "extraction precision".into(),
                    format!(
                        "{:.3} ({} content of {} regions kept)",
                        e.precision(),
                        e.content_kept,
                        e.labels_kept
                    ),
                ],
                vec![
                    "extraction recall".into(),
                    format!(
                        "{:.3} ({} of {} content regions)",
                        e.recall(),
                        e.content_kept,
                        e.content_total
                    ),
                ],
                vec![
                    "blocks stripped (level 2)".into(),
                    result.stripped_blocks.to_string(),
                ],
            ],
        );
        let tier_rows: Vec<Vec<String>> = result
            .tiers
            .iter()
            .map(|t| {
                vec![
                    t.tier.clone(),
                    report::bytes(t.entry_bytes),
                    report::bytes(t.image_bytes),
                    report::bytes(t.total_bytes()),
                ]
            })
            .collect();
        report::print_table(
            "Fidelity tiers — gallery wire bytes per bandwidth class",
            &["tier", "entry", "images", "total"],
            &tier_rows,
        );
    }
    Outcome::gated(&result, content::check_shape(&result))
}

fn run_planning(options: &Options) -> Outcome {
    let load = capacity::LoadModel::default();
    let rows = capacity::analyze(&load);
    if options.print {
        let lines: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.architecture.clone(),
                    format!("{:.0}", r.capacity_rpm),
                    format!("{:.2}", r.boxes_today),
                    format!("{:+.0}", r.months_of_headroom),
                ]
            })
            .collect();
        report::print_table(
            "Capacity planning (S4.1: 2.2M hits/day, 10% mobile, 3x peak, doubling every 18 months)",
            &["architecture", "req/min per box", "boxes for today's peak", "months of headroom"],
            &lines,
        );
        println!(
            "peak mobile load today: {:.0} requests/min",
            load.peak_mobile_rpm()
        );
    }
    Outcome::report(&obj([
        ("load", load.to_json_value()),
        ("rows", rows.to_json_value()),
    ]))
}

fn run_workload(options: &Options) -> Outcome {
    let site = fixtures::forum();
    let manifest = fixtures::forum_manifest(&site);
    let entry_bytes = manifest.total_bytes();
    let scripts = manifest
        .resources
        .iter()
        .filter(|r| r.kind == msite_sites::ResourceKind::Script)
        .count();
    let config = site.config();
    if options.print {
        report::print_table(
            "Workload facts (C4, §4.2)",
            &["fact", "paper", "measured"],
            &[
                vec![
                    "entry page total bytes".into(),
                    "224,477".into(),
                    report::bytes(entry_bytes),
                ],
                vec![
                    "external scripts".into(),
                    "about 12".into(),
                    scripts.to_string(),
                ],
                vec![
                    "forum rows".into(),
                    "about 30".into(),
                    config.forum_count.to_string(),
                ],
                vec![
                    "members".into(),
                    "nearly 66,000".into(),
                    report::bytes(config.member_count as usize),
                ],
            ],
        );
    }
    Outcome::report(&obj([
        ("entry_page_bytes", entry_bytes.to_json_value()),
        ("external_scripts", scripts.to_json_value()),
        ("forum_rows", config.forum_count.to_json_value()),
        ("members", config.member_count.to_json_value()),
    ]))
}
