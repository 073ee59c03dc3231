//! The experiments binary: regenerates every table and figure of the
//! m.Site paper and prints paper-vs-measured.
//!
//! Usage:
//! ```text
//! cargo run --release -p msite-bench --bin experiments            # everything
//! cargo run --release -p msite-bench --bin experiments -- table1
//! cargo run --release -p msite-bench --bin experiments -- fig7 [--full]
//! cargo run --release -p msite-bench --bin experiments -- fig6
//! cargo run --release -p msite-bench --bin experiments -- claims
//! cargo run --release -p msite-bench --bin experiments -- burst
//! cargo run --release -p msite-bench --bin experiments -- telemetry
//! cargo run --release -p msite-bench --bin experiments -- streaming
//! cargo run --release -p msite-bench --bin experiments -- durability
//! cargo run --release -p msite-bench --bin experiments -- planning
//! cargo run --release -p msite-bench --bin experiments -- capacity
//! cargo run --release -p msite-bench --bin experiments -- hotpath
//! cargo run --release -p msite-bench --bin experiments -- content
//! cargo run --release -p msite-bench --bin experiments -- --json  # JSON dump
//! cargo run --release -p msite-bench --bin experiments -- hotpath --bench-json=BENCH.json
//! ```
//!
//! An unknown experiment name or flag exits with status 2 and lists
//! the valid ones. `--bench-json=<path>` writes the perf trajectory
//! (per-experiment wall clocks plus the gated experiments' results) to
//! `<path>`; without it no file is written.
//!
//! `fig7 --full` uses the paper's full one-minute windows (9 points × 3
//! trials ≈ 27 minutes); the default uses scaled windows that converge to
//! the same rates. `capacity` is the million-user multi-tenant session
//! sweep (three tenant forums, one shared bounded store, Zipf(~1.0)
//! revisits, a hard memory ceiling).

use msite_bench::{
    burst, capacity, claims, content, durability, fig6, fig7, fixtures, hotpath, report, streaming,
    table1, telemetry, throughput,
};
use msite_support::json::{obj, ToJson, Value};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct AllResults {
    table1: Vec<table1::Table1Row>,
    fig6: fig6::Fig6Result,
    fig7: Vec<fig7::Fig7Point>,
    claims: Vec<claims::ClaimResult>,
    throughput: Option<throughput::ThroughputResult>,
    telemetry: Option<telemetry::TelemetryOverheadResult>,
    streaming: Option<streaming::StreamingResult>,
    durability: Option<durability::DurabilityResult>,
    capacity: Option<capacity::CapacityResult>,
    hotpath: Option<hotpath::HotpathResult>,
    content: Option<content::ContentResult>,
}

impl ToJson for AllResults {
    fn to_json_value(&self) -> Value {
        obj([
            ("table1", self.table1.to_json_value()),
            ("fig6", self.fig6.to_json_value()),
            ("fig7", self.fig7.to_json_value()),
            ("claims", self.claims.to_json_value()),
            ("throughput", self.throughput.to_json_value()),
            ("telemetry", self.telemetry.to_json_value()),
            ("streaming", self.streaming.to_json_value()),
            ("durability", self.durability.to_json_value()),
            ("capacity", self.capacity.to_json_value()),
            ("hotpath", self.hotpath.to_json_value()),
            ("content", self.content.to_json_value()),
        ])
    }
}

/// Every experiment name the binary accepts; `all` (like no name at
/// all) runs each of them.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig6",
    "fig7",
    "burst",
    "claims",
    "throughput",
    "telemetry",
    "streaming",
    "durability",
    "capacity",
    "hotpath",
    "content",
    "planning",
    "workload",
    "all",
];

/// Wall-clock spent inside each experiment, recorded into the
/// `--bench-json` file so the perf trajectory is comparable across PRs.
struct Timings {
    entries: Vec<(&'static str, Duration)>,
}

impl Timings {
    fn time<T>(&mut self, name: &'static str, run: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = run();
        self.entries.push((name, start.elapsed()));
        value
    }
}

impl ToJson for Timings {
    fn to_json_value(&self) -> Value {
        Value::Array(
            self.entries
                .iter()
                .map(|(name, elapsed)| {
                    obj([
                        ("name", name.to_json_value()),
                        ("seconds", elapsed.as_secs_f64().to_json_value()),
                    ])
                })
                .collect(),
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut full = false;
    let mut bench_json: Option<&str> = None;
    let mut which: Vec<&str> = Vec::new();
    for arg in &args {
        if let Some(path) = arg.strip_prefix("--bench-json=").filter(|p| !p.is_empty()) {
            bench_json = Some(path);
            continue;
        }
        match arg.as_str() {
            "--json" => json = true,
            "--full" => full = true,
            name if EXPERIMENTS.contains(&name) => which.push(name),
            unknown => {
                eprintln!(
                    "unknown argument `{unknown}`; experiments: {}; flags: --json, --full, \
                     --bench-json=<path>",
                    EXPERIMENTS.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    let want = |name: &str| which.is_empty() || which.contains(&name) || which.contains(&"all");

    // Shape assertions accumulate here; any failure turns into a
    // nonzero exit so CI catches regressions in the figures themselves.
    let mut failures: Vec<String> = Vec::new();
    let mut timings = Timings {
        entries: Vec::new(),
    };

    let mut results = AllResults {
        table1: Vec::new(),
        fig6: fig6::Fig6Result {
            ads_browsed: 0,
            original_bytes: 0,
            adapted_bytes: 0,
            original_page_loads: 0,
            adapted_page_loads: 0,
            links_rewritten: 0,
        },
        fig7: Vec::new(),
        claims: Vec::new(),
        throughput: None,
        telemetry: None,
        streaming: None,
        durability: None,
        capacity: None,
        hotpath: None,
        content: None,
    };

    if want("table1") {
        results.table1 = timings.time("table1", table1::rows);
        if !json {
            let rows: Vec<Vec<String>> = results
                .table1
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
                &rows,
            );
            let facts = table1::snapshot_facts();
            println!(
                "snapshot artifact: {} px, {} wire bytes; entry page {} bytes",
                facts.snapshot_pixels,
                report::bytes(facts.snapshot_wire_bytes),
                report::bytes(facts.entry_html_bytes)
            );
        }
    }

    if want("fig6") {
        results.fig6 = timings.time("fig6", || fig6::run(10));
        if !json {
            let r = &results.fig6;
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
    }

    if want("fig7") {
        let config = fig7::SweepConfig {
            window: if full {
                Duration::from_secs(60)
            } else {
                Duration::from_millis(1_000)
            },
            ..fig7::SweepConfig::default()
        };
        results.fig7 = timings.time("fig7", || fig7::run_sweep(&config));
        if let Err(e) = fig7::check_shape(&results.fig7) {
            failures.push(format!("fig7 shape: {e}"));
        }
        if !json {
            let rows: Vec<Vec<String>> = results
                .fig7
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
            match fig7::check_shape(&results.fig7) {
                Ok(()) => println!("shape check: PASS (monotone, >=2 orders of magnitude)"),
                Err(e) => println!("shape check: FAIL ({e})"),
            }
        }
    }

    if want("burst") {
        const BURST_CLIENTS: usize = 8;
        let result = timings.time("burst", || burst::run(BURST_CLIENTS));
        if result.renders != 1 {
            failures.push(format!(
                "burst: {} renders for {BURST_CLIENTS} concurrent clients (want 1)",
                result.renders
            ));
        }
        if result.coalesced != (BURST_CLIENTS - 1) as u64 {
            failures.push(format!(
                "burst: {} coalesced waiters (want {})",
                result.coalesced,
                BURST_CLIENTS - 1
            ));
        }
        let contention = burst::shard_contention(4, 50_000);
        if !json {
            report::print_table(
                "Same-page burst — single-flight coalescing (8 cold clients, one page)",
                &["metric", "value"],
                &[
                    vec!["full renders".into(), result.renders.to_string()],
                    vec!["coalesced waiters".into(), result.coalesced.to_string()],
                    vec![
                        "slowest burst client".into(),
                        report::secs(result.slowest_wait.as_secs_f64()),
                    ],
                    vec![
                        "lone cold client".into(),
                        report::secs(result.single_client.as_secs_f64()),
                    ],
                ],
            );
            println!(
                "lock striping: {} threads x {} gets — 1 shard {:.2} ms vs {} shards {:.2} ms ({:.2}x)",
                contention.threads,
                contention.ops,
                contention.single_shard.as_secs_f64() * 1e3,
                contention.shards,
                contention.striped.as_secs_f64() * 1e3,
                contention.speedup()
            );
        }
    }

    if want("claims") {
        results.claims = timings.time("claims", claims::all);
        if !json {
            let rows: Vec<Vec<String>> = results
                .claims
                .iter()
                .map(|c| {
                    vec![
                        c.id.clone(),
                        c.paper.clone(),
                        c.measured.clone(),
                        if c.holds {
                            "PASS".into()
                        } else {
                            "FAIL".into()
                        },
                    ]
                })
                .collect();
            report::print_table(
                "In-text claims (C1, C2, C3, C5)",
                &["id", "paper", "measured", "holds"],
                &rows,
            );
        }
    }

    if want("throughput") {
        let result = timings.time("throughput", || throughput::run(3));
        if let Err(e) = throughput::check_shape(&result) {
            failures.push(format!("throughput shape: {e}"));
        }
        if !json {
            let rows: Vec<Vec<String>> = result
                .pipeline
                .iter()
                .map(|p| {
                    vec![
                        p.parallelism.to_string(),
                        format!("{:.2} ms", p.wall.as_secs_f64() * 1e3),
                        if p.identical_to_serial {
                            "identical".into()
                        } else {
                            "DIVERGED".into()
                        },
                        p.emit_speedup
                            .map(|s| format!("{s:.2}x"))
                            .unwrap_or_else(|| "serial".into()),
                    ]
                })
                .collect();
            report::print_table(
                &format!(
                    "Throughput — {}-subpage adaptation, serial vs. parallel ({} cores visible)",
                    throughput::SECTIONS,
                    result.cores
                ),
                &["pool width", "wall", "output", "emit speedup"],
                &rows,
            );
            let o = &result.overload;
            println!(
                "overload probe ({} workers, queue {}): accepted {} = served {} + shed {} (headers {})",
                o.workers,
                o.queue_depth,
                o.accepted,
                o.served,
                o.rejected_overload,
                if o.shed_headers_ok { "ok" } else { "MISSING" }
            );
            match throughput::check_shape(&result) {
                Ok(()) => println!("shape check: PASS (byte-identical output, explicit shedding)"),
                Err(e) => println!("shape check: FAIL ({e})"),
            }
        }
        results.throughput = Some(result);
    }

    if want("telemetry") {
        let result = timings.time("telemetry", || telemetry::run(5));
        if let Err(e) = telemetry::check_shape(&result) {
            failures.push(format!("telemetry overhead: {e}"));
        }
        if !json {
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
            match telemetry::check_shape(&result) {
                Ok(()) => println!("overhead gate: PASS"),
                Err(e) => println!("overhead gate: FAIL ({e})"),
            }
        }
        results.telemetry = Some(result);
    }

    if want("streaming") {
        let result = timings.time("streaming", || streaming::run(3));
        if let Err(e) = streaming::check_shape(&result) {
            failures.push(format!("streaming shape: {e}"));
        }
        if !json {
            let t = &result.ttfb;
            let i = &result.incremental;
            report::print_table(
                &format!(
                    "Streaming + incremental — {}-subpage fixture, width 4",
                    result.sections
                ),
                &["metric", "value"],
                &[
                    vec![
                        "batch wall (full bundle)".into(),
                        report::secs(t.batch_wall.as_secs_f64()),
                    ],
                    vec![
                        "streaming TTFB (entry chunk)".into(),
                        report::secs(t.ttfb.as_secs_f64()),
                    ],
                    vec!["TTFB speedup".into(), format!("{:.2}x", t.speedup())],
                    vec![
                        "entry bytes".into(),
                        if t.entry_identical {
                            "identical".into()
                        } else {
                            "DIVERGED".into()
                        },
                    ],
                    vec!["cold renders".into(), i.cold_renders.to_string()],
                    vec![
                        "incremental renders (1 edit)".into(),
                        i.incremental_renders.to_string(),
                    ],
                    vec![
                        "subtrees reused / recomputed".into(),
                        format!("{} / {}", i.reused, i.recomputed),
                    ],
                ],
            );
            match streaming::check_shape(&result) {
                Ok(()) => println!("shape check: PASS (TTFB below batch, strict render savings)"),
                Err(e) => println!("shape check: FAIL ({e})"),
            }
        }
        results.streaming = Some(result);
    }

    if want("durability") {
        let result = timings.time("durability", durability::run);
        if let Err(e) = durability::check_shape(&result) {
            failures.push(format!("durability shape: {e}"));
        }
        if !json {
            let r = &result.restart;
            report::print_table(
                "Durability — kill and restart over the persistent tier",
                &["metric", "value"],
                &[
                    vec!["working set (keys)".into(), r.working_set.to_string()],
                    vec![
                        "recovered after restart".into(),
                        format!("{} ({:.0}%)", r.recovered, r.hit_ratio() * 100.0),
                    ],
                    vec![
                        "renders (first life)".into(),
                        r.renders_first_life.to_string(),
                    ],
                    vec![
                        "renders (after restart)".into(),
                        r.renders_after_restart.to_string(),
                    ],
                ],
            );
            let s = &result.surge;
            report::print_table(
                &format!(
                    "Adaptive capacity — {} clients, {} ms window, equal offered load",
                    durability::SURGE_CLIENTS,
                    durability::SURGE_WINDOW.as_millis()
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
            match durability::check_shape(&result) {
                Ok(()) => println!(
                    "shape check: PASS (warm-start >= 90%, zero restart renders, adaptive > static)"
                ),
                Err(e) => println!("shape check: FAIL ({e})"),
            }
        }
        results.durability = Some(result);
    }

    if want("capacity") {
        // The million-user multi-tenant session sweep (request-bound;
        // seconds in release builds).
        let config = capacity::CapacityConfig::default();
        let result = timings.time("capacity", || capacity::run(&config));
        if let Err(e) = capacity::check_shape(&result) {
            failures.push(format!("capacity shape: {e}"));
        }
        if !json {
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
            match capacity::check_shape(&result) {
                Ok(()) => println!(
                    "shape check: PASS (>=1M users, bounded store, ceiling held, quotas held)"
                ),
                Err(e) => println!("shape check: FAIL ({e})"),
            }
        }
        results.capacity = Some(result);
    }

    if want("hotpath") {
        let result = timings.time("hotpath", || hotpath::run(5));
        if let Err(e) = hotpath::check_shape(&result) {
            failures.push(format!("hotpath: {e}"));
        }
        if !json {
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
                    vec![
                        "zlib compress".into(),
                        format!("{:.2}x", result.zlib_speedup),
                        "-".into(),
                    ],
                    vec![
                        "selector bloom prefilter".into(),
                        format!("{:.2}x", result.selector_speedup),
                        "-".into(),
                    ],
                    vec![
                        "strip_tag batch classifier".into(),
                        format!("{:.2}x", result.strip_tag_speedup),
                        "-".into(),
                    ],
                ],
            );
            match hotpath::check_shape(&result) {
                Ok(()) => println!("hotpath gates: PASS"),
                Err(e) => println!("hotpath gates: FAIL ({e})"),
            }
        }
        results.hotpath = Some(result);
    }

    if want("content") {
        let result = timings.time("content", || content::run(8));
        if let Err(e) = content::check_shape(&result) {
            failures.push(format!("content shape: {e}"));
        }
        if !json {
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
            match content::check_shape(&result) {
                Ok(()) => {
                    println!("shape check: PASS (precision/recall >= 0.9, 2G strictly below WiFi)")
                }
                Err(e) => println!("shape check: FAIL ({e})"),
            }
        }
        results.content = Some(result);
    }

    if want("planning") && !json {
        let load = capacity::LoadModel::default();
        let rows_data = capacity::analyze(&load);
        let rows: Vec<Vec<String>> = rows_data
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
            &rows,
        );
        println!(
            "peak mobile load today: {:.0} requests/min",
            load.peak_mobile_rpm()
        );
    }

    if want("workload") && !json {
        let site = fixtures::forum();
        let manifest = fixtures::forum_manifest(&site);
        report::print_table(
            "Workload facts (C4, §4.2)",
            &["fact", "paper", "measured"],
            &[
                vec![
                    "entry page total bytes".into(),
                    "224,477".into(),
                    report::bytes(manifest.total_bytes()),
                ],
                vec![
                    "external scripts".into(),
                    "about 12".into(),
                    manifest
                        .resources
                        .iter()
                        .filter(|r| r.kind == msite_sites::ResourceKind::Script)
                        .count()
                        .to_string(),
                ],
                vec![
                    "forum rows".into(),
                    "about 30".into(),
                    site.config().forum_count.to_string(),
                ],
                vec![
                    "members".into(),
                    "nearly 66,000".into(),
                    report::bytes(site.config().member_count as usize),
                ],
            ],
        );
    }

    if json {
        println!("{}", report::to_json(&results));
    }

    // Machine-readable perf trajectory: per-experiment wall clock plus
    // the gated experiments' results, written only on request.
    if let Some(path) = bench_json {
        write_bench_json(path, &timings, &results, json);
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("shape assertion failed: {failure}");
        }
        ExitCode::FAILURE
    }
}

fn write_bench_json(path: &str, timings: &Timings, results: &AllResults, quiet: bool) {
    let bench_json = obj([
        ("experiments", timings.to_json_value()),
        ("throughput", results.throughput.to_json_value()),
        ("telemetry", results.telemetry.to_json_value()),
        ("streaming", results.streaming.to_json_value()),
        ("durability", results.durability.to_json_value()),
        ("capacity", results.capacity.to_json_value()),
        ("hotpath", results.hotpath.to_json_value()),
        ("content", results.content.to_json_value()),
    ]);
    if let Err(e) = std::fs::write(path, bench_json.to_pretty()) {
        eprintln!("warning: could not write {path}: {e}");
    } else if !quiet {
        println!(
            "\nwrote {path} ({} experiments timed)",
            timings.entries.len()
        );
    }
}
