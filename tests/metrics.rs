//! The live metrics surface in a default build: `Runtime::metrics_text` /
//! `metrics_json` need no cargo feature, and the exported families are
//! pinned so a change to the counter table cannot silently rename,
//! reorder or drop a series.

use nowa::{join2, Config, Runtime, StatsSnapshot};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join2(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Every metric family, with its Prometheus type, in export order.
const FAMILIES: &[(&str, &str)] = &[
    ("nowa_workers", "gauge"),
    ("nowa_build_info", "gauge"),
    ("nowa_idle_workers", "gauge"),
    ("nowa_watchdog_reports_total", "counter"),
    ("nowa_stack_pool_gets_total", "counter"),
    ("nowa_stack_pool_puts_total", "counter"),
    ("nowa_stack_mmaps_total", "counter"),
    ("nowa_stack_map_failures_total", "counter"),
    ("nowa_spawns_total", "counter"),
    ("nowa_unoffered_total", "counter"),
    ("nowa_fast_pops_total", "counter"),
    ("nowa_steals_total", "counter"),
    ("nowa_steal_empty_total", "counter"),
    ("nowa_steal_retry_total", "counter"),
    ("nowa_own_takes_total", "counter"),
    ("nowa_joins_total", "counter"),
    ("nowa_syncs_inline_total", "counter"),
    ("nowa_suspensions_total", "counter"),
    ("nowa_sync_resumes_total", "counter"),
    ("nowa_cancels_total", "counter"),
    ("nowa_aborts_total", "counter"),
    ("nowa_roots_total", "counter"),
    ("nowa_parks_total", "counter"),
    ("nowa_wakes_issued_total", "counter"),
    ("nowa_wakes_spurious_total", "counter"),
    ("nowa_parked_ns_total", "counter"),
    ("nowa_promotions_total", "counter"),
    ("nowa_promoted_items_total", "counter"),
    ("nowa_private_pops_total", "counter"),
    ("nowa_async_parks_total", "counter"),
    ("nowa_async_resumes_total", "counter"),
    ("nowa_reactor_polls_total", "counter"),
    ("nowa_reactor_events_total", "counter"),
    ("nowa_timer_fires_total", "counter"),
    ("nowa_fast_path_ratio", "gauge"),
    ("nowa_steal_success_ratio", "gauge"),
    ("nowa_targeted_wake_ratio", "gauge"),
    ("nowa_promotion_ratio", "gauge"),
    ("nowa_worker_spawns_total", "counter"),
    ("nowa_worker_steals_total", "counter"),
    ("nowa_worker_parks_total", "counter"),
];

/// The scheduler totals a snapshot must export, by family name.
fn scheduler_totals(s: &StatsSnapshot) -> [(&'static str, u64); 26] {
    [
        ("nowa_spawns_total", s.spawns),
        ("nowa_unoffered_total", s.unoffered),
        ("nowa_fast_pops_total", s.fast_pops),
        ("nowa_steals_total", s.steals),
        ("nowa_steal_empty_total", s.steal_empty),
        ("nowa_steal_retry_total", s.steal_retry),
        ("nowa_own_takes_total", s.own_takes),
        ("nowa_joins_total", s.joins),
        ("nowa_syncs_inline_total", s.syncs_inline),
        ("nowa_suspensions_total", s.suspensions),
        ("nowa_sync_resumes_total", s.sync_resumes),
        ("nowa_cancels_total", s.cancels),
        ("nowa_aborts_total", s.aborts),
        ("nowa_roots_total", s.roots),
        ("nowa_parks_total", s.parks),
        ("nowa_wakes_issued_total", s.wakes_issued),
        ("nowa_wakes_spurious_total", s.wakes_spurious),
        ("nowa_parked_ns_total", s.parked_ns),
        ("nowa_promotions_total", s.promotions),
        ("nowa_promoted_items_total", s.promoted_items),
        ("nowa_private_pops_total", s.private_pops),
        ("nowa_async_parks_total", s.async_parks),
        ("nowa_async_resumes_total", s.async_resumes),
        ("nowa_reactor_polls_total", s.reactor_polls),
        ("nowa_reactor_events_total", s.reactor_events),
        ("nowa_timer_fires_total", s.timer_fires),
    ]
}

/// Reads the metrics text together with a `stats()` snapshot that did not
/// move while the text was rendered (idle workers keep parking, so the
/// idle counters can advance between two reads).
fn quiescent_text(rt: &Runtime) -> (StatsSnapshot, String) {
    for _ in 0..100 {
        let before = rt.stats();
        let text = rt.metrics_text();
        if rt.stats() == before {
            return (before, text);
        }
    }
    panic!("statistics never held still across one metrics render");
}

/// The value of the unlabelled sample of `family`.
fn sample(text: &str, family: &str) -> f64 {
    let prefix = format!("{family} ");
    let line = text
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no sample for {family}:\n{text}"));
    line[prefix.len()..].parse().unwrap()
}

#[test]
fn metrics_families_are_pinned_and_match_stats() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    assert_eq!(rt.run(|| fib(16)), 987);
    let (stats, text) = quiescent_text(&rt);

    let types: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split_once(' ').unwrap())
        .collect();
    assert_eq!(types, FAMILIES, "exported families changed:\n{text}");

    for (family, value) in scheduler_totals(&stats) {
        assert_eq!(sample(&text, family), value as f64, "{family} != stats()");
    }
    assert_eq!(sample(&text, "nowa_workers"), 2.0);

    // Per-worker series are labelled and sum to their totals.
    for (family, total) in [
        ("nowa_worker_spawns_total", stats.spawns),
        ("nowa_worker_steals_total", stats.steals),
        ("nowa_worker_parks_total", stats.parks),
    ] {
        let sum: f64 = (0..2)
            .map(|w| sample(&text, &format!("{family}{{worker=\"{w}\"}}")))
            .sum();
        assert_eq!(sum, total as f64, "{family} does not sum to its total");
    }
}

#[test]
fn metrics_fold_scheduler_and_idle_counters() {
    let rt = Runtime::new(Config::with_workers(2)).unwrap();
    assert_eq!(rt.run(|| fib(16)), 987);
    let stats = rt.stats();
    let text = rt.metrics_text();
    assert!(text.contains("# TYPE nowa_spawns_total counter"), "{text}");
    assert!(text.contains("# TYPE nowa_fast_path_ratio gauge"), "{text}");
    assert!(text.contains("nowa_workers 2"), "{text}");
    assert!(
        text.contains(&format!("nowa_spawns_total {}", stats.spawns)),
        "aggregate spawn counter must match stats():\n{text}"
    );
    assert!(text.contains("nowa_parks_total"), "{text}");
    assert!(text.contains("nowa_wakes_issued_total"), "{text}");
    assert!(text.contains("nowa_targeted_wake_ratio"), "{text}");
    assert!(
        text.contains("nowa_worker_spawns_total{worker=\"0\"}")
            && text.contains("nowa_worker_spawns_total{worker=\"1\"}"),
        "per-worker families must be labelled:\n{text}"
    );

    let json = rt.metrics_json();
    let parsed = nowa_trace::json::Json::parse(&json).expect("metrics JSON parses");
    let spawns = parsed
        .get("nowa_spawns_total")
        .and_then(|f| f.get("samples"))
        .and_then(|s| s.as_arr())
        .and_then(|s| s.first())
        .and_then(|s| s.get("value"))
        .and_then(|v| v.as_num())
        .expect("spawn family present");
    assert_eq!(spawns, stats.spawns as f64);
}
