//! Scheduler statistics, kept per worker to avoid false sharing.
//!
//! Every counter is declared once, as a row of the `counters!` table at
//! the bottom of this file. The table generates the per-worker cells
//! ([`WorkerStats`]), the aggregated [`StatsSnapshot`] with its
//! `aggregate`/`merge`, the stall watchdog's [`WorkerStats::progress`],
//! and the `(name, help, value)` rows the metrics registry exports.
//! Adding a counter is a one-row edit plus its write site.

use core::sync::atomic::{AtomicU64, Ordering};

/// One exported series: `(Prometheus name, HELP text, value)`.
pub(crate) type MetricRow = (&'static str, &'static str, u64);

/// A single-writer event counter.
///
/// Only the owning worker's thread writes a cell: every write site goes
/// through the calling thread's live worker. With one writer no update
/// can be lost, so `add` is a `Relaxed` load plus store rather
/// than a locked read-modify-write, and the fork/join fast path stays free
/// of synchronizing instructions. Any thread may [`Counter::get`] a recent
/// value; snapshots sum the cells racily.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one. Owner thread only.
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Owner thread only.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        let v = self.0.load(Ordering::Relaxed);
        self.0.store(v.wrapping_add(n), Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Generates the statistics types from one table. Each row is
/// `field: "prometheus_name", progress, per_worker, "HELP text";`, with
/// optional `///` lines in front that extend the field docs:
///
/// * `progress`: the counter advances the watchdog's
///   [`WorkerStats::progress`];
/// * `per_worker`: the registry also exports it per worker, as
///   `nowa_worker_<field>_total{worker="i"}`.
///
/// The HELP text (without its final period) is also the field's doc line.
macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $name:literal, $progress:literal, $per_worker:literal, $help:literal;
    )*) => {
        /// Per-worker event counters, cache-line padded. Each cell is
        /// written only by its own worker (see [`Counter`]).
        #[repr(align(128))]
        #[derive(Debug, Default)]
        pub struct WorkerStats {
            $(
                #[doc = concat!($help, ".")]
                $(#[doc = $doc])*
                pub $field: Counter,
            )*
            /// Work-finding loop iterations. Not part of [`StatsSnapshot`]
            /// (it's a liveness heartbeat, not a scheduling event): an idle
            /// worker still ticks every backoff period, so the stall watchdog
            /// can tell "parked and healthy" from "wedged".
            pub loop_ticks: Counter,
        }

        impl WorkerStats {
            /// A monotonically increasing progress measure for the stall
            /// watchdog: any scheduling event or work-finding iteration
            /// advances it.
            pub fn progress(&self) -> u64 {
                let mut p = self.loop_ticks.get();
                $(
                    if $progress {
                        p = p.wrapping_add(self.$field.get());
                    }
                )*
                p
            }

            /// This worker's counters as a snapshot.
            pub(crate) fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.get(),)*
                }
            }
        }

        /// An aggregated snapshot over all workers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(
                #[doc = concat!($help, ".")]
                $(#[doc = $doc])*
                pub $field: u64,
            )*
        }

        impl StatsSnapshot {
            /// Adds another snapshot's counters into this one (e.g. to
            /// aggregate over several runtimes or benchmark runs).
            pub fn merge(&mut self, other: &StatsSnapshot) {
                $(self.$field += other.$field;)*
            }

            /// Every counter's process-wide series, in table order.
            pub(crate) fn totals(&self) -> impl Iterator<Item = MetricRow> {
                [$(($name, concat!($help, "."), self.$field)),*].into_iter()
            }

            /// The series exported per worker, in table order.
            pub(crate) fn per_worker(&self) -> impl Iterator<Item = MetricRow> {
                [$((
                    $per_worker,
                    concat!("nowa_worker_", stringify!($field), "_total"),
                    concat!($help, ", per worker."),
                    self.$field,
                )),*]
                .into_iter()
                .filter(|row| row.0)
                .map(|(_, name, help, value)| (name, help, value))
            }
        }
    };
}

impl StatsSnapshot {
    /// Aggregates per-worker counters.
    pub fn aggregate(stats: &[WorkerStats]) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for w in stats {
            s.merge(&w.snapshot());
        }
        s
    }

    /// Total steal attempts, successful or not.
    pub fn steal_attempts(&self) -> u64 {
        self.steals + self.steal_empty + self.steal_retry
    }

    /// Conservation invariant: every consumed continuation was either
    /// popped back by its pusher, stolen, or taken locally.
    pub fn continuations_consumed(&self) -> u64 {
        self.fast_pops + self.steals + self.own_takes
    }

    /// Fraction of steal attempts that succeeded (0 when none were made).
    pub fn steal_success_ratio(&self) -> f64 {
        let attempts = self.steal_attempts();
        if attempts == 0 {
            0.0
        } else {
            self.steals as f64 / attempts as f64
        }
    }

    /// Fraction of consumed continuations reclaimed on the fast path —
    /// popped back by their own spawner without any scheduling (0 when
    /// nothing was consumed). High values mean the paper's "work-first"
    /// discipline is holding: stealing stays the exception.
    pub fn fast_path_ratio(&self) -> f64 {
        let consumed = self.continuations_consumed();
        if consumed == 0 {
            0.0
        } else {
            self.fast_pops as f64 / consumed as f64
        }
    }

    /// Fraction of spawns whose continuation ever became publicly visible
    /// (0 when nothing was spawned). Low values mean the split layer is
    /// doing its job: most continuations lived and died in the private
    /// segment without a single shared-atomic store.
    pub fn promotion_ratio(&self) -> f64 {
        if self.spawns == 0 {
            0.0
        } else {
            self.promoted_items as f64 / self.spawns as f64
        }
    }

    /// Fraction of parks that ended by a targeted wake rather than a
    /// timeout/stale epoch (0 when no parks happened). High values mean
    /// the wake hook, not the `max_park` safety net, is doing the waking.
    pub fn targeted_wake_ratio(&self) -> f64 {
        if self.parks == 0 {
            0.0
        } else {
            (self.parks - self.wakes_spurious.min(self.parks)) as f64 / self.parks as f64
        }
    }
}

counters! {
    // field          Prometheus name              progress per-worker HELP
    spawns:           "nowa_spawns_total",         true,  true,  "Continuations offered to thieves";
    unoffered:        "nowa_unoffered_total",      false, false, "Spawns elided (deque full)";
    /// The continuation was not stolen.
    fast_pops:        "nowa_fast_pops_total",      true,  false, "Fast-path continuation pops";
    steals:           "nowa_steals_total",         true,  true,  "Successful steals";
    steal_empty:      "nowa_steal_empty_total",    false, false, "Steal attempts on empty deques";
    steal_retry:      "nowa_steal_retry_total",    false, false, "Steal attempts that lost a race";
    own_takes:        "nowa_own_takes_total",      true,  false, "Local takes by the work-finding loop";
    /// The continuation was found stolen after the child returned.
    joins:            "nowa_joins_total",          true,  false, "Child joins";
    syncs_inline:     "nowa_syncs_inline_total",   true,  false, "Syncs satisfied without suspending";
    suspensions:      "nowa_suspensions_total",    true,  false, "Syncs that suspended the frame";
    sync_resumes:     "nowa_sync_resumes_total",   true,  false, "Suspended syncs resumed by joiners";
    /// The strand started unwinding with a `Cancelled` payload. Counts as
    /// progress: a worker unwinding a cancelled subtree is not stalled.
    cancels:          "nowa_cancels_total",        true,  false, "Cooperative checkpoints that raised cancellation";
    /// The CQS-style abort path: the suspension was retired and the
    /// continuation woken specifically to unwind.
    aborts:           "nowa_aborts_total",         true,  false, "Suspended syncs resumed into a cancelled scope";
    roots:            "nowa_roots_total",          true,  false, "Root tasks executed";
    /// The announce survived the validation re-scan and the worker waited.
    parks:            "nowa_parks_total",          false, true,  "Futex parks entered by the idle engine";
    wakes_issued:     "nowa_wakes_issued_total",   false, false, "Targeted wakes issued";
    /// Timeout, stale epoch, or an injected spurious return.
    wakes_spurious:   "nowa_wakes_spurious_total", false, false, "Parks ended without a targeted wake";
    parked_ns:        "nowa_parked_ns_total",      false, false, "Nanoseconds spent parked";
    promotions:       "nowa_promotions_total",     false, false, "Private-to-public promotion batches (split deque)";
    promoted_items:   "nowa_promoted_items_total", false, false, "Items moved public by promotion batches";
    /// These pops touched zero shared atomics.
    private_pops:     "nowa_private_pops_total",   false, false, "Fast-path pops served by the private segment";
    /// Async parking and resumption are progress for the same reason
    /// suspensions are: the strand moved, it didn't wedge.
    async_parks:      "nowa_async_parks_total",    true,  false, "block_on continuations parked behind a waker";
    /// By a claimer, or in place after a lost publish race.
    async_resumes:    "nowa_async_resumes_total",  true,  false, "Parked async continuations resumed";
    reactor_polls:    "nowa_reactor_polls_total",  false, false, "Reactor polls (epoll_wait + dispatch)";
    reactor_events:   "nowa_reactor_events_total", false, false, "I/O readiness events dispatched";
    timer_fires:      "nowa_timer_fires_total",    false, false, "Timer-wheel entries fired";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_exactly() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(u64::MAX);
        assert_eq!(c.get(), 41, "counters wrap like the watchdog's sum");
    }

    #[test]
    fn aggregate_sums_workers() {
        let a = WorkerStats::default();
        let b = WorkerStats::default();
        a.spawns.add(3);
        b.spawns.add(4);
        a.steals.inc();
        a.steal_empty.add(5);
        b.steal_retry.add(2);
        let stats = [a, b];
        let s = StatsSnapshot::aggregate(&stats);
        assert_eq!(s.spawns, 7);
        assert_eq!(s.steals, 1);
        assert_eq!(s.steal_empty, 5);
        assert_eq!(s.steal_retry, 2);
        assert_eq!(s.steal_attempts(), 8);
    }

    /// Pins the watchdog's notion of progress. Cancellation is in it: a
    /// worker that only cancels/aborts (cooperative unwinding of a
    /// cancelled subtree) must still read as progressing. Idle, steal-miss,
    /// promotion and reactor counters are not: a worker that only spins,
    /// parks or polls is exactly what the watchdog must be able to see.
    #[test]
    fn progress_membership_is_pinned() {
        let w = WorkerStats::default();
        let progress: Vec<(&str, &Counter)> = vec![
            ("loop_ticks", &w.loop_ticks),
            ("spawns", &w.spawns),
            ("fast_pops", &w.fast_pops),
            ("joins", &w.joins),
            ("syncs_inline", &w.syncs_inline),
            ("suspensions", &w.suspensions),
            ("sync_resumes", &w.sync_resumes),
            ("async_parks", &w.async_parks),
            ("async_resumes", &w.async_resumes),
            ("cancels", &w.cancels),
            ("aborts", &w.aborts),
            ("roots", &w.roots),
            ("own_takes", &w.own_takes),
            ("steals", &w.steals),
        ];
        let inert: Vec<(&str, &Counter)> = vec![
            ("unoffered", &w.unoffered),
            ("steal_empty", &w.steal_empty),
            ("steal_retry", &w.steal_retry),
            ("parks", &w.parks),
            ("wakes_issued", &w.wakes_issued),
            ("wakes_spurious", &w.wakes_spurious),
            ("parked_ns", &w.parked_ns),
            ("promotions", &w.promotions),
            ("promoted_items", &w.promoted_items),
            ("private_pops", &w.private_pops),
            ("reactor_polls", &w.reactor_polls),
            ("reactor_events", &w.reactor_events),
            ("timer_fires", &w.timer_fires),
        ];
        // Together the two lists name every counter exactly once.
        assert_eq!(
            progress.len() + inert.len(),
            StatsSnapshot::default().totals().count() + 1
        );
        for (name, c) in progress {
            let before = w.progress();
            c.inc();
            assert_eq!(w.progress(), before + 1, "`{name}` must count as progress");
        }
        for (name, c) in inert {
            let before = w.progress();
            c.add(7);
            assert_eq!(w.progress(), before, "`{name}` must not count as progress");
        }
    }

    #[test]
    fn padding_prevents_false_sharing() {
        assert!(core::mem::align_of::<WorkerStats>() >= 128);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = StatsSnapshot {
            spawns: 3,
            steals: 1,
            ..Default::default()
        };
        let b = StatsSnapshot {
            spawns: 4,
            steal_empty: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.spawns, 7);
        assert_eq!(a.steals, 1);
        assert_eq!(a.steal_empty, 2);
    }

    #[test]
    fn idle_counters_aggregate_and_merge() {
        let w = WorkerStats::default();
        w.parks.add(4);
        w.wakes_issued.add(3);
        w.wakes_spurious.inc();
        w.parked_ns.add(12_345);
        let stats = [w];
        let mut s = StatsSnapshot::aggregate(&stats);
        assert_eq!(s.parks, 4);
        assert_eq!(s.wakes_issued, 3);
        assert_eq!(s.wakes_spurious, 1);
        assert_eq!(s.parked_ns, 12_345);
        assert!((s.targeted_wake_ratio() - 0.75).abs() < 1e-12);
        let other = StatsSnapshot {
            parks: 1,
            parked_ns: 5,
            ..Default::default()
        };
        s.merge(&other);
        assert_eq!(s.parks, 5);
        assert_eq!(s.parked_ns, 12_350);
        assert_eq!(StatsSnapshot::default().targeted_wake_ratio(), 0.0);
    }

    #[test]
    fn ratios() {
        let mut s = StatsSnapshot::default();
        assert_eq!(s.steal_success_ratio(), 0.0);
        assert_eq!(s.fast_path_ratio(), 0.0);
        s.steals = 1;
        s.steal_empty = 2;
        s.steal_retry = 1;
        s.fast_pops = 6;
        s.own_takes = 1;
        assert!((s.steal_success_ratio() - 0.25).abs() < 1e-12);
        // consumed = 6 + 1 + 1 = 8; fast-path share 6/8.
        assert!((s.fast_path_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn promotion_counters_aggregate_and_merge() {
        let w = WorkerStats::default();
        w.promotions.add(2);
        w.promoted_items.add(5);
        w.private_pops.inc();
        w.spawns.add(10);
        let stats = [w];
        let mut s = StatsSnapshot::aggregate(&stats);
        assert_eq!(s.promotions, 2);
        assert_eq!(s.promoted_items, 5);
        assert_eq!(s.private_pops, 1);
        assert!((s.promotion_ratio() - 0.5).abs() < 1e-12);
        let other = StatsSnapshot {
            promotions: 1,
            promoted_items: 3,
            private_pops: 4,
            ..Default::default()
        };
        s.merge(&other);
        assert_eq!(s.promotions, 3);
        assert_eq!(s.promoted_items, 8);
        assert_eq!(s.private_pops, 5);
        assert_eq!(StatsSnapshot::default().promotion_ratio(), 0.0);
    }
}
