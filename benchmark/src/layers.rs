//! Per-layer measurements shared by every workload: the public layer parts
//! timed in isolation (context switch, stack cache and pool, split and
//! Chase–Lev deque, empty `join2`), and the runtime's always-on counters
//! read as deltas around the benchmark's own calls.

use std::ffi::c_void;
use std::hint::black_box;
use std::time::Instant;

use nowa_context::{
    capture_and_run_on, resume, MadvisePolicy, RawContext, StackPool, WorkerStackCache,
};
use nowa_deque::{ClDeque, SplitConfig, SplitDeque, StealerOps, WorkerOps};
use nowa_runtime::{join2, Config, Runtime, StatsSnapshot};

use crate::measure::{median, ratio, sorted};
use crate::report::Report;

/// Timed repetitions per part; the median repetition is reported.
const REPS: usize = 9;
/// Operations per repetition.
const OPS: u64 = 100_000;

/// Median per-operation cost of `body(OPS)` over [`REPS`] repetitions.
fn per_op_ns(mut body: impl FnMut(u64)) -> f64 {
    body(OPS / 10); // warm caches and lazily mapped memory
    let reps: Vec<u64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body(OPS);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median(&sorted(reps)) as f64 / OPS as f64
}

// SAFETY: callers: run only by `capture_and_run_on` in `switch_pair_ns`,
// with `arg` pointing at the `RawContext` that call has just filled.
unsafe extern "C" fn bounce(arg: *mut c_void) -> ! {
    // SAFETY: `arg` is the context captured by the enclosing
    // `capture_and_run_on`, resumed exactly once, on the thread and stack
    // that captured it, which are intact.
    unsafe {
        let ctx = *(arg as *const RawContext);
        resume(ctx, core::ptr::null_mut())
    }
}

/// One `capture_and_run_on` onto a fiber stack plus the `resume` back: the
/// context-switch pair every spawn pays.
fn switch_pair_ns(pool: &StackPool) -> f64 {
    let stack = pool.get();
    let top = stack.top();
    let ns = per_op_ns(|n| {
        for _ in 0..n {
            let mut ctx = RawContext::null();
            let slot = &mut ctx as *mut RawContext;
            // SAFETY: `top` is the high end of a mapped, unused fiber stack
            // that outlives the call; `bounce` never returns and resumes the
            // captured context exactly once, after the capture.
            unsafe {
                black_box(capture_and_run_on(slot, top, bounce, slot.cast()));
            }
        }
    });
    pool.put(stack);
    ns
}

/// Isolated costs of the public layer parts.
pub struct Parts {
    pub switch_pair_ns: f64,
    pub cache_get_put_ns: f64,
    pub pool_get_put_ns: f64,
    pub split_push_pop_ns: f64,
    pub cl_push_pop_ns: f64,
    pub cl_steal_ns: f64,
    pub join2_ns: f64,
}

impl Parts {
    pub fn measure() -> Parts {
        let defaults = Config::default();
        let pool = StackPool::new(defaults.stack_size, MadvisePolicy::Keep, 1);
        let switch_pair_ns = switch_pair_ns(&pool);
        let mut cache = WorkerStackCache::new(pool.clone(), defaults.stack_cache);
        let cache_get_put_ns = per_op_ns(|n| {
            for _ in 0..n {
                let s = cache.get();
                cache.put(black_box(s));
            }
        });
        drop(cache);
        let pool_get_put_ns = per_op_ns(|n| {
            for _ in 0..n {
                let s = pool.get();
                pool.put(black_box(s));
            }
        });

        let (w, s) = ClDeque::<u64>::new(defaults.deque_capacity);
        let (split, _thief) =
            SplitDeque::wrap(w, s, SplitConfig::default(), defaults.deque_capacity);
        let split_push_pop_ns = per_op_ns(|n| {
            for i in 0..n {
                let _ = black_box(split.push_spawn(i));
                black_box(split.pop());
            }
        });
        let (w, s) = ClDeque::<u64>::new(defaults.deque_capacity);
        let cl_push_pop_ns = per_op_ns(|n| {
            for i in 0..n {
                let _ = w.push(i);
                black_box(w.pop());
            }
        });
        // Uncontended thief side: fill the deque untimed, then steal it
        // empty, one thread.
        let mut steals = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            for i in 0..OPS {
                let _ = w.push(i);
            }
            let t = Instant::now();
            for _ in 0..OPS {
                black_box(s.steal());
            }
            steals.push(t.elapsed().as_nanos() as u64);
        }
        let cl_steal_ns = median(&sorted(steals)) as f64 / OPS as f64;

        let rt = Runtime::new(Config::with_workers(1)).expect("1-worker runtime");
        let join2_ns = rt.run(|| {
            per_op_ns(|n| {
                for _ in 0..n {
                    black_box(join2(|| black_box(1u64), || black_box(2u64)));
                }
            })
        });

        Parts {
            switch_pair_ns,
            cache_get_put_ns,
            pool_get_put_ns,
            split_push_pop_ns,
            cl_push_pop_ns,
            cl_steal_ns,
            join2_ns,
        }
    }

    /// The share of an empty `join2` that no public part explains: frame
    /// and record init, sync precheck, TLS lookup, statistics, unwind guard.
    pub fn ledger_residual_ns(&self) -> f64 {
        self.join2_ns - self.switch_pair_ns - self.cache_get_put_ns - self.split_push_pop_ns
    }

    pub fn emit(&self, r: &mut Report) {
        r.put("context.switch_pair_ns", self.switch_pair_ns, "ns");
        r.put("context.cache_get_put_ns", self.cache_get_put_ns, "ns");
        r.put("context.pool_get_put_ns", self.pool_get_put_ns, "ns");
        r.put("deque.split_push_pop_ns", self.split_push_pop_ns, "ns");
        r.put("deque.cl_push_pop_ns", self.cl_push_pop_ns, "ns");
        r.put("deque.cl_steal_ns", self.cl_steal_ns, "ns");
        r.put("runtime.join2_ns", self.join2_ns, "ns");
        r.put(
            "runtime.ledger_residual_ns",
            self.ledger_residual_ns(),
            "ns",
        );
    }
}

/// The runtime instances of one run. Where a runtime maps its fiber stacks
/// moves the `join2` fast path by up to ±15% from one instance to the next
/// in one process, so a run spreads its operations over many fresh
/// instances instead of measuring one layout.
#[derive(Default)]
pub struct Instances {
    /// `Runtime::new` plus the warm-up, per instance.
    pub setup_ns: Vec<u64>,
    /// `Runtime::new` alone, per instance.
    pub new_ns: Vec<u64>,
    /// Stacks mapped by each retired instance.
    pub stack_maps: Vec<u64>,
}

impl Instances {
    /// Creates a runtime with `workers` workers and warms it with `warm`;
    /// both are timed as set-up.
    pub fn fresh(&mut self, workers: usize, warm: impl FnOnce(&Runtime)) -> Runtime {
        let t0 = Instant::now();
        let rt = Runtime::new(Config::with_workers(workers)).expect("runtime");
        self.new_ns.push(t0.elapsed().as_nanos() as u64);
        warm(&rt);
        self.setup_ns.push(t0.elapsed().as_nanos() as u64);
        rt
    }

    /// Drops an instance, keeping its stack-map count.
    pub fn retire(&mut self, rt: Runtime) {
        self.stack_maps.push(rt.pool_stats().2);
    }

    /// Median set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        median(&sorted(self.setup_ns.clone())) as f64 / 1e9
    }

    /// Emits `runtime.new_ms` and `context.stack_maps` (median instance).
    pub fn emit(&self, r: &mut Report) {
        r.put(
            "runtime.new_ms",
            median(&sorted(self.new_ns.clone())) as f64 / 1e6,
            "ms",
        );
        r.put(
            "context.stack_maps",
            median(&sorted(self.stack_maps.clone())) as f64,
            "count",
        );
    }
}

/// Runtime counters accumulated over one phase's operations.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub ops: u64,
    pub stats: StatsSnapshot,
    /// Global stack-pool gets (stack-cache misses).
    pub pool_gets: u64,
}

/// Counter readings taken before an operation; [`Probe::finish`] adds the
/// delta to a phase's [`Counters`].
pub struct Probe {
    stats: StatsSnapshot,
    pool_gets: u64,
}

impl Probe {
    pub fn start(rt: &Runtime) -> Probe {
        Probe {
            stats: rt.stats(),
            pool_gets: rt.pool_stats().0,
        }
    }

    pub fn finish(self, rt: &Runtime, ops: u64, into: &mut Counters) {
        let after = rt.stats();
        into.ops += ops;
        into.pool_gets += rt.pool_stats().0 - self.pool_gets;
        into.stats.merge(&delta(&after, &self.stats));
    }
}

/// `a - b` field by field (counters only grow).
fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    macro_rules! sub {
        ($($f:ident),*) => { StatsSnapshot { $($f: a.$f - b.$f),* } };
    }
    sub!(
        spawns,
        unoffered,
        fast_pops,
        steals,
        steal_empty,
        steal_retry,
        own_takes,
        joins,
        syncs_inline,
        suspensions,
        sync_resumes,
        cancels,
        aborts,
        roots,
        parks,
        wakes_issued,
        wakes_spurious,
        parked_ns,
        promotions,
        promoted_items,
        private_pops,
        async_parks,
        async_resumes,
        reactor_polls,
        reactor_events,
        timer_fires
    )
}

/// Steals over steal attempts (steals + empty + retry); 0 with no attempts.
pub fn steal_success_ratio(s: &StatsSnapshot) -> f64 {
    ratio(
        s.steals as f64,
        (s.steals + s.steal_empty + s.steal_retry) as f64,
    )
}

/// Emits the counter-derived per-layer metrics for the two phases of a
/// workload (`light` and `heavy`), plus the totals over both.
pub fn emit_counters(r: &mut Report, light: &Counters, heavy: &Counters) {
    let mut all = *light;
    all.ops += heavy.ops;
    all.pool_gets += heavy.pool_gets;
    all.stats.merge(&heavy.stats);
    let s = &all.stats;
    let ops = all.ops as f64;
    let kspawns = s.spawns as f64 / 1000.0;

    r.put(
        "context.pool_gets_per_kspawn",
        ratio(all.pool_gets as f64, kspawns),
        "count",
    );
    r.put(
        "deque.private_pop_ratio",
        ratio(s.private_pops as f64, s.fast_pops as f64),
        "ratio",
    );
    r.put(
        "deque.promotions_per_kspawn",
        ratio(s.promotions as f64, kspawns),
        "count",
    );
    r.put("deque.steals_per_op", ratio(s.steals as f64, ops), "count");
    r.put("deque.steal_success_ratio", steal_success_ratio(s), "ratio");
    r.put(
        "deque.promoted_stolen_ratio",
        ratio(s.steals as f64, s.promoted_items as f64),
        "ratio",
    );
    r.put(
        "runtime.suspend_ratio",
        ratio(
            s.suspensions as f64,
            (s.suspensions + s.syncs_inline) as f64,
        ),
        "ratio",
    );
    r.put(
        "runtime.sync_resumes_per_op",
        ratio(s.sync_resumes as f64, ops),
        "count",
    );
    r.put(
        "idle.spurious_ratio",
        ratio(s.wakes_spurious as f64, s.parks as f64),
        "ratio",
    );
    for (phase, c) in [("light", light), ("heavy", heavy)] {
        let s = &c.stats;
        let ops = c.ops as f64;
        r.put(
            format!("idle.parks_per_op.{phase}"),
            ratio(s.parks as f64, ops),
            "count",
        );
        r.put(
            format!("idle.parked_ms_per_op.{phase}"),
            ratio(s.parked_ns as f64 / 1e6, ops),
            "ms",
        );
        r.put(
            format!("idle.wakes_issued_per_op.{phase}"),
            ratio(s.wakes_issued as f64, ops),
            "count",
        );
        r.put(
            format!("async.parks_per_op.{phase}"),
            ratio(s.async_parks as f64, ops),
            "count",
        );
        r.put(
            format!("reactor.polls_per_op.{phase}"),
            ratio(s.reactor_polls as f64, ops),
            "count",
        );
        r.put(
            format!("reactor.events_per_poll.{phase}"),
            ratio(s.reactor_events as f64, s.reactor_polls as f64),
            "count",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_success_ratio_with_no_attempts_is_zero() {
        assert_eq!(steal_success_ratio(&StatsSnapshot::default()), 0.0);
        let s = StatsSnapshot {
            steals: 1,
            steal_empty: 2,
            steal_retry: 1,
            ..StatsSnapshot::default()
        };
        assert_eq!(steal_success_ratio(&s), 0.25);
    }

    #[test]
    fn counters_of_an_idle_phase_emit_zeros_not_nan() {
        let mut r = Report::default();
        emit_counters(&mut r, &Counters::default(), &Counters::default());
        // `Report::put` refuses non-finite values, so reaching here means
        // every zero-base ratio was defined.
        assert!(r.table().contains("deque.promoted_stolen_ratio"));
    }

    #[test]
    fn delta_subtracts_field_by_field() {
        let a = StatsSnapshot {
            spawns: 10,
            parks: 3,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            spawns: 4,
            parks: 1,
            ..StatsSnapshot::default()
        };
        let d = delta(&a, &b);
        assert_eq!((d.spawns, d.parks, d.steals), (6, 2, 0));
    }

    #[test]
    fn parts_are_positive_and_join2_covers_a_switch() {
        let p = Parts::measure();
        for v in [
            p.switch_pair_ns,
            p.cache_get_put_ns,
            p.pool_get_put_ns,
            p.split_push_pop_ns,
            p.cl_push_pop_ns,
            p.join2_ns,
        ] {
            assert!(v > 0.0, "{v}");
        }
        assert!(p.join2_ns > p.switch_pair_ns);
    }
}
