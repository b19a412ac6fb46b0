//! Workers, the shared runtime state, and the work-finding loop.
//!
//! A worker is one OS thread (§II: user-space platforms implement workers as
//! kernel-level threads) owning a work-stealing deque and a private stack
//! cache. The work-finding loop implements the scheduling discipline of
//! §III-B: prefer local work (bottom of the own deque), then randomised
//! stealing; every continuation taken is a fork (the `α`/count bookkeeping
//! happens in [`crate::flavor`]).
//!
//! # The `current_stack` invariant
//!
//! At any instant, a worker's `current_stack` field holds the handle of the
//! very stack its control flow is executing on. Every context transfer
//! hands stacks over through `SpawnRecord::stack`, `FrameCore::
//! suspended_stack` and `pending_recycle` such that the invariant is
//! restored at the resume site — including when a control flow *returns*
//! from a call on a different OS thread than it entered (which happens
//! whenever a nested sync suspended and was resumed elsewhere).

use crate::sync::{AtomicBool, AtomicU64, Ordering};
use core::cell::Cell;
use core::ffi::c_void;
use std::sync::Arc;

use nowa_context::{capture_and_run_on, resume, RawContext, Stack, StackPool, WorkerStackCache};
use nowa_deque::Steal;

use crate::cancel::{self, CancelCell, DeadlineQueue};
use crate::chaos;
use crate::config::Config;
use crate::flavor::{self, Flavor, OwnerDeque, Rec, SharedStealer};
use crate::idle::IdleState;
use crate::injector::Injector;
use crate::obs;
use crate::reactor::Reactor;
use crate::stats::{StatsSnapshot, WorkerStats};
use crate::task::{resume_ready, AsyncWaiters, ReadyCell};

/// A submitted root task (type-erased; completion signalling is baked into
/// the closure by [`crate::runtime::Runtime::run`]).
pub struct RootTask {
    /// Runs the task; must not unwind.
    pub run: Box<dyn FnOnce() + Send + 'static>,
}

/// State shared by all workers of one runtime instance.
pub struct Shared {
    /// The runtime flavor (protocol × deque).
    pub flavor: Flavor,
    /// Thief-side handles, indexed by worker.
    pub stealers: Box<[SharedStealer]>,
    /// Per-worker statistics.
    pub stats: Box<[WorkerStats]>,
    /// Root-task submission queue (lock-free MPMC segment queue).
    pub injector: Injector,
    /// The idle engine: eventcount-style parking and targeted wakes.
    pub idle: IdleState,
    /// Set once at shutdown.
    pub shutdown: AtomicBool,
    /// The runtime-root cancellation scope: parent of every region chain
    /// and the ambient scope of unscoped frames, so the unscoped hot-path
    /// checkpoint is a chain of depth one. [`crate::Runtime::shutdown`]
    /// latches it to cancel all in-flight work cooperatively.
    pub(crate) cancel_root: CancelCell,
    /// Root tasks submitted but not yet completed; `shutdown` drains to
    /// zero (or times out) on this.
    pub active_roots: AtomicU64,
    /// Armed region deadlines, fired by the watchdog thread.
    pub(crate) deadlines: DeadlineQueue,
    /// Async continuations claimed by a waker and awaiting a worker
    /// (MPMC, same segment queue as the injector). Never closed: the
    /// shutdown drain still resumes these so their `block_on` frames can
    /// unwind through their cancellation checkpoints.
    pub(crate) ready: Injector<ReadyCell>,
    /// Registry of parked async continuations, notified en masse when a
    /// cancellation source fires (token, deadline, sibling panic,
    /// shutdown) so `block_on` loops re-check their scope chains.
    pub(crate) async_waiters: AsyncWaiters,
    /// The epoll reactor + timer wheel, polled by parked workers.
    pub(crate) reactor: Reactor,
    /// The global stack pool.
    pub pool: Arc<StackPool>,
    /// The configuration the runtime was built with.
    pub config: Config,
    /// Per-worker trace buffers; `Some` iff the runtime was configured
    /// with `Config::tracing(true)`.
    #[cfg(feature = "trace")]
    pub trace: Option<Box<[nowa_trace::TraceBuffer]>>,
    /// Per-worker flight-recorder rings; `Some` iff the runtime was
    /// configured with `Config::flight_recorder`. Independent of `trace`:
    /// the flight recorder is bounded and exporter-free, so it can stay on
    /// even when full tracing is off.
    #[cfg(feature = "trace")]
    pub flight: Option<Box<[nowa_trace::FlightRing]>>,
    /// Per-worker fault-injection state; `Some` iff the runtime was
    /// configured with a `Config::chaos` knob.
    #[cfg(feature = "chaos")]
    pub chaos: Option<Box<[chaos::ChaosWorkerState]>>,
    /// Stall reports emitted by the watchdog since startup.
    pub watchdog_reports: AtomicU64,
}

impl Shared {
    /// Aggregated scheduler statistics.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::aggregate(&self.stats)
    }
}

/// One worker: an OS thread plus its scheduling state.
pub struct Worker {
    /// Index into `Shared::stealers` / `Shared::stats`.
    pub index: usize,
    /// Owner side of this worker's deque.
    pub deque: OwnerDeque,
    /// Shared runtime state.
    pub shared: Arc<Shared>,
    /// Private stack cache over the global pool.
    pub cache: WorkerStackCache,
    /// Handle of the stack the worker is currently executing on.
    pub current_stack: Option<Stack>,
    /// Staging slot: a freshly acquired stack about to be switched onto.
    pub incoming_stack: Option<Stack>,
    /// Staging slot: an abandoned stack, recycled at the next resume site.
    pub pending_recycle: Option<Stack>,
    /// Continuation of `worker_main` on the OS thread stack (exit path).
    pub exit_ctx: RawContext,
    /// xorshift64* state for victim selection.
    pub rng: u64,
    /// Victim of this worker's most recent successful steal
    /// (`usize::MAX` = none yet); retried first in every sweep.
    pub last_victim: usize,
    /// The ambient cancellation scope: the scope governing whatever code
    /// this worker is currently running. Re-established at every resume
    /// boundary from the resumed frame's recorded scope (and reset to
    /// `Shared::cancel_root` before each root task), so freshly created
    /// frames always inherit the right scope even after migration.
    pub(crate) cancel_scope: *const CancelCell,
}

// SAFETY: a Worker is moved to its OS thread once at startup and from then
// on only accessed by whichever single thread currently executes with it as
// `current_worker` (the raw context/stack fields are what inhibit the auto
// impl).
unsafe impl Send for Worker {}

impl Worker {
    /// This worker's stat block.
    #[inline]
    pub fn stats(&self) -> &WorkerStats {
        &self.shared.stats[self.index]
    }

    /// Next pseudo-random number (xorshift64*).
    #[inline]
    pub fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform random index in `0..n` via Lemire's multiply-shift reduction
    /// — unbiased, unlike `next_rand() % n` (a `% n` of a 64-bit value
    /// over-weights the low residues whenever `n` doesn't divide `2^64`).
    #[inline]
    pub fn next_rand_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (((self.next_rand() as u128) * (n as u128)) >> 64) as usize
    }
}

std::thread_local! {
    static CURRENT_WORKER: Cell<*mut Worker> = const { Cell::new(core::ptr::null_mut()) };
}

/// The worker the calling OS thread belongs to, or null when the thread is
/// not a runtime worker (e.g. user threads calling the API — they fall back
/// to serial execution).
///
/// Deliberately `#[inline(never)]`: a continuation may migrate between OS
/// threads at every capture point, so thread-local addresses must never be
/// cached across one; an uninlinable function re-derives the TLS slot on
/// every call.
#[inline(never)]
pub fn current_worker() -> *mut Worker {
    CURRENT_WORKER.with(|c| c.get())
}

/// Installs the worker for the calling OS thread. `#[inline(never)]` for
/// the same reason as [`current_worker`].
#[inline(never)]
pub fn set_current_worker(worker: *mut Worker) {
    CURRENT_WORKER.with(|c| c.set(worker));
}

/// Aborts the process if dropped by unwinding — runtime-internal code must
/// never unwind through a fiber base frame (undefined behaviour).
pub struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        eprintln!("nowa-runtime: internal panic unwound to a fiber base; aborting");
        std::process::abort();
    }
}

/// Resumes a taken continuation, handing over the current stack for
/// recycling. Diverges into the resumed control flow.
///
/// # Safety
/// `rec` must be a continuation record exclusively owned by this control
/// flow (freshly popped/stolen), with a captured `ctx`.
pub unsafe fn resume_record(worker: *mut Worker, rec: Rec) -> ! {
    unsafe {
        debug_assert!((*worker).pending_recycle.is_none());
        // The resumed continuation belongs to the record's frame: make its
        // scope this worker's ambient so nested frames inherit it.
        (*worker).cancel_scope = (*(*rec.as_ptr()).frame).core.scope.get();
        (*worker).pending_recycle = (*worker).current_stack.take();
        let ctx = (*rec.as_ptr()).ctx;
        debug_assert!(!ctx.is_null());
        resume(ctx, worker as *mut c_void)
    }
}

/// Resumes the suspended sync continuation of `frame`. Diverges.
///
/// # Safety
/// The caller must have won the sync (its join observed the restored
/// counter hit zero), which makes it the unique owner of the suspension
/// state.
pub unsafe fn resume_sync(worker: *mut Worker, frame: *const crate::record::Frame) -> ! {
    unsafe {
        let scope = (*frame).core.scope.get();
        // SAFETY: the frame is live (we own its suspension), so its whole
        // scope chain is live.
        if cancel::cancelled_chain(scope).is_some() {
            // Resuming a suspension whose scope is cancelled *is* the
            // abort: the continuation proceeds straight into the sync
            // checkpoint and unwinds. Attribute it as such.
            (*worker).stats().aborts.inc();
            obs::on_abort(worker, frame);
        } else {
            (*worker).stats().sync_resumes.inc();
            obs::on_sync_resume(worker, frame);
        }
        (*worker).cancel_scope = scope;
        debug_assert!((*worker).pending_recycle.is_none());
        (*worker).pending_recycle = (*worker).current_stack.take();
        let ctx = *(*frame).core.sync_ctx.get();
        debug_assert!(!ctx.is_null());
        resume(ctx, worker as *mut c_void)
    }
}

/// The work-finding loop (never returns; diverges into resumed work or the
/// worker's exit continuation).
///
/// Order per iteration: shutdown check → own deque bottom → root injector →
/// steal sweep (last-victim affinity, then a random walk) → the idle
/// ladder: exponential spin, OS yields, and finally the announce-validate-
/// park descent of [`crate::idle`]. `failed_sweeps` only resets when actual
/// work was found — a perpetually contended victim (`Steal::Retry`) no
/// longer pins every thief at maximum spin.
///
/// # Safety
/// Must run on a worker thread whose `current_stack` invariant holds.
pub unsafe fn find_work() -> ! {
    let mut failed_sweeps: u32 = 0;
    loop {
        // Re-derive the worker every iteration: running a root task may
        // return on a different OS thread (see module docs).
        let worker = current_worker();
        debug_assert!(!worker.is_null());
        let shared: &Shared = unsafe { &*Arc::as_ptr(&(*worker).shared) };
        let protocol = shared.flavor.protocol;

        // Liveness heartbeat for the stall watchdog: even a fully idle
        // worker ticks this every backoff period.
        unsafe { (*worker).stats().loop_ticks.inc() };

        if shared.shutdown.load(Ordering::Acquire) {
            unsafe {
                (*worker).pending_recycle = (*worker).current_stack.take();
                let ctx = (*worker).exit_ctx;
                resume(ctx, worker as *mut c_void)
            }
        }

        // Local work first: the bottom of our own deque holds the deepest
        // ancestor continuation (cheapest to resume, busy-leaves style).
        if let Some(rec) = flavor::take_own(protocol, unsafe { &(*worker).deque }) {
            unsafe {
                (*worker).stats().own_takes.inc();
                if flavor::last_pop_was_private(&(*worker).deque) {
                    (*worker).stats().private_pops.inc();
                }
                obs::on_own_take(worker, (*rec.as_ptr()).frame);
                resume_record(worker, rec)
            }
        }

        // Claimed async continuations next: a ready cell was explicitly
        // made runnable by a waker and its stack is already built, so it
        // outranks starting a fresh root.
        if let Some(cell) = shared.ready.pop() {
            unsafe {
                // Drop our queue Arc *before* diverging into the resume
                // (nothing after `resume_ready` runs). The parked
                // `block_on` frame holds its own Arc on the suspended
                // stack, which keeps the cell alive across the switch.
                let ptr = Arc::as_ptr(&cell.0);
                drop(cell);
                resume_ready(worker, ptr)
            }
        }

        // Root tasks. An empty poll is three loads on read-mostly lines —
        // N workers polling no longer serialize on an injector lock.
        if let Some(task) = shared.injector.pop() {
            unsafe {
                (*worker).stats().roots.inc();
                obs::on_root(worker);
                // A root tree starts unscoped: governed by the runtime
                // root cell only.
                (*worker).cancel_scope = &shared.cancel_root;
            }
            // The task's control flow may suspend internally and complete
            // on another worker; everything below re-derives state.
            (task.run)();
            failed_sweeps = 0;
            continue;
        }

        // Steal sweep: the last successful victim first (work tends to
        // cluster — the victim that fed us last is the best bet), then a
        // full walk from an unbiased random start.
        let n = shared.stealers.len();
        if n > 1 {
            let me = unsafe { (*worker).index };
            let lv = unsafe { (*worker).last_victim };
            let start = unsafe { (*worker).next_rand_below(n) };
            let retry_budget = shared.config.idle.steal_retries;
            // Candidate 0 is the affinity victim; candidates 1..=n walk the
            // ring (the affinity victim may repeat — one cheap extra probe).
            for i in 0..=n {
                let victim = if i == 0 {
                    if lv < n && lv != me {
                        lv
                    } else {
                        continue;
                    }
                } else {
                    (start + i - 1) % n
                };
                if victim == me {
                    continue;
                }
                // Bounded per-victim retry with exponential backoff: a lost
                // race means the victim *has* work, so it's worth a few
                // increasingly spaced attempts — but never an unbounded
                // livelock against a contended victim.
                let mut attempt: u32 = 0;
                loop {
                    unsafe { chaos::on_steal_attempt(worker) };
                    match flavor::steal_from(protocol, &shared.stealers[victim]) {
                        Steal::Success(rec) => unsafe {
                            (*worker).last_victim = victim;
                            (*worker).stats().steals.inc();
                            obs::on_steal_success(worker, victim, (*rec.as_ptr()).frame);
                            // Chaos: forced cancellation at the steal
                            // boundary — the stolen continuation resumes
                            // straight into a cancelled checkpoint.
                            if chaos::on_force_cancel(worker) {
                                cancel::cancel_enclosing_region(
                                    (*(*rec.as_ptr()).frame).core.scope.get(),
                                    shared,
                                    cancel::CancelReason::Token,
                                );
                            }
                            resume_record(worker, rec)
                        },
                        Steal::Retry => {
                            unsafe {
                                (*worker).stats().steal_retry.inc();
                                obs::on_steal_retry(worker, victim);
                            }
                            attempt += 1;
                            if attempt > retry_budget {
                                break;
                            }
                            for _ in 0..(1u32 << attempt.min(8)) {
                                core::hint::spin_loop();
                            }
                        }
                        Steal::Empty => {
                            unsafe {
                                (*worker).stats().steal_empty.inc();
                                obs::on_steal_empty(worker, victim);
                            }
                            break;
                        }
                    }
                }
            }
        }

        // Nothing anywhere: descend the idle ladder. `failed_sweeps` resets
        // only on actual work (the resume/continue paths above).
        failed_sweeps = failed_sweeps.saturating_add(1);
        unsafe { obs::on_idle(worker) };
        let idle_cfg = &shared.config.idle;
        let force_park = unsafe { chaos::on_idle_backoff(worker) };
        if force_park || failed_sweeps > idle_cfg.spin_sweeps + idle_cfg.yield_sweeps {
            unsafe { park_worker(worker, shared) };
        } else if failed_sweeps <= idle_cfg.spin_sweeps {
            // Short exponential spin: cheapest, keeps steal latency minimal
            // while work is likely to reappear immediately.
            for _ in 0..(1u32 << failed_sweeps.min(10)) {
                core::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
    }
}

/// The deep-idle descent: announce intent to sleep, re-validate every work
/// source, then futex-park until a targeted wake, the `max_park` timeout,
/// or a stale epoch. The announce-then-re-scan order is what makes the
/// engine lost-wakeup-free: any producer whose push is ordered after our
/// announce sees our sleeper count (and wakes us); any push ordered before
/// it is seen by the re-scan (and aborts the park).
///
/// # Safety
/// `worker` must be the calling thread's live worker; `shared` its runtime.
unsafe fn park_worker(worker: *mut Worker, shared: &Shared) {
    let index = unsafe { (*worker).index };

    // Reactor-poller branch: the first idle worker to claim the poller
    // slot sleeps in `epoll_wait` instead of on a futex, so I/O readiness
    // and timers are served by parked capacity — no dedicated reactor
    // thread. The claimant does NOT announce to the idle engine (it is
    // not futex-parked and a targeted wake could not reach it); producers
    // that find no futex sleeper kick the eventfd instead, and the poll
    // timeout is clamped to `max_park` as the store-buffering backstop.
    if shared.reactor.try_claim(index) {
        // Same validation re-scan as the futex path: anything runnable
        // aborts the poll before it blocks.
        let runnable = shared.shutdown.load(Ordering::Acquire)
            || !shared.injector.is_empty()
            || !shared.ready.is_empty()
            || shared
                .stealers
                .iter()
                .enumerate()
                .any(|(i, s)| i != index && flavor::stealer_len(s) > 0);
        if !runnable {
            let max_ms = (shared
                .config
                .idle
                .max_park
                .as_millis()
                .min(i32::MAX as u128) as u64)
                .max(1);
            let timeout = shared
                .reactor
                .timers
                .next_timeout_ms(std::time::Instant::now(), max_ms);
            unsafe { shared.reactor.poll(worker, timeout) };
        }
        shared.reactor.release();
        return;
    }

    let epoch = shared.idle.announce(index);

    // Validation re-scan: anything runnable anywhere? (Our own deque can't
    // have grown — only this worker pushes to it — so scan the others.)
    let runnable = shared.shutdown.load(Ordering::Acquire)
        || !shared.injector.is_empty()
        || !shared.ready.is_empty()
        || shared
            .stealers
            .iter()
            .enumerate()
            .any(|(i, s)| i != index && flavor::stealer_len(s) > 0);
    if runnable {
        if shared.idle.cancel(index) {
            // A targeted wake raced onto us while we were cancelling; pass
            // it on so the work that triggered it still gets a thief.
            if let Some(target) = shared.idle.wake_one() {
                unsafe {
                    (*worker).stats().wakes_issued.inc();
                    obs::on_wake(worker, target);
                }
            }
        }
        return;
    }

    let skip_wait = unsafe { chaos::on_park_wait(worker) };
    unsafe {
        (*worker).stats().parks.inc();
        obs::on_park(worker);
    }
    let t0 = std::time::Instant::now();
    let timeout_ns = shared.config.idle.max_park.as_nanos().min(u64::MAX as u128) as u64;
    let woken = shared.idle.park(index, epoch, timeout_ns.max(1), skip_wait);
    unsafe {
        let stats = (*worker).stats();
        stats.parked_ns.add(t0.elapsed().as_nanos() as u64);
        if !woken {
            stats.wakes_spurious.inc();
        }
        obs::on_unpark(worker);
    }
}

/// The wake hook of the async ready queue, callable from ANY thread (a
/// `Waker` may fire from a non-worker thread): one targeted futex wake if
/// a sleeper exists, otherwise a reactor kick — the only parked worker may
/// be the claimed poller, which the idle engine cannot see.
pub(crate) fn wake_for_ready(shared: &Shared) {
    if shared.idle.wake_one().is_none() {
        shared.reactor.kick_if_claimed();
    }
}

/// The spawn-path wake hook: one relaxed load of the sleeper count on the
/// common path; only when sleepers exist *and* this worker's deque has
/// crossed the configured depth does a targeted single-worker wake go out.
/// (Depth gating keeps a lone spawn-pop-spawn-pop loop from paying wake
/// overhead for work it is about to reclaim itself.)
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn maybe_wake_after_spawn(worker: *mut Worker) {
    let shared: &Shared = unsafe { &*Arc::as_ptr(&(*worker).shared) };
    if shared.idle.sleepers() == 0 {
        // No futex sleeper — but the claimed reactor poller (invisible to
        // the idle engine) may be napping. Kicks are eventfd-coalesced, so
        // a spawn storm pays at most one write per poll cycle.
        shared.reactor.kick_if_claimed();
        return;
    }
    let threshold = shared.config.idle.wake_threshold;
    if threshold > 0 && flavor::public_occupancy(unsafe { &(*worker).deque }) < threshold {
        return;
    }
    if let Some(target) = shared.idle.wake_one() {
        unsafe {
            (*worker).stats().wakes_issued.inc();
            obs::on_wake(worker, target);
        }
    }
}

/// Promotion bookkeeping: one batch, `moved` items. No-op when `moved`
/// is 0 so callers can pass a promotion result unconditionally.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn note_promotion(worker: *mut Worker, moved: u32) {
    if moved > 0 {
        unsafe {
            let stats = (*worker).stats();
            stats.promotions.inc();
            stats.promoted_items.add(u64::from(moved));
        }
    }
}

/// The split-deque wake hook, called when a spawn push promoted items:
/// if sleepers exist, optionally promote another batch (`promote_on_wake`,
/// so the woken thief finds more than a single stealable item) and issue
/// one targeted wake, gated on the *public* depth — a wake is only useful
/// if the woken thief can actually see the work.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
#[inline]
pub(crate) unsafe fn wake_after_promotion(worker: *mut Worker) {
    let shared: &Shared = unsafe { &*Arc::as_ptr(&(*worker).shared) };
    if shared.idle.sleepers() == 0 {
        // See `maybe_wake_after_spawn`: the poller doesn't announce.
        shared.reactor.kick_if_claimed();
        return;
    }
    let split = &shared.config.split;
    if split.promote_on_wake {
        let moved = flavor::force_promote(unsafe { &(*worker).deque }, split.promote_batch.max(1));
        unsafe { note_promotion(worker, moved) };
    }
    let threshold = shared.config.idle.wake_threshold;
    if threshold > 0 && flavor::public_occupancy(unsafe { &(*worker).deque }) < threshold {
        return;
    }
    if let Some(target) = shared.idle.wake_one() {
        unsafe {
            (*worker).stats().wakes_issued.inc();
            obs::on_wake(worker, target);
        }
    }
}

// SAFETY: callers: invoked only via `capture_and_run_on` from `worker_main`
// with `arg` pointing at this thread's boxed, pinned `Worker`.
unsafe extern "C" fn worker_body(arg: *mut c_void) -> ! {
    // Armed for the whole body: an unwinding panic would otherwise reach
    // the fiber base frame (undefined behaviour).
    let _guard = AbortOnUnwind;
    unsafe {
        let worker = arg as *mut Worker;
        (*worker).current_stack = (*worker).incoming_stack.take();
        find_work()
    }
}

/// OS-thread entry of a worker. Returns when the runtime shuts down.
#[allow(clippy::boxed_local)] // the Box pins the Worker's address for TLS/raw pointers
pub fn worker_main(mut worker: Box<Worker>) {
    if worker.shared.config.pin_workers {
        let _ = nowa_context::sys::pin_current_thread_to(worker.index);
    }
    // Label the thread for guard-page fault reports, and give the SIGSEGV
    // handler an alternate stack to run on: at the moment of a fiber stack
    // overflow this thread's sp points into the guard page, so the handler
    // cannot run on the faulting stack. Held for the thread's lifetime.
    nowa_context::signal::set_thread_label(worker.index);
    let _alt = if worker.shared.config.guard_diagnostics {
        nowa_context::signal::AltStack::install().ok()
    } else {
        None
    };
    let wptr: *mut Worker = &mut *worker;
    set_current_worker(wptr);
    // SAFETY: `wptr` points at the boxed worker pinned for this whole
    // function; `worker_body` diverges into the scheduler and resumes
    // `exit_ctx` exactly once, at shutdown.
    unsafe {
        let first = (*wptr).cache.get();
        let top = first.top();
        (*wptr).incoming_stack = Some(first);
        let payload =
            capture_and_run_on(&mut (*wptr).exit_ctx, top, worker_body, wptr as *mut c_void);
        // ---- shutdown: back on the OS thread stack ----
        let worker_now = payload as *mut Worker;
        debug_assert_eq!(worker_now, wptr, "exit context resumed by its owner");
        if let Some(stack) = (*worker_now).pending_recycle.take() {
            (*worker_now).cache.put(stack);
        }
    }
    set_current_worker(core::ptr::null_mut());
    // `worker` drops here; its cache drains into the shared pool.
}
