//! The waker bridge: a suspended continuation as a `std::task::Waker`.
//!
//! `block_on` polls a `Future` on the calling strand. When the future
//! returns `Pending`, the strand's continuation is captured exactly as an
//! explicit sync suspension is ([`crate::scheduler`]): the blocked stack
//! moves into an `AsyncCell`, the worker switches to a fresh stack and
//! descends into the work-finding loop. The `Waker` handed to the future
//! is a reference-counted view of that same cell — *a suspended Nowa
//! continuation is a waker*. Waking claims the parked continuation through
//! a three-state handoff and enqueues it on the runtime's ready queue,
//! where any worker resumes it (the continuation migrates like any stolen
//! continuation; DESIGN.md §6h).
//!
//! # The wake-state handoff
//!
//! The cell's `state` word is the entire protocol (modeled in
//! `tests/loom.rs`, audited in DESIGN.md §7b):
//!
//! ```text
//! RUNNING ──park_publish──▶ PARKED ──wake_claim──▶ NOTIFIED ──resume_begin──▶ RUNNING
//!    │                                                ▲
//!    └────────────wake_claim (flag)───────────────────┘
//! ```
//!
//! * The parker captures its context *first*, then publishes `PARKED`.
//!   A failed publish means a wake already flagged the cell — the parker
//!   still owns the continuation and resumes itself in place (no lost
//!   wake, no double resume).
//! * Exactly one waker can claim `PARKED → NOTIFIED`; every other waker
//!   sees `NOTIFIED` (or `RUNNING`, which it merely flags) and does
//!   nothing. The claim is what makes enqueueing the cell on the ready
//!   queue exactly-once.
//! * The resumed strand swaps `NOTIFIED → RUNNING` before re-polling, so
//!   a wake that lands *during* the poll is preserved for the next park
//!   attempt.
//!
//! Cancellation composes at the same point as the sync path: every
//! resumption (and first poll) begins with a cooperative checkpoint
//! against the cell's recorded scope, so cancelling a region (token,
//! deadline, sibling panic, shutdown) unwinds its parked async strands as
//! soon as the cancel broadcast wakes them (`AsyncWaiters`).

use crate::sync::{AtomicU32, Ordering};
use core::cell::{Cell, UnsafeCell};
use core::ffi::c_void;
use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::sync::{Arc, Weak};

use nowa_context::{capture_and_run_on, resume, RawContext, Stack};

use crate::cancel::{self, CancelCell};
use crate::chaos;
use crate::obs;
use crate::worker::{current_worker, find_work, AbortOnUnwind, Shared, Worker};

/// The strand is executing (initial state, and while polling).
pub const ASYNC_RUNNING: u32 = 0;
/// The continuation is captured in the cell and owned by the next claimer.
pub const ASYNC_PARKED: u32 = 1;
/// A wake has been consumed: either a claimer owns the continuation or the
/// still-running strand will observe the flag at its next park attempt.
pub const ASYNC_NOTIFIED: u32 = 2;
/// The future completed (or unwound); all further wakes are no-ops.
pub const ASYNC_DONE: u32 = 3;

/// What a [`WakeState::wake_claim`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeClaim {
    /// The caller claimed the parked continuation and must schedule it.
    Claimed,
    /// The strand was still running; the wake was latched for its next
    /// park attempt. Nothing to schedule.
    Flagged,
    /// A wake was already pending (or the future is done); no-op.
    Stale,
}

/// The wake-state word, factored out of `AsyncCell` so the protocol can
/// run under loom unmodified (`tests/loom.rs` models it exhaustively).
pub struct WakeState {
    state: AtomicU32,
}

impl Default for WakeState {
    fn default() -> Self {
        WakeState::new()
    }
}

impl WakeState {
    /// A fresh state word: [`ASYNC_RUNNING`].
    pub fn new() -> WakeState {
        WakeState {
            state: AtomicU32::new(ASYNC_RUNNING),
        }
    }

    /// Parker side: publishes the captured continuation. `true` means the
    /// cell is now `PARKED` and owned by the next claimer; `false` means a
    /// wake raced in first — the parker keeps ownership and must resume
    /// itself.
    // lint: hot-path
    // lint: wait-free
    #[inline]
    pub fn park_publish(&self) -> bool {
        // Release on success: publishes the ctx/stack writes the parker
        // staged into the cell to whichever thread later claims it (the
        // claimer's Acquire in `wake_claim` pairs with this). Acquire on
        // failure: the parker is about to self-resume and re-poll, and
        // must observe whatever the flagging waker published before its
        // wake (e.g. an I/O readiness flag).
        self.state
            .compare_exchange(
                ASYNC_RUNNING,
                ASYNC_PARKED,
                Ordering::Release,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Waker side: consumes one wake. See [`WakeClaim`].
    // lint: hot-path
    // lint: wait-free
    #[inline]
    pub fn wake_claim(&self) -> WakeClaim {
        // ordering: the initial load is Relaxed — every decision is
        // re-validated by a CAS below, which carries the ordering.
        let mut cur = self.state.load(Ordering::Relaxed);
        // lint: bounded(3-state protocol — a CAS miss observes the peer's
        // single transition for this park cycle, then terminates)
        loop {
            match cur {
                ASYNC_PARKED => {
                    // AcqRel: Acquire pairs with the parker's Release
                    // publish (the claimer — or the worker it hands the
                    // cell to via the ready queue's own Release/Acquire
                    // edge — reads ctx/stack); Release orders the waker's
                    // prior writes (readiness flags, received data) before
                    // the state change the resumed strand Acquires.
                    match self.state.compare_exchange(
                        ASYNC_PARKED,
                        ASYNC_NOTIFIED,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return WakeClaim::Claimed,
                        Err(now) => cur = now,
                    }
                }
                ASYNC_RUNNING => {
                    // Release: the strand that loses its `park_publish`
                    // CAS to this flag Acquires it and must see the
                    // waker's prior writes when it re-polls.
                    match self.state.compare_exchange(
                        ASYNC_RUNNING,
                        ASYNC_NOTIFIED,
                        Ordering::Release,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return WakeClaim::Flagged,
                        Err(now) => cur = now,
                    }
                }
                _ => return WakeClaim::Stale,
            }
        }
    }

    /// Resumed strand: consumes the pending notification before the next
    /// poll, so wakes landing mid-poll are preserved for the next park.
    // lint: hot-path
    // lint: wait-free
    #[inline]
    pub fn resume_begin(&self) {
        // Acquire: pairs with the waker's Release in `wake_claim` — the
        // re-poll must observe the readiness the waker published.
        self.state.swap(ASYNC_RUNNING, Ordering::Acquire);
    }

    /// The future completed (or its strand is unwinding): latch the
    /// terminal state so late wakers are no-ops.
    #[inline]
    pub fn complete(&self) {
        // ordering: Relaxed — nothing is published through the terminal
        // latch; late wakers merely observe "nothing to do".
        self.state.store(ASYNC_DONE, Ordering::Relaxed);
    }
}

/// One parked (or parking) `block_on` continuation.
///
/// Shared between the suspended strand (which owns `ctx`/`stack` while the
/// state is not `PARKED`), the wakers cloned from its `Waker`, and the
/// ready queue. The state machine above is what arbitrates ownership: the
/// `UnsafeCell`s are only touched by whichever side currently owns the
/// continuation.
pub(crate) struct AsyncCell {
    /// The handoff word.
    pub(crate) state: WakeState,
    /// The captured continuation (valid while parked).
    ctx: UnsafeCell<RawContext>,
    /// The suspended strand's stack (present while parked).
    stack: UnsafeCell<Option<Stack>>,
    /// The cancellation scope governing the strand; re-established as the
    /// resuming worker's ambient scope, checked at every re-poll.
    scope: Cell<*const CancelCell>,
    /// The runtime, for the wake path (ready queue + idle/reactor kick).
    /// Weak: the runtime may die while external wakers still exist.
    shared: Weak<Shared>,
    /// This cell's slot in [`AsyncWaiters`], for deregistration.
    registry_slot: Cell<usize>,
}

// SAFETY: the wake-state machine serializes all access to the UnsafeCells
// (exactly one side owns the continuation at any instant — see the module
// docs); `scope`/`registry_slot` are only touched by the owning strand.
unsafe impl Send for AsyncCell {}
// SAFETY: as for `Send`.
unsafe impl Sync for AsyncCell {}

impl AsyncCell {
    fn new(shared: Weak<Shared>, scope: *const CancelCell) -> AsyncCell {
        AsyncCell {
            state: WakeState::new(),
            ctx: UnsafeCell::new(RawContext::null()),
            stack: UnsafeCell::new(None),
            scope: Cell::new(scope),
            shared,
            registry_slot: Cell::new(usize::MAX),
        }
    }
}

/// Trace identity of a cell: address-derived, like `nowa_trace::frame_id`.
#[inline]
fn cell_id(cell: *const AsyncCell) -> u64 {
    cell as usize as u64
}

/// A claimed continuation travelling through the ready queue.
pub(crate) struct ReadyCell(pub(crate) Arc<AsyncCell>);

/// Delivers one consumed wake to `cell`: claims the parked continuation
/// and schedules it, or latches the flag for a still-running strand.
pub(crate) fn wake_cell(cell: &Arc<AsyncCell>) {
    match cell.state.wake_claim() {
        WakeClaim::Claimed => {
            if let Some(shared) = cell.shared.upgrade() {
                // `push` only fails once the injector is closed for
                // shutdown; the parked continuation is then unreachable by
                // design (shutdown cancel-broadcast already unwound it).
                if shared.ready.push(ReadyCell(cell.clone())) {
                    crate::worker::wake_for_ready(&shared);
                }
            }
            // Runtime gone: every worker has exited, so the continuation
            // is unreachable anyway (shutdown cancel-broadcasts and
            // drains roots before the last `Shared` reference drops).
        }
        WakeClaim::Flagged | WakeClaim::Stale => {}
    }
}

// ---- RawWaker plumbing over Arc<AsyncCell> ----

const CELL_VTABLE: RawWakerVTable =
    RawWakerVTable::new(cell_clone, cell_wake, cell_wake_by_ref, cell_drop);

fn cell_raw(cell: Arc<AsyncCell>) -> RawWaker {
    RawWaker::new(Arc::into_raw(cell) as *const (), &CELL_VTABLE)
}

// SAFETY: `data` must come from `Arc::into_raw` in `cell_raw` (the vtable
// is only ever paired with such pointers); clones by bumping the count.
unsafe fn cell_clone(data: *const ()) -> RawWaker {
    // SAFETY: `data` came from `Arc::into_raw` in `cell_raw`.
    unsafe { Arc::increment_strong_count(data as *const AsyncCell) };
    RawWaker::new(data, &CELL_VTABLE)
}

// SAFETY: `data` must come from `Arc::into_raw` in `cell_raw`; consumes
// the reference it stands for (RawWaker `wake` contract).
unsafe fn cell_wake(data: *const ()) {
    // SAFETY: consumes the reference `data` stands for.
    let cell = unsafe { Arc::from_raw(data as *const AsyncCell) };
    wake_cell(&cell);
}

// SAFETY: `data` must come from `Arc::into_raw` in `cell_raw`; borrows
// without consuming (ManuallyDrop keeps the count).
unsafe fn cell_wake_by_ref(data: *const ()) {
    // SAFETY: borrows without consuming; ManuallyDrop keeps the count.
    let cell = core::mem::ManuallyDrop::new(unsafe { Arc::from_raw(data as *const AsyncCell) });
    wake_cell(&cell);
}

// SAFETY: `data` must come from `Arc::into_raw` in `cell_raw`; consumes
// the reference it stands for (RawWaker `drop` contract).
unsafe fn cell_drop(data: *const ()) {
    // SAFETY: consumes the reference `data` stands for.
    drop(unsafe { Arc::from_raw(data as *const AsyncCell) });
}

fn waker_of(cell: &Arc<AsyncCell>) -> Waker {
    // SAFETY: the vtable upholds the RawWaker contract over Arc counts.
    unsafe { Waker::from_raw(cell_raw(cell.clone())) }
}

// ---- the registry used by the cancellation broadcast ----

/// Every live `block_on` cell of a runtime, so cancellation events (token,
/// deadline, sibling panic, shutdown) can wake parked async strands — a
/// parked future has no child whose join would abort it, unlike a
/// suspended sync, so cancellation must deliver its own wake.
///
/// A slab of `Weak`s: completed strands deregister eagerly, and a dead
/// entry found during a broadcast is skipped. Mutex'd — registration is
/// once per `block_on`, broadcasts are rare (cancellation events only).
#[derive(Default)]
pub(crate) struct AsyncWaiters {
    slots: parking_lot::Mutex<WaiterSlab>,
}

#[derive(Default)]
struct WaiterSlab {
    entries: Vec<Option<Weak<AsyncCell>>>,
    free: Vec<usize>,
}

impl AsyncWaiters {
    fn register(&self, cell: &Arc<AsyncCell>) -> usize {
        let mut slab = self.slots.lock();
        let weak = Arc::downgrade(cell);
        match slab.free.pop() {
            Some(slot) => {
                slab.entries[slot] = Some(weak);
                slot
            }
            None => {
                slab.entries.push(Some(weak));
                slab.entries.len() - 1
            }
        }
    }

    fn deregister(&self, slot: usize) {
        let mut slab = self.slots.lock();
        slab.entries[slot] = None;
        slab.free.push(slot);
    }

    /// Wakes every registered cell (spuriously, from the future's point of
    /// view): each resumed strand re-checks its scope chain and unwinds if
    /// cancelled, or re-polls and re-parks if its own scope is untouched.
    pub(crate) fn wake_all(&self) {
        // Collect first, wake outside the lock: a wake may run arbitrary
        // downstream code (idle wakes, reactor kicks).
        let cells: Vec<Arc<AsyncCell>> = {
            let slab = self.slots.lock();
            slab.entries
                .iter()
                .flatten()
                .filter_map(Weak::upgrade)
                .collect()
        };
        for cell in &cells {
            wake_cell(cell);
        }
    }
}

/// Deregisters the cell when the `block_on` frame leaves — normally or by
/// unwinding (cancellation raises straight through `block_on`).
struct DeregisterOnDrop {
    cell: Arc<AsyncCell>,
}

impl Drop for DeregisterOnDrop {
    fn drop(&mut self) {
        self.cell.state.complete();
        if let Some(shared) = self.cell.shared.upgrade() {
            shared
                .async_waiters
                .deregister(self.cell.registry_slot.get());
        }
    }
}

// ---- the park/resume machinery (mirrors scheduler::sync_execute) ----

/// Arguments shipped from `park_on` to `park_body`.
struct ParkArgs {
    worker: *mut Worker,
    cell: *const AsyncCell,
}

/// Captures the calling strand into `cell` and descends into the
/// work-finding loop; returns when a waker's claim resumed the
/// continuation — possibly on a different OS thread.
///
/// # Safety
/// Must run on a worker thread owning `worker`, with the `current_stack`
/// invariant holding; `cell` must be this strand's live cell in state
/// `RUNNING` or `NOTIFIED`.
unsafe fn park_on(worker: *mut Worker, cell: &AsyncCell) {
    unsafe {
        // Stage a fresh stack for the work-finding loop, exactly like the
        // sync suspension path.
        chaos::on_stack_get(worker);
        let fresh = (*worker).cache.get();
        let fresh_top = fresh.top();
        debug_assert!((*worker).incoming_stack.is_none());
        (*worker).incoming_stack = Some(fresh);
        let mut args = ParkArgs { worker, cell };

        let payload = capture_and_run_on(
            cell.ctx.get(),
            fresh_top,
            park_body,
            &mut args as *mut ParkArgs as *mut c_void,
        );

        // ---- resumed: a wake was claimed for us.
        let worker = payload as *mut Worker;
        debug_assert!((*worker).current_stack.is_none());
        (*worker).current_stack = (*cell.stack.get()).take();
        debug_assert!((*worker).current_stack.is_some());
        if let Some(stack) = (*worker).pending_recycle.take() {
            (*worker).cache.put(stack);
        }
    }
}

// SAFETY: callers: invoked only via `capture_and_run_on` with `arg` pointing
// at the `ParkArgs` staged in the parking frame, which stays alive until a
// claimer resumes the continuation.
unsafe extern "C" fn park_body(arg: *mut c_void) -> ! {
    let _guard = AbortOnUnwind;
    unsafe {
        let args = &mut *(arg as *mut ParkArgs);
        let worker = args.worker;
        let cell = args.cell;
        (*worker).stats().async_parks.inc();
        obs::on_async_park(worker, cell_id(cell));

        // Move the blocked stack into the cell and release the unused
        // space below the captured stack pointer (§V-B, as for sync).
        let blocked = (*worker)
            .current_stack
            .take()
            .expect("parking control flow runs on a tracked stack");
        let sp = (*(*cell).ctx.get()).0;
        debug_assert!(blocked.contains(sp));
        let madvise = {
            let w: &Worker = &*worker;
            w.shared.config.madvise
        };
        blocked.release_below(sp, madvise);
        *(*cell).stack.get() = Some(blocked);
        (*worker).current_stack = (*worker).incoming_stack.take();

        if (*cell).state.park_publish() {
            find_work()
        }
        // A wake raced in while we were capturing (it saw RUNNING and
        // could only flag): the continuation is still ours — resume it in
        // place on the fresh stack.
        resume_ready(worker, cell)
    }
}

/// Resumes a claimed (or self-claimed) parked continuation. Diverges.
///
/// # Safety
/// The caller must own the continuation exclusively: either it popped the
/// cell from the ready queue (a `wake_claim` → `Claimed` edge put it
/// there), or it is the parker itself after a failed `park_publish`.
pub(crate) unsafe fn resume_ready(worker: *mut Worker, cell: *const AsyncCell) -> ! {
    unsafe {
        (*worker).stats().async_resumes.inc();
        obs::on_async_resume(worker, cell_id(cell));
        // The strand's governing scope becomes this worker's ambient, so
        // frames created after the resume inherit it.
        (*worker).cancel_scope = (*cell).scope.get();
        debug_assert!((*worker).pending_recycle.is_none());
        (*worker).pending_recycle = (*worker).current_stack.take();
        let ctx = *(*cell).ctx.get();
        debug_assert!(!ctx.is_null());
        resume(ctx, worker as *mut c_void)
    }
}

// ---- block_on ----

/// Runs a future to completion on the calling strand.
///
/// On a runtime worker, `Pending` parks the strand's *continuation* behind
/// the future's waker — the worker itself immediately returns to stealing,
/// and the continuation resumes on whichever worker dequeues the wake (so
/// the future and its output must be `Send`). The strand stays inside the
/// fork/join tree: it keeps its cancellation scope, and a cancelled scope
/// unwinds the strand with [`crate::Cancelled`] at the next wake.
///
/// Off-runtime the calling OS thread simply blocks (futex park) between
/// polls — useful for driving runtime-independent futures from tests; I/O
/// and timer futures need a runtime worker and panic elsewhere.
///
/// ```
/// let rt = nowa_runtime::Runtime::with_workers(2).unwrap();
/// let out = rt.run(|| nowa_runtime::task::block_on(async { 6 * 7 }));
/// assert_eq!(out, 42);
/// ```
pub fn block_on<F>(fut: F) -> F::Output
where
    F: Future + Send,
    F::Output: Send,
{
    let worker = current_worker();
    if worker.is_null() {
        return block_on_thread(fut);
    }
    // SAFETY: non-null means the calling thread's live worker.
    unsafe { block_on_worker(worker, fut) }
}

/// The worker-path `block_on`: poll → park → resume loop.
///
/// # Safety
/// `worker` must be the calling thread's live worker.
unsafe fn block_on_worker<F>(worker: *mut Worker, fut: F) -> F::Output
where
    F: Future + Send,
    F::Output: Send,
{
    // SAFETY: live worker per the function contract.
    let (shared_weak, scope) = unsafe {
        let w: &Worker = &*worker;
        (Arc::downgrade(&w.shared), w.cancel_scope)
    };
    let cell = Arc::new(AsyncCell::new(shared_weak, scope));
    // SAFETY: still the same live worker (no capture point since entry).
    unsafe {
        let w: &Worker = &*worker;
        cell.registry_slot
            .set(w.shared.async_waiters.register(&cell));
    }
    let _dereg = DeregisterOnDrop { cell: cell.clone() };
    let waker = waker_of(&cell);
    let mut cx = Context::from_waker(&waker);
    let mut fut = core::pin::pin!(fut);
    loop {
        // Cooperative checkpoint: first poll and every resumption. The
        // scope chain is live while this strand runs (block_on executes
        // inside the dynamic extent of every enclosing region).
        if let Some(reason) = unsafe { cancel::cancelled_chain(cell.scope.get()) } {
            // The `_dereg` guard completes the cell and deregisters it as
            // the raise unwinds through us.
            crate::api::raise_cancelled(core::ptr::null(), reason);
        }
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        // SAFETY: re-derived live worker; the poll above may contain
        // capture points (nested joins inside the future), so the entry
        // `worker` must not be reused here.
        unsafe { park_on(current_worker(), &cell) };
        // Consume the notification before re-polling so a wake landing
        // mid-poll is preserved for the next park attempt.
        cell.state.resume_begin();
    }
}

// ---- the off-runtime fallback ----

/// A plain futex thread-parker backing `block_on` off-runtime.
struct ThreadWaker {
    /// 0 = idle, 1 = notified.
    state: AtomicU32,
}

const THREAD_VTABLE: RawWakerVTable =
    RawWakerVTable::new(thread_clone, thread_wake, thread_wake_by_ref, thread_drop);

fn thread_notify(parker: &ThreadWaker) {
    // Release pairs with the parker's Acquire CAS: the poll after the wake
    // must see what the waker published.
    parker.state.store(1, Ordering::Release);
    crate::sync::futex_wake(&parker.state, 1);
}

// SAFETY: `data` must come from `Arc::into_raw` in `block_on_thread` (the
// vtable is only ever paired with such pointers); clones by bumping the
// count.
unsafe fn thread_clone(data: *const ()) -> RawWaker {
    // SAFETY: `data` came from `Arc::into_raw` below.
    unsafe { Arc::increment_strong_count(data as *const ThreadWaker) };
    RawWaker::new(data, &THREAD_VTABLE)
}

// SAFETY: `data` must come from `Arc::into_raw` in `block_on_thread`;
// consumes the reference it stands for (RawWaker `wake` contract).
unsafe fn thread_wake(data: *const ()) {
    // SAFETY: consumes the reference `data` stands for.
    let parker = unsafe { Arc::from_raw(data as *const ThreadWaker) };
    thread_notify(&parker);
}

// SAFETY: `data` must come from `Arc::into_raw` in `block_on_thread`;
// borrows without consuming (ManuallyDrop keeps the count).
unsafe fn thread_wake_by_ref(data: *const ()) {
    // SAFETY: borrows without consuming.
    let parker = core::mem::ManuallyDrop::new(unsafe { Arc::from_raw(data as *const ThreadWaker) });
    thread_notify(&parker);
}

// SAFETY: `data` must come from `Arc::into_raw` in `block_on_thread`;
// consumes the reference it stands for (RawWaker `drop` contract).
unsafe fn thread_drop(data: *const ()) {
    // SAFETY: consumes the reference `data` stands for.
    drop(unsafe { Arc::from_raw(data as *const ThreadWaker) });
}

/// Off-runtime `block_on`: the OS thread futex-parks between polls.
fn block_on_thread<F: Future>(fut: F) -> F::Output {
    let parker = Arc::new(ThreadWaker {
        state: AtomicU32::new(0),
    });
    // SAFETY: the vtable upholds the RawWaker contract over Arc counts.
    let waker = unsafe {
        Waker::from_raw(RawWaker::new(
            Arc::into_raw(parker.clone()) as *const (),
            &THREAD_VTABLE,
        ))
    };
    let mut cx = Context::from_waker(&waker);
    let mut fut = core::pin::pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        // Acquire pairs with the waker's Release store.
        while parker
            .state
            .compare_exchange(1, 0, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            crate::sync::futex_wait(&parker.state, 0, None);
        }
    }
}

// ---- spawn_async join handle ----

/// Completion slot shared between a spawned async strand and its
/// [`JoinHandle`].
pub(crate) struct JoinInner<T> {
    /// 0 = pending, 1 = value stored. The Acquire/Release pair on this
    /// word is what publishes `value` to the awaiting side.
    done: AtomicU32,
    value: parking_lot::Mutex<Option<T>>,
    /// The awaiting side's waker, registered on a pending poll.
    waker: parking_lot::Mutex<Option<Waker>>,
}

impl<T> JoinInner<T> {
    fn complete(&self, value: T) {
        *self.value.lock() = Some(value);
        // Release: publishes the value write above to the Acquire load in
        // `JoinHandle::poll`.
        self.done.store(1, Ordering::Release);
        // Take-then-wake after the flag: a poller that registered before
        // our take gets woken; one that registers after will re-check
        // `done` and see 1 (no lost completion).
        let waker = self.waker.lock().take();
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Awaitable handle to a strand spawned with
/// [`Region::spawn_async`](crate::api::Region::spawn_async).
///
/// Awaiting yields the future's output. Dropping the handle detaches it:
/// the strand still runs to completion and is still joined by the region's
/// sync; only the output is discarded.
///
/// # Panics
/// Awaiting panics if the handle is polled again after completion, or if
/// the spawned strand panicked (the panic itself propagates through the
/// region's sync; the handle then never completes — but the sibling-panic
/// cancellation broadcast wakes the awaiting strand to unwind, so no
/// deadlock results).
pub struct JoinHandle<T> {
    inner: Arc<JoinInner<T>>,
}

impl<T: Send> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        // Acquire pairs with the Release store in `complete`.
        if self.inner.done.load(Ordering::Acquire) == 1 {
            let value = self.inner.value.lock().take();
            return Poll::Ready(value.expect("JoinHandle polled after completion"));
        }
        *self.inner.waker.lock() = Some(cx.waker().clone());
        // Re-check after registering: `complete` may have taken the old
        // waker (or found none) between our load and our store.
        if self.inner.done.load(Ordering::Acquire) == 1 {
            let value = self.inner.value.lock().take();
            return Poll::Ready(value.expect("JoinHandle polled after completion"));
        }
        Poll::Pending
    }
}

/// Creates the linked (inner, handle) pair for `spawn_async`.
pub(crate) fn join_pair<T>() -> (Arc<JoinInner<T>>, JoinHandle<T>) {
    let inner = Arc::new(JoinInner {
        done: AtomicU32::new(0),
        value: parking_lot::Mutex::new(None),
        waker: parking_lot::Mutex::new(None),
    });
    let handle = JoinHandle {
        inner: inner.clone(),
    };
    (inner, handle)
}

/// Completes a spawned strand's handle (called from the spawn closure).
pub(crate) fn complete_join<T>(inner: &JoinInner<T>, value: T) {
    inner.complete(value);
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn wake_state_handoff_edges() {
        let ws = WakeState::new();
        // Running strand: wakes flag, further wakes are stale.
        assert_eq!(ws.wake_claim(), WakeClaim::Flagged);
        assert_eq!(ws.wake_claim(), WakeClaim::Stale);
        // The parker loses its publish to the flag and self-resumes.
        assert!(!ws.park_publish());
        ws.resume_begin();
        // Clean park: exactly one claim wins.
        assert!(ws.park_publish());
        assert_eq!(ws.wake_claim(), WakeClaim::Claimed);
        assert_eq!(ws.wake_claim(), WakeClaim::Stale);
        ws.resume_begin();
        // Terminal state absorbs everything.
        ws.complete();
        assert_eq!(ws.wake_claim(), WakeClaim::Stale);
        assert!(!ws.park_publish());
    }

    #[test]
    fn thread_block_on_drives_manual_future() {
        use crate::sync::{AtomicBool, Ordering as O};
        struct Yield {
            fired: AtomicBool,
        }
        impl Future for Yield {
            type Output = u32;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.fired.swap(true, O::Relaxed) {
                    Poll::Ready(7)
                } else {
                    // Wake from another thread after a delay, exercising
                    // the futex park (not just an immediate self-wake).
                    let waker = cx.waker().clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        waker.wake();
                    });
                    Poll::Pending
                }
            }
        }
        let out = block_on(Yield {
            fired: AtomicBool::new(false),
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn join_handle_completion_before_and_after_poll() {
        let (inner, handle) = join_pair::<u32>();
        complete_join(&inner, 11);
        assert_eq!(block_on(handle), 11);
    }
}
