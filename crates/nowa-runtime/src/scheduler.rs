//! The spawn/sync machinery — Fig. 5 of the paper, realised on fibers.
//!
//! # Spawn (`spawn_execute`)
//!
//! ```text
//! cont = contAfterSpawn();      // capture_and_run_on fills record.ctx
//! pushBottom(cont);             // inside spawn_body, on the child stack
//! func();                       // the child, called directly
//! if (!popBottom()) tryResume() // pop_or_join → Continue/ResumeSync/OutOfWork
//! ```
//!
//! One deviation from Fibril, forced by Rust codegen (see DESIGN.md): the
//! child runs on a *fresh pooled stack* instead of the parent's stack.
//! Fibril may run the child in place because its thief resumes the stolen
//! continuation with a new `rsp` while addressing the parent frame through
//! `rbp` — a frame-pointer discipline rustc/LLVM does not guarantee. Running
//! the child on its own stack makes the stolen continuation's stack region
//! exclusively owned, with identical scheduling semantics; the fast path
//! still allocates nothing (stacks come from the per-worker cache) and
//! performs no steal-side synchronisation.
//!
//! # Sync (`sync_execute`)
//!
//! The fast path is one relaxed load + one acquire load (`sync_precheck`).
//! Suspension captures the sync continuation into the frame, moves the
//! (now blocked) stack into the frame, applies the madvise policy below the
//! suspended stack pointer (§V-B), restores the counter (Eq. 5) and dives
//! into the work-finding loop on a fresh stack.

use core::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nowa_context::capture_and_run_on;

use crate::cancel::{self, Cancelled};
use crate::chaos;
use crate::flavor;
use crate::obs;
use crate::record::{Frame, SpawnRecord};
use crate::worker::{current_worker, find_work, resume_record, resume_sync, AbortOnUnwind, Worker};

/// Arguments shipped from `spawn_execute` to `spawn_body` (read and moved
/// out *before* the continuation is published).
struct SpawnArgs<F> {
    worker: *mut Worker,
    record: *mut SpawnRecord,
    closure: Option<F>,
}

/// Spawns `f` as a child strand of `frame`: the child runs now, on this
/// worker; the *continuation* of the caller is offered to thieves and this
/// call returns when the continuation is resumed — on the fast path by this
/// same worker right after the child finishes, otherwise by a thief (so the
/// code after this call may execute on a different OS thread).
///
/// Child panics are captured into the frame and re-thrown by
/// [`sync_execute`]'s caller.
///
/// # Safety
///
/// * Must be called on a worker thread ([`current_worker`] non-null).
/// * `frame` must outlive the region: the caller must guarantee a matching
///   [`sync_execute`] completes before `frame` (or anything `f` borrows)
///   is dropped or moved — including when unwinding.
/// * All values live across this call may be touched by another OS thread
///   after a steal; the safe wrappers restrict them to `Send` data.
pub unsafe fn spawn_execute<F>(frame: &Frame, f: F)
where
    F: FnOnce() + Send,
{
    let worker = current_worker();
    debug_assert!(!worker.is_null(), "spawn_execute requires a worker thread");
    unsafe {
        // Stage the child stack before capturing.
        chaos::on_stack_get(worker);
        let child_stack = (*worker).cache.get();
        let child_top = child_stack.top();
        debug_assert!((*worker).incoming_stack.is_none());
        (*worker).incoming_stack = Some(child_stack);

        let mut record = SpawnRecord::new(frame);
        // The parent's stack travels with the continuation.
        record.stack = (*worker).current_stack.take();
        let mut args = SpawnArgs {
            worker,
            record: &mut record,
            closure: Some(f),
        };

        let payload = capture_and_run_on(
            &mut record.ctx,
            child_top,
            spawn_body::<F>,
            &mut args as *mut SpawnArgs<F> as *mut c_void,
        );

        // ---- the continuation: resumed by this worker (fast path), a
        // thief, or a work-finding self-pop; possibly on another thread.
        finish_resume(payload, &mut record);
    }
}

/// Re-establishes the `current_stack` invariant at a resume site and
/// recycles the stack the resumer abandoned.
///
/// # Safety
/// `payload` must be the `*mut Worker` the resumer delivered (every resume
/// site in this runtime passes the resuming worker), valid for the whole
/// call and not aliased by another thread.
unsafe fn finish_resume(payload: *mut c_void, record: &mut SpawnRecord) {
    let worker = payload as *mut Worker;
    unsafe {
        debug_assert!((*worker).current_stack.is_none());
        (*worker).current_stack = record.stack.take();
        debug_assert!((*worker).current_stack.is_some());
        if let Some(stack) = (*worker).pending_recycle.take() {
            (*worker).cache.put(stack);
        }
        // Steal-to-first-poll: if this resume consumed a steal, the stolen
        // continuation is now runnable — stop the clock.
        obs::on_resume_finished(worker);
    }
}

// SAFETY: callers: invoked only via `capture_and_run_on` with `arg` pointing
// at the `SpawnArgs<F>` staged in `spawn_execute`'s frame, which stays alive
// until the closure has been moved out and the continuation published.
unsafe extern "C" fn spawn_body<F: FnOnce() + Send>(arg: *mut c_void) -> ! {
    // Armed for the whole body: runtime-internal panics must abort rather
    // than unwind into the fiber base frame (never dropped on the normal
    // path — the body diverges).
    let _guard = AbortOnUnwind;
    unsafe {
        let args = &mut *(arg as *mut SpawnArgs<F>);
        let worker = args.worker;
        let record = args.record;
        let frame: *const Frame = (*record).frame;
        // Move the closure out of the parent frame *before* publishing the
        // continuation — afterwards the parent frame may be running again.
        let f = args
            .closure
            .take()
            .expect("closure staged by spawn_execute");
        (*worker).current_stack = (*worker).incoming_stack.take();

        let protocol = {
            // Short-lived shared borrow; the worker is valid and only this
            // thread touches it.
            let w: &Worker = &*worker;
            w.shared.flavor.protocol
        };
        // Chaos: maybe yield right before the push, widening the window in
        // which thieves observe the pre-push deque state; maybe force an
        // out-of-band promotion batch (or arm a promotion failure).
        chaos::on_spawn_push(worker);
        if chaos::on_force_promote(worker) {
            let batch = {
                let w: &Worker = &*worker;
                w.shared.config.split.promote_batch.max(1)
            };
            let moved = flavor::force_promote(&(*worker).deque, batch);
            crate::worker::note_promotion(worker, moved);
        }
        let out = flavor::push(&(*worker).deque, nowa_deque::Ptr::from_ref(&*record));
        let offered = out.offered;
        if offered {
            (*worker).stats().spawns.inc();
            crate::worker::note_promotion(worker, out.promoted);
        } else {
            (*worker).stats().unoffered.inc();
        }
        obs::on_spawn(worker, frame, offered);
        let split_enabled = {
            let w: &Worker = &*worker;
            w.shared.config.split.enabled
        };
        if offered {
            if split_enabled {
                // Split fast path: a push that promoted nothing is private
                // — invisible to thieves, so a wake would find nothing.
                // Wakes ride promotions (which a hungry sweep guarantees
                // before any thief parks).
                if out.promoted > 0 {
                    crate::worker::wake_after_promotion(worker);
                }
            } else {
                // Idle engine: a relaxed sleeper-count load on the common
                // path; a targeted wake only when parked workers exist and
                // our deque is deep enough that we won't immediately
                // reclaim this work.
                crate::worker::maybe_wake_after_spawn(worker);
            }
        }

        // The child, called directly (no further runtime involvement). An
        // injected chaos panic fires inside the capture scope, so it takes
        // exactly the propagation path a user panic would.
        match catch_unwind(AssertUnwindSafe(|| {
            chaos::on_child_start(worker);
            f()
        })) {
            Ok(()) => {}
            Err(payload) => {
                let organic = payload.downcast_ref::<Cancelled>().is_none();
                (*frame).core.set_panic(payload);
                if organic {
                    // Panic→cancel-siblings: a real fault cancels the
                    // governing region (never the runtime root) so the
                    // rest of its tree unwinds at the next checkpoints
                    // instead of computing work the fault already doomed.
                    let shared = &(*worker).shared;
                    cancel::cancel_enclosing_region(
                        (*frame).core.scope.get(),
                        shared,
                        cancel::CancelReason::SiblingPanic,
                    );
                }
            }
        }

        // The child may have migrated OS threads internally (nested sync
        // suspended, resumed elsewhere): re-derive the worker.
        let worker = current_worker();

        if !offered {
            // The continuation was never stealable; we still own it.
            resume_record(worker, nowa_deque::Ptr::from_ref(&*record))
        }

        match flavor::pop_or_join(protocol, &(*worker).deque, &*frame) {
            crate::record::AfterChild::Continue => {
                (*worker).stats().fast_pops.inc();
                if flavor::last_pop_was_private(&(*worker).deque) {
                    (*worker).stats().private_pops.inc();
                }
                obs::on_fast_pop(worker, frame);
                resume_record(worker, nowa_deque::Ptr::from_ref(&*record))
            }
            crate::record::AfterChild::ResumeSync => {
                (*worker).stats().joins.inc();
                obs::on_join(worker, frame);
                resume_sync(worker, frame)
            }
            crate::record::AfterChild::OutOfWork => {
                (*worker).stats().joins.inc();
                obs::on_join(worker, frame);
                find_work()
            }
        }
    }
}

/// Arguments shipped from `sync_execute` to `sync_body`.
struct SyncArgs {
    worker: *mut Worker,
    frame: *const Frame,
}

/// The explicit sync point: returns once every strand spawned on `frame`
/// in the current region has joined, then re-arms the frame for the next
/// region. Possibly returns on a different OS thread.
///
/// Captured child panics are *not* re-thrown here (the caller owns that,
/// so results/slots can be dropped in a defined order); use
/// [`Frame::core`]`.take_panic()` afterwards.
///
/// # Safety
/// Must be called on a worker thread, by the main-path control flow of
/// `frame`'s current spawn region.
pub unsafe fn sync_execute(frame: &Frame) {
    let worker = current_worker();
    debug_assert!(!worker.is_null(), "sync_execute requires a worker thread");
    unsafe {
        let protocol = {
            // Short-lived shared borrow; the worker is valid and only this
            // thread touches it.
            let w: &Worker = &*worker;
            w.shared.flavor.protocol
        };
        // Chaos: a forced cancellation at the sync boundary latches the
        // enclosing region (if any) right where suspension decisions race
        // with joins.
        if chaos::on_force_cancel(worker) {
            let shared = &(*worker).shared;
            cancel::cancel_enclosing_region(
                frame.core.scope.get(),
                shared,
                cancel::CancelReason::Token,
            );
        }
        // Chaos: a forced suspension vetoes the fast path, driving the
        // capture/restore machinery even when all children already joined.
        let forced_suspend = chaos::on_sync(worker);
        if !forced_suspend && flavor::sync_precheck(protocol, frame) {
            // All children joined: proceed without suspending (Invariant
            // III makes α stable here, so the check is exact).
            (*worker).stats().syncs_inline.inc();
            obs::on_sync_inline(worker, frame);
            flavor::rearm(protocol, frame);
            return;
        }

        // Suspension path: stage a fresh stack for the work-finding loop.
        chaos::on_stack_get(worker);
        let fresh = (*worker).cache.get();
        let fresh_top = fresh.top();
        debug_assert!((*worker).incoming_stack.is_none());
        (*worker).incoming_stack = Some(fresh);
        let mut args = SyncArgs { worker, frame };

        let payload = capture_and_run_on(
            frame.core.sync_ctx.get(),
            fresh_top,
            sync_body,
            &mut args as *mut SyncArgs as *mut c_void,
        );

        // ---- resumed: the sync condition holds.
        let worker = payload as *mut Worker;
        debug_assert!((*worker).current_stack.is_none());
        (*worker).current_stack = (*frame.core.suspended_stack.get()).take();
        debug_assert!((*worker).current_stack.is_some());
        if let Some(stack) = (*worker).pending_recycle.take() {
            (*worker).cache.put(stack);
        }
        flavor::rearm(protocol, frame);
    }
}

// SAFETY: callers: invoked only via `capture_and_run_on` with `arg` pointing
// at the `SyncArgs` staged in the suspending frame, which remains alive until
// the last child resumes the sync continuation.
unsafe extern "C" fn sync_body(arg: *mut c_void) -> ! {
    let _guard = AbortOnUnwind;
    unsafe {
        let args = &mut *(arg as *mut SyncArgs);
        let worker = args.worker;
        let frame = args.frame;
        (*worker).stats().suspensions.inc();
        obs::on_sync_suspend(worker, frame);
        // Chaos: a forced cancellation at the suspend boundary drives the
        // cancel-during-suspended-sync path (children unwind, the last
        // joiner retires the suspension, the resume becomes an abort).
        if chaos::on_force_cancel(worker) {
            let shared = &(*worker).shared;
            cancel::cancel_enclosing_region(
                (*frame).core.scope.get(),
                shared,
                cancel::CancelReason::Token,
            );
        }

        // The frame's stack is now blocked by the suspended frame: move it
        // into the frame and release the unused space below the suspended
        // stack pointer (the practical cactus-stack solution, §V-B).
        let blocked = (*worker)
            .current_stack
            .take()
            .expect("suspending control flow runs on a tracked stack");
        let sp = (*(*frame).core.sync_ctx.get()).0;
        debug_assert!(blocked.contains(sp));
        let madvise = {
            let w: &Worker = &*worker;
            w.shared.config.madvise
        };
        blocked.release_below(sp, madvise);
        *(*frame).core.suspended_stack.get() = Some(blocked);
        (*worker).current_stack = (*worker).incoming_stack.take();

        // Restore N_r (Eq. 5). If every child joined in the meantime, the
        // sync condition holds right away and we resume ourselves.
        let protocol = {
            // Short-lived shared borrow; the worker is valid and only this
            // thread touches it.
            let w: &Worker = &*worker;
            w.shared.flavor.protocol
        };
        if flavor::sync_restore(protocol, &*frame) {
            resume_sync(worker, frame)
        }
        find_work()
    }
}
