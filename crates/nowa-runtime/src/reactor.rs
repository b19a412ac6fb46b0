//! The epoll reactor: I/O readiness and timers for the async surface.
//!
//! There is exactly ONE reactor per runtime and NO dedicated reactor
//! thread. A worker that would otherwise futex-park (PR 3's idle engine)
//! first tries to claim the poller slot; the claimant sleeps in
//! `epoll_wait` instead of on a futex, with its timeout clamped to
//! `min(IdleConfig::max_park, next timer deadline)`. Everything the idle
//! engine documents about bounded parks applies verbatim: the claim/release
//! handshake has a store-buffering window (a producer can miss the poller
//! exactly as it can miss a futex sleeper), and the bounded timeout is the
//! belt-and-braces backstop for it.
//!
//! Readiness is level-triggered with one-shot *interest*: a direction's
//! `IN`/`OUT` bit is armed only while a waker is parked on it and disarmed
//! at dispatch, so a ready-but-unserviced fd does not spin the poller.
//! `ERR`/`HUP`/`RDHUP` wake both directions — the woken task re-runs its
//! syscall and observes the real error or EOF itself; the reactor never
//! interprets errors on a task's behalf.
//!
//! Cross-thread wakes reach a sleeping poller through an `eventfd` kick,
//! coalesced by an armed flag so a storm of wakes costs one `write(2)`.
//! The kick carries the cookie `KICK`; real fds carry a generation-tagged
//! slab key, so a stale event for a recycled slot is dropped on the floor
//! instead of waking a stranger.

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll, Waker};
use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

use nowa_context::sys::{self, epoll, EpollEvent, EpollWait};

use crate::chaos;
use crate::obs;
use crate::sync::{AtomicU32, Ordering};
use crate::time::TimerWheel;
use crate::worker::{current_worker, Shared, Worker};

/// Event-cookie for the kick eventfd; real sources use slab keys, which
/// never reach this value (the slab would exhaust memory first).
const KICK: u64 = u64::MAX;

/// Events fetched per `epoll_wait`. Spillover is not lost — level-triggered
/// epoll re-reports anything still ready on the next poll.
const MAX_EVENTS: usize = 64;

/// One direction (read or write) of a registered source.
#[derive(Default)]
struct Direction {
    /// Readiness observed by a dispatch and not yet consumed by a poll.
    ready: bool,
    /// The waker parked on this direction, if any. Its presence is what
    /// arms the corresponding `IN`/`OUT` interest bit.
    waker: Option<Waker>,
}

/// A registered fd.
struct Source {
    fd: i32,
    read: Direction,
    write: Direction,
}

impl Source {
    /// The epoll interest mask implied by the parked wakers. `RDHUP` is
    /// always on so a peer shutdown wakes waiters even with no bit armed.
    fn interest(&self) -> u32 {
        let mut bits = epoll::RDHUP;
        if self.read.waker.is_some() {
            bits |= epoll::IN;
        }
        if self.write.waker.is_some() {
            bits |= epoll::OUT;
        }
        bits
    }
}

/// Slab slot: a generation counter (bumped on free) plus the occupant.
/// Keys are `(gen << 32) | index`, so an event fetched just before a
/// deregistration cannot be misdelivered to the slot's next tenant.
struct Slot {
    gen: u32,
    source: Option<Source>,
}

#[derive(Default)]
struct SourceSlab {
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl SourceSlab {
    fn insert(&mut self, source: Source) -> u64 {
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i].source = Some(source);
                i
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    source: Some(source),
                });
                self.slots.len() - 1
            }
        };
        ((self.slots[index].gen as u64) << 32) | index as u64
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut Source> {
        let index = (key & 0xffff_ffff) as usize;
        let gen = (key >> 32) as u32;
        let slot = self.slots.get_mut(index)?;
        if slot.gen != gen {
            return None;
        }
        slot.source.as_mut()
    }

    fn remove(&mut self, key: u64) -> Option<Source> {
        let index = (key & 0xffff_ffff) as usize;
        let gen = (key >> 32) as u32;
        let slot = self.slots.get_mut(index)?;
        if slot.gen != gen {
            return None;
        }
        let src = slot.source.take();
        if src.is_some() {
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(index);
        }
        src
    }
}

/// Which direction a future is parked on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Read,
    Write,
}

/// The poller-claim slot: `0` free, `index + 1` claimed by worker
/// `index`. At most one worker sits in `epoll_wait` at a time; everyone
/// else futex-parks as before. Encoding the index lets the watchdog
/// classify the poller as healthy the same way it treats futex-parked
/// workers.
///
/// A standalone type (rather than a bare field of `Reactor`) so the
/// loom models can drive the *real* claim/release protocol without an
/// epoll instance — see `tests/loom.rs`.
pub struct PollerSlot {
    slot: AtomicU32,
}

impl Default for PollerSlot {
    fn default() -> Self {
        PollerSlot::new()
    }
}

impl PollerSlot {
    /// A free slot.
    pub fn new() -> PollerSlot {
        PollerSlot {
            slot: AtomicU32::new(0),
        }
    }

    /// Tries to claim the slot for worker `index`. SeqCst on purpose: the
    /// claim must be totally ordered against producers'
    /// [`claimed`](PollerSlot::claimed) loads the same way the idle engine
    /// orders announce against wake scans — the remaining store-buffering
    /// window is bounded by the poll timeout.
    pub fn try_claim(&self, index: usize) -> bool {
        // ordering: §7b "reactor poller claim".
        let tag = (index as u32).saturating_add(1);
        self.slot
            .compare_exchange(0, tag, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Whether worker `index` currently holds the slot. Used by the
    /// watchdog: the poller's progress counter is frozen inside
    /// `epoll_wait` exactly like a futex-parked worker's, and must not
    /// read as a stall.
    pub fn is_poller(&self, index: usize) -> bool {
        // ordering: §7b "reactor poller claim" — monitoring-only load; a
        // racy read here only delays or spares one watchdog report.
        self.slot.load(Ordering::SeqCst) == (index as u32).saturating_add(1)
    }

    /// Whether *any* worker currently holds the slot (the
    /// `kick_if_claimed` producer-side gate).
    pub fn claimed(&self) -> bool {
        // ordering: §7b "reactor poller claim" — SeqCst load pairs with
        // the claim CAS; a miss in the store-buffering window is recovered
        // by the bounded poll timeout.
        self.slot.load(Ordering::SeqCst) != 0
    }

    /// Releases the slot (claimant only). The SeqCst store also publishes
    /// the outgoing poller's duty-state writes (timer-wheel advances,
    /// dispatched readiness) to the next claimant, whose claim CAS reads
    /// the `0` this stores.
    pub fn release(&self) {
        // ordering: §7b "reactor poller claim" — SeqCst store pairs with
        // the claim CAS and the `claimed` load.
        self.slot.store(0, Ordering::SeqCst);
    }
}

/// The per-runtime reactor. See the module docs for the ownership model.
pub(crate) struct Reactor {
    epfd: i32,
    kick_fd: i32,
    /// See [`PollerSlot`].
    poller: PollerSlot,
    /// Kick coalescing: 1 while a `write(2)` to the eventfd is outstanding
    /// (not yet drained), so kick storms cost one syscall per poll cycle.
    kick_armed: AtomicU32,
    sources: parking_lot::Mutex<SourceSlab>,
    /// The timer wheel rides the reactor: its next deadline clamps the
    /// poll timeout and every poll advances it.
    pub(crate) timers: TimerWheel,
}

impl Reactor {
    pub(crate) fn new() -> Result<Reactor, sys::SysError> {
        let epfd = sys::epoll_create1()?;
        let kick_fd = match sys::eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close(epfd);
                return Err(e);
            }
        };
        let ev = EpollEvent {
            events: epoll::IN,
            data: KICK,
        };
        if let Err(e) = sys::epoll_ctl(epfd, epoll::CTL_ADD, kick_fd, &ev) {
            sys::close(kick_fd);
            sys::close(epfd);
            return Err(e);
        }
        Ok(Reactor {
            epfd,
            kick_fd,
            poller: PollerSlot::new(),
            kick_armed: AtomicU32::new(0),
            sources: parking_lot::Mutex::new(SourceSlab::default()),
            timers: TimerWheel::new(),
        })
    }

    // ---- poller claim ----------------------------------------------------

    /// Tries to become the poller; see [`PollerSlot::try_claim`].
    pub(crate) fn try_claim(&self, index: usize) -> bool {
        self.poller.try_claim(index)
    }

    /// Whether worker `index` holds the slot; see [`PollerSlot::is_poller`].
    pub(crate) fn is_poller(&self, index: usize) -> bool {
        self.poller.is_poller(index)
    }

    /// Releases the poller slot; see [`PollerSlot::release`].
    pub(crate) fn release(&self) {
        self.poller.release()
    }

    // ---- kicks -----------------------------------------------------------

    /// Wakes the poller out of `epoll_wait` (or makes its next wait return
    /// immediately). Coalesced: only the 0→1 arming transition pays the
    /// `write(2)`.
    pub(crate) fn kick(&self) {
        // ordering: §7b "kick coalescing" — Release so the work made
        // visible before the kick (ready push, timer insert) is ordered
        // before the flag a drain will clear.
        if self.kick_armed.swap(1, Ordering::Release) == 0 {
            let buf = 1u64.to_ne_bytes();
            let _ = sys::write_raw(self.kick_fd, &buf);
        }
    }

    /// [`Reactor::kick`], but only when a poller is (or may be) sleeping.
    /// Producers that found no futex sleeper call this: the poller does not
    /// announce to the idle engine, so `sleepers() == 0` does not mean
    /// "nobody is parked".
    pub(crate) fn kick_if_claimed(&self) {
        if self.poller.claimed() {
            self.kick();
        }
    }

    fn drain_kick(&self) {
        let mut buf = [0u8; 8];
        let _ = sys::read_raw(self.kick_fd, &mut buf);
        // ordering: §7b "kick coalescing" — Release store after the drain;
        // a kicker that still sees 1 is coalesced into the poll cycle that
        // is already awake and about to re-scan every work source.
        self.kick_armed.store(0, Ordering::Release);
    }

    // ---- source registration --------------------------------------------

    /// Registers `fd` (which must already be non-blocking) and returns its
    /// generation-tagged key. Interest starts at `RDHUP` only; directions
    /// arm themselves when a future parks on them.
    pub(crate) fn register(&self, fd: i32) -> Result<u64, sys::SysError> {
        let mut slab = self.sources.lock();
        let key = slab.insert(Source {
            fd,
            read: Direction::default(),
            write: Direction::default(),
        });
        let ev = EpollEvent {
            events: epoll::RDHUP,
            data: key,
        };
        if let Err(e) = sys::epoll_ctl(self.epfd, epoll::CTL_ADD, fd, &ev) {
            slab.remove(key);
            return Err(e);
        }
        Ok(key)
    }

    /// Deregisters a source. Any parked wakers are woken (spuriously —
    /// their next poll re-runs the I/O and observes whatever the fd says).
    pub(crate) fn deregister(&self, key: u64) {
        let mut woken: [Option<Waker>; 2] = [None, None];
        {
            let mut slab = self.sources.lock();
            if let Some(mut src) = slab.remove(key) {
                let ev = EpollEvent { events: 0, data: 0 };
                let _ = sys::epoll_ctl(self.epfd, epoll::CTL_DEL, src.fd, &ev);
                woken[0] = src.read.waker.take();
                woken[1] = src.write.waker.take();
            }
        }
        for w in woken.into_iter().flatten() {
            w.wake();
        }
    }

    /// One readiness poll for `key`/`dir`: consumes pending readiness or
    /// parks `cx`'s waker and arms the interest bit.
    fn poll_direction(&self, key: u64, dir: Dir, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        let mut slab = self.sources.lock();
        let src = slab
            .get_mut(key)
            .expect("nowa reactor: polled a deregistered source (stale key)");
        let slot = match dir {
            Dir::Read => &mut src.read,
            Dir::Write => &mut src.write,
        };
        if slot.ready {
            slot.ready = false;
            return Poll::Ready(Ok(()));
        }
        let had_waker = slot.waker.is_some();
        slot.waker = Some(cx.waker().clone());
        if !had_waker {
            // Arm the direction's interest bit. Level-triggered: if the fd
            // is already ready the next poll reports it immediately.
            let ev = EpollEvent {
                events: src.interest(),
                data: key,
            };
            if let Err(e) = sys::epoll_ctl(self.epfd, epoll::CTL_MOD, src.fd, &ev) {
                let slot = match dir {
                    Dir::Read => &mut src.read,
                    Dir::Write => &mut src.write,
                };
                slot.waker = None;
                return Poll::Ready(Err(io::Error::from_raw_os_error(e.0)));
            }
        }
        Poll::Pending
    }

    /// Delivers one fetched event: marks directions ready, collects their
    /// wakers, disarms the delivered interest bits.
    fn dispatch(&self, key: u64, bits: u32, wakers: &mut Vec<Waker>) {
        let mut slab = self.sources.lock();
        let Some(src) = slab.get_mut(key) else {
            // Deregistered between fetch and dispatch (or a recycled slot):
            // the generation tag caught it; drop the event.
            return;
        };
        let fatal = bits & (epoll::ERR | epoll::HUP | epoll::RDHUP) != 0;
        if fatal || bits & epoll::IN != 0 {
            src.read.ready = true;
            if let Some(w) = src.read.waker.take() {
                wakers.push(w);
            }
        }
        if fatal || bits & epoll::OUT != 0 {
            src.write.ready = true;
            if let Some(w) = src.write.waker.take() {
                wakers.push(w);
            }
        }
        // Disarm what was delivered — readiness is now latched in the
        // slab, and level-triggered epoll would otherwise re-report it
        // every poll until the task re-polls.
        let ev = EpollEvent {
            events: src.interest(),
            data: key,
        };
        let _ = sys::epoll_ctl(self.epfd, epoll::CTL_MOD, src.fd, &ev);
    }

    // ---- the poll itself -------------------------------------------------

    /// One reactor poll, run by the claimed poller in place of a futex
    /// park. Waits up to `timeout_ms` (already clamped to `max_park` and
    /// the next timer deadline by the caller), dispatches I/O readiness,
    /// advances the timer wheel, and returns how many wakeups it produced.
    ///
    /// # Safety
    /// `worker` must be the calling thread's live worker.
    pub(crate) unsafe fn poll(&self, worker: *mut Worker, timeout_ms: u64) -> usize {
        let mut wakers: Vec<Waker> = Vec::new();
        let mut dispatched = 0usize;
        // SAFETY: `worker` is the calling thread's live worker (caller
        // contract).
        if unsafe { chaos::on_reactor_eintr(worker) } {
            // Modelled EINTR: the syscall is skipped entirely and the poll
            // behaves as an interrupted wait (timers still advance below).
        } else if unsafe { chaos::on_reactor_poll(worker) } {
            // Modelled spurious wakeup: zero events without blocking.
        } else {
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let timeout = timeout_ms.min(i32::MAX as u64) as i32;
            match sys::epoll_wait(self.epfd, &mut events, Some(timeout)) {
                EpollWait::Ready(n) => {
                    for ev in &events[..n] {
                        // EpollEvent is packed on x86_64: copy fields out
                        // rather than referencing them in place.
                        let (bits, data) = (ev.events, ev.data);
                        if data == KICK {
                            self.drain_kick();
                        } else {
                            self.dispatch(data, bits, &mut wakers);
                            dispatched += 1;
                        }
                    }
                }
                EpollWait::Interrupted => {}
            }
        }
        let fired = self.timers.advance(Instant::now());
        let timer_count = fired.len();
        // Wake everything outside the slab lock (a wake may re-enter the
        // reactor to re-arm, e.g. a Sleep future's re-registration).
        for w in wakers {
            w.wake();
        }
        for w in fired {
            w.wake();
        }
        // SAFETY: `worker` is the calling thread's live worker (caller
        // contract), so dereferencing it for stats and trace hooks is sound.
        unsafe {
            (*worker).stats().reactor_polls.inc();
            if dispatched > 0 {
                (*worker).stats().reactor_events.add(dispatched as u64);
            }
            if timer_count > 0 {
                (*worker).stats().timer_fires.add(timer_count as u64);
                obs::on_timer_fire(worker, timer_count as u64);
            }
            obs::on_reactor_poll(worker, dispatched as u64);
        }
        dispatched + timer_count
    }

    /// Timer-only advance for threads that are not workers (the watchdog
    /// sweep). Bounds timer staleness when every worker is busy and nobody
    /// has polled in a while — the same role the watchdog already plays for
    /// region deadlines.
    pub(crate) fn advance_timers_external(&self) {
        for w in self.timers.advance(Instant::now()) {
            w.wake();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        sys::close(self.kick_fd);
        sys::close(self.epfd);
    }
}

// SAFETY: every field is either plain-old-data fds, an atomic, a Mutex, or
// the internally synchronised timer wheel; all cross-thread access goes
// through those.
unsafe impl Send for Reactor {}
// SAFETY: same argument as `Send` above — shared access synchronises
// through the atomics, the sources Mutex and the timer wheel's own locks.
unsafe impl Sync for Reactor {}

// ---- public async fd surface --------------------------------------------

/// An fd registered with the runtime's reactor.
///
/// Wraps any [`AsRawFd`] I/O object whose fd is **non-blocking** (the
/// caller sets that up; the reactor only reports readiness). Futures from
/// [`readable`](AsyncFd::readable) / [`writable`](AsyncFd::writable)
/// resolve when the fd is (or may be) ready — the task then re-runs its
/// syscall and treats `WouldBlock` as "wait again", the standard
/// level-triggered loop.
///
/// Dropping the `AsyncFd` deregisters the fd and wakes any parked waiters.
pub struct AsyncFd<T: AsRawFd> {
    io: T,
    key: u64,
    shared: Arc<Shared>,
}

impl<T: AsRawFd> AsyncFd<T> {
    /// Registers `io`'s fd with the runtime reactor.
    ///
    /// # Panics
    /// Panics when called outside a runtime worker (the reactor lives on
    /// the runtime).
    pub fn new(io: T) -> io::Result<AsyncFd<T>> {
        let worker = current_worker();
        assert!(
            !worker.is_null(),
            "nowa AsyncFd::new requires a runtime worker (the reactor lives on the runtime)"
        );
        // SAFETY: non-null means the calling thread's live worker.
        let shared = unsafe { (*worker).shared.clone() };
        let key = shared
            .reactor
            .register(io.as_raw_fd())
            .map_err(|e| io::Error::from_raw_os_error(e.0))?;
        Ok(AsyncFd { io, key, shared })
    }

    /// The wrapped I/O object.
    pub fn get_ref(&self) -> &T {
        &self.io
    }

    /// Mutable access to the wrapped I/O object.
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.io
    }

    /// Resolves when the fd is readable (or has hung up / errored — the
    /// caller's next read observes which).
    pub fn readable(&self) -> Readiness<'_, T> {
        Readiness {
            fd: self,
            dir: Dir::Read,
        }
    }

    /// Resolves when the fd is writable (or has hung up / errored).
    pub fn writable(&self) -> Readiness<'_, T> {
        Readiness {
            fd: self,
            dir: Dir::Write,
        }
    }
}

impl<T: AsRawFd> Drop for AsyncFd<T> {
    fn drop(&mut self) {
        self.shared.reactor.deregister(self.key);
    }
}

/// Future of one readiness edge on an [`AsyncFd`] direction.
pub struct Readiness<'a, T: AsRawFd> {
    fd: &'a AsyncFd<T>,
    dir: Dir,
}

impl<T: AsRawFd> Future for Readiness<'_, T> {
    type Output = io::Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        self.fd
            .shared
            .reactor
            .poll_direction(self.fd.key, self.dir, cx)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn slab_keys_are_generation_tagged() {
        let mut slab = SourceSlab::default();
        let k1 = slab.insert(Source {
            fd: 3,
            read: Direction::default(),
            write: Direction::default(),
        });
        assert!(slab.get_mut(k1).is_some());
        assert!(slab.remove(k1).is_some(), "first removal succeeds");
        assert!(slab.get_mut(k1).is_none(), "stale key misses");
        let k2 = slab.insert(Source {
            fd: 4,
            read: Direction::default(),
            write: Direction::default(),
        });
        assert_ne!(k1, k2, "recycled slot carries a new generation");
        assert!(slab.get_mut(k1).is_none(), "old key still misses");
        assert_eq!(slab.get_mut(k2).unwrap().fd, 4);
    }

    #[test]
    fn interest_follows_parked_wakers() {
        let mut src = Source {
            fd: 0,
            read: Direction::default(),
            write: Direction::default(),
        };
        assert_eq!(src.interest(), epoll::RDHUP, "idle source: RDHUP only");
        src.read.waker = Some(noop_waker());
        assert_eq!(src.interest(), epoll::RDHUP | epoll::IN);
        src.write.waker = Some(noop_waker());
        assert_eq!(src.interest(), epoll::RDHUP | epoll::IN | epoll::OUT);
    }

    fn noop_waker() -> Waker {
        use core::task::{RawWaker, RawWakerVTable};
        const VTABLE: RawWakerVTable = RawWakerVTable::new(
            |_| RawWaker::new(core::ptr::null(), &VTABLE),
            |_| {},
            |_| {},
            |_| {},
        );
        // SAFETY: every vtable entry is a no-op.
        unsafe { Waker::from_raw(RawWaker::new(core::ptr::null(), &VTABLE)) }
    }
}
