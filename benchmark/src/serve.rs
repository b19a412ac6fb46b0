//! `serve-open`: open-loop Poisson request/response over two `UnixStream`
//! pairs into a 1-worker runtime.
//!
//! Server: one `spawn_async` handler per connection reads 16-byte request
//! frames through the runtime's reactor (`AsyncFd`) and answers each with
//! the result of a `fib(8)` `join2` DAG. Generator: this process, two
//! threads — a writer replaying a seeded Poisson schedule over both
//! connections and a reader `poll`ing both for responses. Latency is timed
//! from each request's *intended* send time; the writer's lateness is
//! reported separately.
//!
//! Every response must answer one outstanding `seq` on its connection,
//! exactly once, and carry `fib(8)`; anything else is a failure.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nowa_kernels::fib::{fib, fib_reference, fib_serial};
use nowa_runtime::{AsyncFd, Region, Runtime};

use crate::layers::{emit_counters, Counters, Instances, Parts, Probe};
use crate::measure::{
    idle_priority, median, ns_since, percentile, poll_fds, process_cpu_ns, ratio, sorted, tail,
    tail_floor, thread_cpu_ns, tight_timer_slack, PollFd, Rng, POLLIN,
};
use crate::report::{Report, Tally};
use crate::Args;

/// Wire frame, both directions: `seq: u64 | work: u32 | result: u32`, LE.
const FRAME: usize = 16;
/// Per-request fork/join work: `fib(WORK)` spawned all the way down.
const WORK: u32 = 8;
const CONNS: usize = 2;

/// Far below capacity: the worker is idle between requests.
const LIGHT_RPS: f64 = 2_000.0;
/// About a third of the capacity (`max_ops_per_s`, ~58k/s) measured when
/// this benchmark was defined; fixed so it is the same offered load on
/// every commit. Requests queue behind each other (the p90 is over twice
/// the light phase's), while a slower host, which raises the load, does not
/// yet multiply the waiting as it does nearer saturation.
const HEAVY_RPS: f64 = 20_000.0;
/// The latency limit on p90 that defines `max_ops_per_s`; also the most
/// a session's generator may run late at p99.
const LIMIT_NS: u64 = 1_000_000;
/// Ramp: first rate, a coarse climb until a step fails, then a fine climb
/// from the last rate that passed, in steps finer than the metric's bound.
const RAMP_START_RPS: f64 = 0.5 * HEAVY_RPS;
const RAMP_COARSE: f64 = 1.25;
const RAMP_FINE: f64 = 1.03;
const RAMP_MAX_STEPS: u64 = 40;
const RAMP_STEP: Duration = Duration::from_millis(200);
/// Tries per ramp step: a step passes when one try meets the limit, so a
/// single stall of the host does not end the ramp.
const RAMP_TRIES: u64 = 3;
/// Independent ramps; `max_ops_per_s` is their median.
const RAMPS: u64 = 3;
/// Rounds per run, one light and one heavy session each, on a fresh
/// runtime: a phase samples several runtime instances, and a stall of the
/// host spoils one session's tail, not the phase's.
const SESSIONS: usize = 8;
/// A phase session whose generator ran later than the latency limit at
/// p99 did not offer the scheduled load; it is run again, at most this
/// many times, and the last try counts whatever its lateness.
const SESSION_TRIES: usize = 3;
/// Set-up warm-up session.
const WARM_RPS: f64 = 20_000.0;
const WARM_REQUESTS: usize = 200;

const TAIL_Q: f64 = 0.99;
/// The reader gives up on a session after this long without a response.
const READ_TIMEOUT_MS: i32 = 10_000;

// ---- schedule --------------------------------------------------------------

/// A Poisson arrival schedule over all connections, in send order.
struct Schedule {
    /// Intended send time, ns after the session's start line.
    due_ns: Vec<u64>,
    /// Connection of each request.
    conn: Vec<u8>,
    /// Requests per connection.
    per_conn: [usize; CONNS],
}

impl Schedule {
    /// `count` arrivals of a Poisson process at `rate` per second, each
    /// sent on a connection drawn uniformly. A function of `seed` alone.
    fn poisson(seed: u64, rate: f64, count: usize) -> Schedule {
        let mut rng = Rng::new(seed);
        let mut at = 0.0f64;
        let mut s = Schedule {
            due_ns: Vec::with_capacity(count),
            conn: Vec::with_capacity(count),
            per_conn: [0; CONNS],
        };
        for _ in 0..count {
            at += -rng.unit().ln() / rate * 1e9;
            let c = rng.below(CONNS as u64) as usize;
            s.due_ns.push(at as u64);
            s.conn.push(c as u8);
            s.per_conn[c] += 1;
        }
        s
    }

    fn for_duration(seed: u64, rate: f64, dur: Duration, min: usize) -> Schedule {
        let count = ((rate * dur.as_secs_f64()) as usize).max(min);
        Schedule::poisson(seed, rate, count)
    }

    fn len(&self) -> usize {
        self.due_ns.len()
    }
}

// ---- response verification -------------------------------------------------

fn encode(seq: u64, work: u32, result: u32) -> [u8; FRAME] {
    let mut f = [0u8; FRAME];
    f[..8].copy_from_slice(&seq.to_le_bytes());
    f[8..12].copy_from_slice(&work.to_le_bytes());
    f[12..].copy_from_slice(&result.to_le_bytes());
    f
}

fn decode(f: &[u8; FRAME]) -> (u64, u32, u32) {
    let seq = u64::from_le_bytes(f[..8].try_into().expect("8 bytes"));
    let work = u32::from_le_bytes(f[8..12].try_into().expect("4 bytes"));
    let result = u32::from_le_bytes(f[12..].try_into().expect("4 bytes"));
    (seq, work, result)
}

/// Checks the responses of one connection.
struct Verifier {
    answered: Vec<bool>,
    got: u64,
    duplicated: u64,
    corrupted: u64,
    unknown: u64,
}

impl Verifier {
    fn new(requests: usize) -> Verifier {
        Verifier {
            answered: vec![false; requests],
            got: 0,
            duplicated: 0,
            corrupted: 0,
            unknown: 0,
        }
    }

    /// Checks one response while `sent` requests have been sent on the
    /// connection. Returns its `seq` when it is the first, intact answer
    /// to an outstanding request.
    fn check(&mut self, frame: &[u8; FRAME], sent: usize) -> Option<usize> {
        let (seq, work, result) = decode(frame);
        let Some(seq) = usize::try_from(seq)
            .ok()
            .filter(|&s| s < sent.min(self.answered.len()))
        else {
            self.unknown += 1;
            return None;
        };
        if self.answered[seq] {
            self.duplicated += 1;
            return None;
        }
        self.answered[seq] = true;
        self.got += 1;
        if work != WORK || u64::from(result) != fib_reference(u64::from(WORK)) {
            self.corrupted += 1;
            return None;
        }
        Some(seq)
    }

    /// Requests never answered.
    fn lost(&self) -> u64 {
        self.answered.len() as u64 - self.got
    }

    /// Lost, duplicated, corrupted and unknown responses.
    fn failures(&self) -> u64 {
        self.lost() + self.duplicated + self.corrupted + self.unknown
    }
}

// ---- per-request stamps ----------------------------------------------------

/// Per-request timestamps of one connection (ns after the start line),
/// preallocated before the session so recording neither locks nor
/// allocates.
struct Stamps {
    slots: Box<[AtomicU64]>,
    n: usize,
}

#[derive(Clone, Copy)]
enum At {
    /// Writer: just before the request's write.
    Send,
    /// Handler: the whole request frame is read.
    Held,
    DagStart,
    DagEnd,
    WriteStart,
    WriteEnd,
    /// Reader: the whole response frame is read.
    Recv,
}

const STAMPS: usize = 7;

impl Stamps {
    fn new(n: usize) -> Stamps {
        Stamps {
            slots: (0..n * STAMPS).map(|_| AtomicU64::new(0)).collect(),
            n,
        }
    }

    fn set(&self, at: At, seq: usize, ns: u64) {
        if seq < self.n {
            self.slots[at as usize * self.n + seq].store(ns, Ordering::Relaxed);
        }
    }

    fn get(&self, at: At, seq: usize) -> u64 {
        self.slots[at as usize * self.n + seq].load(Ordering::Relaxed)
    }
}

// ---- server ----------------------------------------------------------------

/// Reads one whole frame; `Ok(false)` on a clean EOF between frames.
async fn read_frame(fd: &AsyncFd<UnixStream>, buf: &mut [u8; FRAME]) -> std::io::Result<bool> {
    let mut got = 0;
    while got < FRAME {
        match (&mut fd.get_ref()).read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => fd.readable().await?,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

async fn write_frame(fd: &AsyncFd<UnixStream>, buf: &[u8; FRAME]) -> std::io::Result<()> {
    let mut sent = 0;
    while sent < FRAME {
        match (&mut fd.get_ref()).write(&buf[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => fd.writable().await?,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One connection's handler. Untraced it stamps only the DAG (for
/// `t_over_ts`); traced it stamps every stage. Returns its I/O errors.
async fn serve_conn(stream: UnixStream, st: Arc<Stamps>, t0: Instant, trace: bool) -> u64 {
    let Ok(fd) = AsyncFd::new(stream) else {
        return 1;
    };
    let mut buf = [0u8; FRAME];
    loop {
        match read_frame(&fd, &mut buf).await {
            Ok(true) => {}
            Ok(false) => return 0,
            Err(_) => return 1,
        }
        let held = if trace { ns_since(t0) } else { 0 };
        let (seq, work, _) = decode(&buf);
        let dag_start = ns_since(t0);
        let result = fib(u64::from(work.min(WORK)), 0);
        let dag_end = ns_since(t0);
        buf[12..].copy_from_slice(&(result as u32).to_le_bytes());
        let write_start = if trace { ns_since(t0) } else { 0 };
        if write_frame(&fd, &buf).await.is_err() {
            return 1;
        }
        let seq = usize::try_from(seq).unwrap_or(usize::MAX);
        st.set(At::DagStart, seq, dag_start);
        st.set(At::DagEnd, seq, dag_end);
        if trace {
            st.set(At::Held, seq, held);
            st.set(At::WriteStart, seq, write_start);
            st.set(At::WriteEnd, seq, ns_since(t0));
        }
    }
}

// ---- generator -------------------------------------------------------------

/// Replays the schedule; returns the thread's own CPU time.
fn writer(
    clients: &[UnixStream],
    sched: &Schedule,
    st: &[Arc<Stamps>],
    sent: &[AtomicUsize],
    t0: Instant,
) -> u64 {
    tight_timer_slack();
    let cpu0 = thread_cpu_ns();
    let mut next = [0usize; CONNS];
    for (&due, &c) in sched.due_ns.iter().zip(&sched.conn) {
        let c = c as usize;
        let at = t0 + Duration::from_nanos(due);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let seq = next[c];
        next[c] += 1;
        st[c].set(At::Send, seq, ns_since(t0));
        // ordering: Release — pairs with the reader's Acquire load, so a
        // response to this request never finds it unsent.
        sent[c].store(seq + 1, Ordering::Release);
        if (&clients[c])
            .write_all(&encode(seq as u64, WORK, 0))
            .is_err()
        {
            break;
        }
    }
    for c in clients {
        let _ = c.shutdown(std::net::Shutdown::Write);
    }
    thread_cpu_ns() - cpu0
}

/// Reads and verifies responses until every connection hit EOF or went
/// silent; returns the verifiers and the thread's own CPU time.
fn reader(
    clients: &[UnixStream],
    sched: &Schedule,
    st: &[Arc<Stamps>],
    sent: &[AtomicUsize],
    t0: Instant,
) -> (Vec<Verifier>, u64) {
    tight_timer_slack();
    let cpu0 = thread_cpu_ns();
    let mut ver: Vec<Verifier> = sched.per_conn.iter().map(|&n| Verifier::new(n)).collect();
    let mut fds: Vec<PollFd> = clients
        .iter()
        .map(|c| PollFd {
            fd: c.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let mut frame = [0u8; FRAME];
    while fds.iter().any(|f| f.fd >= 0) {
        fds.iter_mut().for_each(|f| f.revents = 0);
        match poll_fds(&mut fds, READ_TIMEOUT_MS) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        for c in 0..CONNS {
            if fds[c].revents == 0 {
                continue;
            }
            match (&clients[c]).read_exact(&mut frame) {
                Ok(()) => {
                    let now = ns_since(t0);
                    let sent = sent[c].load(Ordering::Acquire);
                    if let Some(seq) = ver[c].check(&frame, sent) {
                        st[c].set(At::Recv, seq, now);
                    }
                }
                Err(_) => fds[c].fd = -1,
            }
        }
    }
    (ver, thread_cpu_ns() - cpu0)
}

/// Keeps the CPU out of its idle halt until `stop`, at idle priority, and
/// returns its own CPU time. On a VM, waking a halted vCPU takes the host's
/// scheduler, whose delay under a loaded host reached milliseconds and
/// swamped the light phase, where the CPU idles between requests; a busy
/// vCPU wakes the server and the generator within the guest. Off in the
/// busier sessions, where switching to and from it cost more than the
/// halts it saves. Spins without `pause`, which VMs may trap.
fn keep_awake(stop: &AtomicBool) -> u64 {
    let cpu0 = thread_cpu_ns();
    if idle_priority() {
        let mut x = 1u64;
        while !stop.load(Ordering::Relaxed) {
            for _ in 0..1000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
    }
    thread_cpu_ns() - cpu0
}

// ---- one session -------------------------------------------------------------

/// Per-request stage durations of a traced session, in ns.
#[derive(Default)]
struct Stages {
    inbound: Vec<u64>,
    dag: Vec<u64>,
    write: Vec<u64>,
    outbound: Vec<u64>,
    residual: Vec<u64>,
}

#[derive(Default)]
struct Outcome {
    requests: u64,
    failures: u64,
    /// Per answered request: response received − intended send.
    lat: Vec<u64>,
    /// Per session: p90 and p99 of `lat`.
    lat_p90: Vec<u64>,
    lat_p99: Vec<u64>,
    /// Per sent request: actual send − intended send.
    late: Vec<u64>,
    dag: Vec<u64>,
    stages: Stages,
    /// Answers still outstanding at the last intended send time.
    backlog_end: u64,
    /// Process CPU minus the generator and keep-awake threads' own CPU.
    server_cpu_ns: u64,
    dispatch: Vec<u64>,
    complete: Vec<u64>,
}

impl Outcome {
    fn tally(&self) -> Tally {
        Tally {
            attempted: self.requests,
            failed: self.failures,
        }
    }

    fn absorb(&mut self, o: Outcome) {
        self.requests += o.requests;
        self.failures += o.failures;
        self.lat.extend(o.lat);
        self.lat_p90.extend(o.lat_p90);
        self.lat_p99.extend(o.lat_p99);
        self.late.extend(o.late);
        self.dag.extend(o.dag);
        self.stages.inbound.extend(o.stages.inbound);
        self.stages.dag.extend(o.stages.dag);
        self.stages.write.extend(o.stages.write);
        self.stages.outbound.extend(o.stages.outbound);
        self.stages.residual.extend(o.stages.residual);
        self.server_cpu_ns += o.server_cpu_ns;
        self.dispatch.extend(o.dispatch);
        self.complete.extend(o.complete);
    }

    /// Whether the generator sent on schedule: p99 lateness within the
    /// latency limit.
    fn generator_on_time(&self) -> bool {
        within_limit(&self.late, TAIL_Q)
    }

    /// Whether the session met the latency limit at its rate: every
    /// response arrived intact, p90 latency and p90 generator lateness
    /// within the limit, and no growing backlog at the end of the schedule.
    /// p90, like the gated tails: at p99 a loaded host's stalls failed
    /// steps at a fifth of the capacity a calm host measured.
    fn meets_limit(&self, rate: f64) -> bool {
        let backlog_allowed = (2.0 * rate * LIMIT_NS as f64 / 1e9).max(4.0) as u64;
        self.failures == 0
            && within_limit(&self.lat, 0.9)
            && within_limit(&self.late, 0.9)
            && self.backlog_end <= backlog_allowed
    }
}

/// Whether the `q` percentile of `ns` is within the latency limit.
fn within_limit(ns: &[u64], q: f64) -> bool {
    percentile(&sorted(ns.to_vec()), q).is_some_and(|v| v <= LIMIT_NS)
}

/// Runs one session of `sched` on `rt`. `awake` keeps the CPU out of its
/// idle halt meanwhile (see [`keep_awake`]); `trace` stamps every stage.
fn session(
    rt: &Runtime,
    sched: &Schedule,
    awake: bool,
    trace: bool,
    counters: &mut Counters,
) -> Outcome {
    let mut servers = Vec::with_capacity(CONNS);
    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let (s, c) = UnixStream::pair().expect("socket pair");
        s.set_nonblocking(true).expect("non-blocking server end");
        servers.push(s);
        clients.push(c);
    }
    let st: Vec<Arc<Stamps>> = sched
        .per_conn
        .iter()
        .map(|&n| Arc::new(Stamps::new(n)))
        .collect();
    let sent: Vec<AtomicUsize> = (0..CONNS).map(|_| AtomicUsize::new(0)).collect();
    let t0 = Instant::now() + Duration::from_millis(2);

    let cpu0 = process_cpu_ns();
    let probe = Probe::start(rt);
    let stop = AtomicBool::new(false);
    let (errors, start, end, call, ret, harness_cpu, ver) = std::thread::scope(|s| {
        let k = awake.then(|| s.spawn(|| keep_awake(&stop)));
        let w = s.spawn(|| writer(&clients, sched, &st, &sent, t0));
        let r = s.spawn(|| reader(&clients, sched, &st, &sent, t0));
        let handler_st = st.clone();
        let call = Instant::now();
        let (errors, start, end) = rt.run(move || {
            let start = Instant::now();
            let region = pin!(Region::cancellable());
            let region = region.as_ref();
            let handles: Vec<_> = servers
                .into_iter()
                .zip(handler_st)
                .map(|(s, st)| region.spawn_async(serve_conn(s, st, t0, trace)))
                .collect();
            let errors = region.block_on(async {
                let mut errors = 0;
                for h in handles {
                    errors += h.await;
                }
                errors
            });
            (errors, start, Instant::now())
        });
        let ret = Instant::now();
        let w_cpu = w.join().expect("writer thread");
        let (ver, r_cpu) = r.join().expect("reader thread");
        stop.store(true, Ordering::Relaxed);
        let k_cpu = k.map_or(0, |k| k.join().expect("keep-awake thread"));
        (errors, start, end, call, ret, w_cpu + r_cpu + k_cpu, ver)
    });
    probe.finish(rt, sched.len() as u64, counters);
    let cpu = process_cpu_ns() - cpu0;
    if errors > 0 {
        eprintln!("serve-open: {errors} handler I/O error(s)");
    }

    let mut o = Outcome {
        requests: sched.len() as u64,
        failures: ver.iter().map(Verifier::failures).sum(),
        server_cpu_ns: cpu.saturating_sub(harness_cpu),
        dispatch: vec![(start - call).as_nanos() as u64],
        complete: vec![(ret - end).as_nanos() as u64],
        ..Outcome::default()
    };
    let last_due = sched.due_ns.last().copied().unwrap_or(0);
    let mut seq = [0usize; CONNS];
    for (&due, &c) in sched.due_ns.iter().zip(&sched.conn) {
        let c = c as usize;
        let (s, i) = (&st[c], seq[c]);
        seq[c] += 1;
        let send = s.get(At::Send, i);
        o.late.push(send.saturating_sub(due));
        let recv = s.get(At::Recv, i);
        if recv == 0 {
            o.backlog_end += 1;
            continue;
        }
        o.backlog_end += u64::from(recv > last_due);
        o.lat.push(recv.saturating_sub(due));
        let (dag0, dag1) = (s.get(At::DagStart, i), s.get(At::DagEnd, i));
        o.dag.push(dag1.saturating_sub(dag0));
        if trace {
            let held = s.get(At::Held, i);
            let (w0, w1) = (s.get(At::WriteStart, i), s.get(At::WriteEnd, i));
            let parts = [
                send.saturating_sub(due),
                held.saturating_sub(send),
                dag1.saturating_sub(dag0),
                w1.saturating_sub(w0),
                recv.saturating_sub(w1),
            ];
            o.stages.inbound.push(parts[1]);
            o.stages.dag.push(parts[2]);
            o.stages.write.push(parts[3]);
            o.stages.outbound.push(parts[4]);
            o.stages
                .residual
                .push(recv.saturating_sub(due).saturating_sub(parts.iter().sum()));
        }
    }
    // A session below a tail's sample floor (one that lost responses, or a
    // short warm-up) reports that tail as u64::MAX.
    let lat = sorted(o.lat.clone());
    o.lat_p90.push(tail(&lat, 0.9).unwrap_or(u64::MAX));
    o.lat_p99.push(tail(&lat, TAIL_Q).unwrap_or(u64::MAX));
    o
}

// ---- the workload ----------------------------------------------------------

/// Calls of the request's serial elision, `fib_serial(WORK)`, per sample.
const SERIAL_CALLS: u64 = 1000;

/// Samples of `SERIAL_CALLS` serial-elision calls, in ns per sample.
fn serial_samples(n: usize) -> impl Iterator<Item = u64> {
    (0..n).map(|_| {
        let t = Instant::now();
        for _ in 0..SERIAL_CALLS {
            std::hint::black_box(fib_serial(std::hint::black_box(u64::from(WORK))));
        }
        t.elapsed().as_nanos() as u64
    })
}

/// Highest ramp rate that met the latency limit.
fn ramp(rt: &Runtime, seed: u64, tally: &mut Tally) -> f64 {
    let mut counters = Counters::default();
    let mut passes = |rate: f64, step: u64| {
        (0..RAMP_TRIES).any(|attempt| {
            let sched = Schedule::for_duration(
                seed ^ (step << 8 | attempt),
                rate,
                RAMP_STEP,
                tail_floor(TAIL_Q),
            );
            let o = session(rt, &sched, false, false, &mut counters);
            tally.add(o.tally());
            o.meets_limit(rate)
        })
    };
    let mut best = 0.0;
    let mut rate = RAMP_START_RPS;
    let mut step = 0u64;
    for factor in [RAMP_COARSE, RAMP_FINE] {
        if best > 0.0 {
            rate = best * factor;
        }
        while step < RAMP_MAX_STEPS && passes(rate, step) {
            best = rate;
            rate *= factor;
            step += 1;
        }
        step += 1;
    }
    best
}

pub fn run(args: &Args, report: &mut Report) -> Tally {
    let mut tally = Tally::default();

    // Server and generator share one CPU, like `taskset -c <cpu>`: on two
    // vCPUs the kernel's thread placement decided whether each wake-up
    // crossed CPUs, which moved the light-load median by up to 2x between
    // identical runs. On one CPU a stall of the host delays the generator
    // too, which the lateness check below then catches.
    match crate::measure::pin_to_last_cpu() {
        Some(cpu) => eprintln!("serve-open: server and generator on CPU {cpu}"),
        None => eprintln!("serve-open: CPU placement left to the kernel"),
    }

    // Set-up: runtime, sockets, handler registration and a short warm-up
    // session. Each round of sessions, and each ramp, gets a fresh runtime.
    let mut instances = Instances::default();
    let mut warmups = 0u64;
    let mut fresh = |tally: &mut Tally, instances: &mut Instances| {
        warmups += 1;
        let warm = Schedule::poisson(args.seed ^ (0xA000 + warmups), WARM_RPS, WARM_REQUESTS);
        instances.fresh(1, |rt| {
            tally.add(session(rt, &warm, false, false, &mut Counters::default()).tally())
        })
    };

    // Light and heavy sessions alternate, a fresh runtime per round; the
    // traced run halves each session and adds a traced twin.
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let per_session = args.seconds as f64 / (SESSIONS * passes.len()) as f64;
    let mut phases = [
        Phase::new("light", LIGHT_RPS, 0.3, true),
        Phase::new("heavy", HEAVY_RPS, 0.15, false),
    ];
    let mut redone = 0;
    let mut serial = Vec::new();
    for k in 0..SESSIONS as u64 {
        let rt = fresh(&mut tally, &mut instances);
        for (i, p) in phases.iter_mut().enumerate() {
            for &trace in passes {
                let seed = args.seed ^ (0x1000 << i) ^ (k << 4) ^ u64::from(trace);
                let dur = Duration::from_secs_f64(per_session * p.share);
                let sched = Schedule::for_duration(seed, p.rate, dur, tail_floor(TAIL_Q));
                let mut o = session(&rt, &sched, p.awake, trace, &mut p.counters);
                for _ in 1..SESSION_TRIES {
                    if o.generator_on_time() {
                        break;
                    }
                    redone += 1;
                    tally.add(o.tally());
                    o = session(&rt, &sched, p.awake, trace, &mut p.counters);
                }
                tally.add(o.tally());
                if trace { &mut p.traced } else { &mut p.plain }.absorb(o);
            }
        }
        instances.retire(rt);
        serial.extend(serial_samples(40));
    }
    let serial_ns = median(&sorted(serial)) as f64 / SERIAL_CALLS as f64;
    eprintln!("serve-open: {redone} session(s) run again after the generator ran late");
    let [light, heavy] = &phases;

    if !args.trace {
        for p in [light, heavy] {
            let lat = sorted(p.plain.lat.clone());
            let cpu_us = p.plain.server_cpu_ns as f64 / 1e3 / p.plain.requests as f64;
            report.put(
                format!("lat_us_p50.{}", p.name),
                median(&lat) as f64 / 1e3,
                "us",
            );
            report.put(format!("cpu_us_per_op.{}", p.name), cpu_us, "us");
        }
        report.put("lat_us_p90.heavy", p90_us(&heavy.plain), "us");
        let dag = median(&sorted(heavy.plain.dag.clone())) as f64;
        report.put("t_over_ts", dag / serial_ns, "ratio");
        let mut ramps: Vec<f64> = (0..RAMPS)
            .map(|i| {
                let rt = fresh(&mut tally, &mut instances);
                ramp(&rt, args.seed ^ (0x3000 + (i << 20)), &mut tally)
            })
            .collect();
        ramps.sort_by(f64::total_cmp);
        report.put("max_ops_per_s", ramps[RAMPS as usize / 2], "1/s");
        report.put("setup_s", instances.setup_s(), "s");
        report.put("peak_rss_mib", crate::measure::peak_rss_mib(), "MiB");
    } else {
        Parts::measure().emit(report);
        instances.emit(report);
        emit_counters(report, &light.counters, &heavy.counters);
        let outcomes = [&light.plain, &light.traced, &heavy.plain, &heavy.traced];
        let us_p50 = |v: Vec<u64>| median(&sorted(v)) as f64 / 1e3;
        let dispatch = outcomes
            .iter()
            .flat_map(|o| o.dispatch.iter().copied())
            .collect();
        let complete = outcomes
            .iter()
            .flat_map(|o| o.complete.iter().copied())
            .collect();
        report.put("runtime.dispatch_us_p50", us_p50(dispatch), "us");
        report.put("runtime.complete_us_p50", us_p50(complete), "us");
        for p in [light, heavy] {
            emit_stages(report, p.name, &p.traced.stages);
            report.put(
                format!("serve.lat_us_p99.{}", p.name),
                us_p50(p.plain.lat_p99.clone()),
                "us",
            );
            let late = sorted([p.plain.late.clone(), p.traced.late.clone()].concat());
            let late_p99 = percentile(&late, TAIL_Q).unwrap_or(0) as f64 / 1e3;
            report.put(format!("loadgen.late_us_p99.{}", p.name), late_p99, "us");
        }
        report.put("kernels.serial_us_p50", serial_ns / 1e3, "us");
        report.put("e2e.lat_us_p90.light", p90_us(&light.plain), "us");
        let untraced = median(&sorted(heavy.plain.lat.clone())) as f64;
        let traced = median(&sorted(heavy.traced.lat.clone())) as f64;
        report.put(
            "trace.overhead_frac",
            ratio(traced - untraced, untraced),
            "ratio",
        );
    }
    tally
}

/// The median over sessions of each session's p90 latency, in µs: one stall
/// of the host spoils one session's tail, not the phase's. (p99 sits at the
/// ~1% of time a loaded VM host takes in stalls, and measures them more than
/// the program; it is reported per layer, as `serve.lat_us_p99.*`.)
fn p90_us(o: &Outcome) -> f64 {
    median(&sorted(o.lat_p90.clone())) as f64 / 1e3
}

/// One load phase: its offered rate, its share of the run's seconds,
/// whether its CPU is kept awake, and what its untraced and traced
/// sessions measured.
struct Phase {
    name: &'static str,
    rate: f64,
    share: f64,
    awake: bool,
    plain: Outcome,
    traced: Outcome,
    counters: Counters,
}

impl Phase {
    fn new(name: &'static str, rate: f64, share: f64, awake: bool) -> Phase {
        Phase {
            name,
            rate,
            share,
            awake,
            plain: Outcome::default(),
            traced: Outcome::default(),
            counters: Counters::default(),
        }
    }
}

/// Emits one phase's stage spans (zeros when the phase served nothing).
fn emit_stages(r: &mut Report, phase: &str, s: &Stages) {
    let us = |v: &[u64], q: f64| percentile(&sorted(v.to_vec()), q).unwrap_or(0) as f64 / 1e3;
    r.put(
        format!("serve.inbound_us_p50.{phase}"),
        us(&s.inbound, 0.5),
        "us",
    );
    r.put(
        format!("serve.inbound_us_p99.{phase}"),
        us(&s.inbound, TAIL_Q),
        "us",
    );
    r.put(format!("serve.dag_us_p50.{phase}"), us(&s.dag, 0.5), "us");
    r.put(
        format!("serve.write_us_p50.{phase}"),
        us(&s.write, 0.5),
        "us",
    );
    r.put(
        format!("serve.outbound_us_p50.{phase}"),
        us(&s.outbound, 0.5),
        "us",
    );
    r.put(
        format!("serve.residual_us_p50.{phase}"),
        us(&s.residual, 0.5),
        "us",
    );
}

/// The request-path metrics of a workload that serves no requests: no
/// stage and no generator samples, reported as 0.
pub fn emit_no_requests(r: &mut Report) {
    for phase in ["light", "heavy"] {
        emit_stages(r, phase, &Stages::default());
        r.put(format!("serve.lat_us_p99.{phase}"), 0.0, "us");
        r.put(format!("loadgen.late_us_p99.{phase}"), 0.0, "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowa_runtime::Config;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = Schedule::poisson(42, 1000.0, 500);
        let b = Schedule::poisson(42, 1000.0, 500);
        let c = Schedule::poisson(43, 1000.0, 500);
        assert_eq!(
            (a.due_ns.clone(), a.conn.clone()),
            (b.due_ns.clone(), b.conn.clone())
        );
        assert_ne!(a.due_ns, c.due_ns);
        assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]), "in send order");
        assert_eq!(a.per_conn.iter().sum::<usize>(), 500);
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let s = Schedule::poisson(7, 10_000.0, 20_000);
        let rate = s.len() as f64 / (*s.due_ns.last().unwrap() as f64 / 1e9);
        assert!((rate / 10_000.0 - 1.0).abs() < 0.03, "{rate}");
        assert!(s.per_conn.iter().all(|&n| n > 9_000), "{:?}", s.per_conn);
    }

    fn good(seq: u64) -> [u8; FRAME] {
        encode(seq, WORK, fib_reference(u64::from(WORK)) as u32)
    }

    #[test]
    fn verifier_accepts_each_answer_once() {
        let mut v = Verifier::new(3);
        assert_eq!(v.check(&good(1), 3), Some(1));
        assert_eq!(v.check(&good(0), 3), Some(0));
        assert_eq!(v.check(&good(2), 3), Some(2));
        assert_eq!(v.failures(), 0);
    }

    #[test]
    fn verifier_catches_a_dropped_response() {
        let mut v = Verifier::new(3);
        v.check(&good(0), 3);
        v.check(&good(2), 3);
        assert_eq!((v.lost(), v.failures()), (1, 1));
    }

    #[test]
    fn verifier_catches_a_duplicated_response() {
        let mut v = Verifier::new(2);
        v.check(&good(0), 2);
        assert_eq!(v.check(&good(0), 2), None);
        v.check(&good(1), 2);
        assert_eq!((v.duplicated, v.failures()), (1, 1));
    }

    #[test]
    fn verifier_catches_a_corrupted_response() {
        let mut v = Verifier::new(3);
        assert_eq!(v.check(&encode(0, WORK, 20), 3), None, "wrong result");
        assert_eq!(
            v.check(&encode(1, WORK + 1, 21), 3),
            None,
            "wrong work echo"
        );
        assert_eq!(v.check(&good(7), 3), None, "seq never sent");
        assert_eq!(v.check(&good(2), 2), None, "seq not yet sent");
        assert_eq!((v.corrupted, v.unknown), (2, 2));
        assert_eq!(v.failures(), 2 + 2 + 1, "seq 2 is still unanswered");
    }

    #[test]
    fn a_session_answers_every_request_correctly() {
        let rt = Runtime::new(Config::with_workers(1)).unwrap();
        let sched = Schedule::poisson(5, 5_000.0, 300);
        let mut c = Counters::default();
        let o = session(&rt, &sched, true, true, &mut c);
        assert_eq!((o.requests, o.failures, o.lat.len()), (300, 0, 300));
        assert_eq!(o.stages.inbound.len(), 300);
        assert_eq!(c.ops, 300);
        assert!(c.stats.reactor_polls > 0);
        // The stages and the lateness account for each request's latency.
        for i in 0..300 {
            let parts = o.late[i]
                + o.stages.inbound[i]
                + o.stages.dag[i]
                + o.stages.write[i]
                + o.stages.outbound[i];
            assert_eq!(parts + o.stages.residual[i], o.lat[i].max(parts));
        }
    }
}
