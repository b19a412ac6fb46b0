//! Fork/join workloads: a kernel run by `Runtime::run`, interleaved with
//! its serial elision in the same process.
//!
//! Each iteration submits one *light* run (to an idle runtime, after its
//! workers have parked), one *heavy* run (right after the previous run
//! returned, workers still awake) and one serial-elision run, and checks
//! every output against the kernel's reference.

use std::time::{Duration, Instant};

use nowa_kernels::fib::{fib, fib_reference, fib_serial};
use nowa_kernels::heat::{heat, heat_serial, Grid};
use nowa_runtime::Runtime;

use crate::layers::{emit_counters, Counters, Instances, Parts, Probe};
use crate::measure::{median, process_cpu_ns, ratio, sorted, tail, tail_floor, Rng};
use crate::report::{Report, Tally};
use crate::Args;

const FIB_N: u64 = 27;
const HEAT_ROWS: usize = 512;
const HEAT_COLS: usize = 256;
const HEAT_STEPS: usize = 100;
const HEAT_GRAIN: usize = 8;

/// Iterations on one runtime instance before it is replaced by a fresh one.
const PER_INSTANCE: u64 = 8;

/// Idle gap before a light run: far longer than the idle engine's
/// spin → yield → park ladder (microseconds), so every worker is parked or
/// blocked polling the reactor when the run arrives; plus a seeded jitter
/// so submissions do not phase-lock to the parked workers' periodic
/// self-wake.
const GAP_BASE: Duration = Duration::from_millis(2);
const GAP_JITTER_US: u64 = 1000;

#[derive(Clone, Copy)]
pub enum Kernel {
    /// `fib(27, 0)`: every level spawns, nearly every continuation is
    /// popped back by its owner.
    Fib,
    /// `heat` 512 × 256, 100 Jacobi steps, grain 8: 100 short parallel
    /// phases, each ending in a sync barrier.
    Heat,
}

impl Kernel {
    fn serial(self) -> u64 {
        match self {
            Kernel::Fib => fib_serial(FIB_N),
            Kernel::Heat => {
                let mut g = Grid::new(HEAT_ROWS, HEAT_COLS);
                heat_serial(&mut g, HEAT_STEPS);
                g.checksum().to_bits()
            }
        }
    }

    /// The value every run must produce. `heat`'s parallel checksum is
    /// bitwise equal to the serial one: each cell is computed by the same
    /// expression whatever the task split.
    fn reference(self) -> u64 {
        match self {
            Kernel::Fib => fib_reference(FIB_N),
            Kernel::Heat => self.serial(),
        }
    }
}

/// One timed parallel run. With `spans`, also the time from the `run` call
/// to the root closure's start (dispatch) and from its end to `run`'s
/// return (complete).
struct Op {
    out: u64,
    wall_ns: u64,
    spans: Option<(u64, u64)>,
}

fn run_op(rt: &Runtime, kernel: Kernel, spans: bool) -> Op {
    let mut grid = Grid::new(HEAT_ROWS, HEAT_COLS);
    let mut body = || match kernel {
        Kernel::Fib => fib(FIB_N, 0),
        Kernel::Heat => {
            heat(&mut grid, HEAT_STEPS, HEAT_GRAIN);
            0
        }
    };
    let t0 = Instant::now();
    let (out, spans) = if spans {
        let (out, start, end) = rt.run(|| {
            let start = Instant::now();
            let out = body();
            (out, start, Instant::now())
        });
        let ret = Instant::now();
        (
            out,
            Some((
                (start - t0).as_nanos() as u64,
                (ret - end).as_nanos() as u64,
            )),
        )
    } else {
        (rt.run(body), None)
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let out = match kernel {
        Kernel::Fib => out,
        Kernel::Heat => grid.checksum().to_bits(),
    };
    Op {
        out,
        wall_ns,
        spans,
    }
}

/// Samples of one phase.
#[derive(Default)]
struct Phase {
    /// Wall time of untraced runs.
    wall: Vec<u64>,
    /// Wall time of runs with spans on (traced mode only).
    traced_wall: Vec<u64>,
    cpu_ns: u64,
    counters: Counters,
    dispatch: Vec<u64>,
    complete: Vec<u64>,
}

/// p90 of a phase's untraced runs, in µs.
fn p90_us(p: &Phase) -> f64 {
    let p90 = tail(&sorted(p.wall.clone()), 0.9).expect("loop runs until the p90 sample floor");
    p90 as f64 / 1e3
}

impl Phase {
    fn record(&mut self, op: &Op) {
        match op.spans {
            Some((d, c)) => {
                self.traced_wall.push(op.wall_ns);
                self.dispatch.push(d);
                self.complete.push(c);
            }
            None => self.wall.push(op.wall_ns),
        }
    }
}

pub fn run(kernel: Kernel, workers: usize, args: &Args, report: &mut Report) -> Tally {
    let mut tally = Tally::default();
    let reference = kernel.reference();

    let mut instances = Instances::default();
    let fresh = |tally: &mut Tally, instances: &mut Instances| {
        instances.fresh(workers, |rt| {
            tally.check(run_op(rt, kernel, false).out == reference)
        })
    };
    let mut rt = fresh(&mut tally, &mut instances);

    let mut rng = Rng::new(args.seed);
    let (mut light, mut heavy) = (Phase::default(), Phase::default());
    let mut serial = Vec::new();
    let min_runs = tail_floor(0.9) * if args.trace { 2 } else { 1 };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut iter = 0u64;
    // The budget, and at least the p90 sample floor of runs per phase.
    while start.elapsed() < budget || serial.len() < min_runs {
        // In the traced run every other iteration records spans, so the
        // untraced iterations measure what tracing costs.
        let spans = args.trace && iter.is_multiple_of(2);
        iter += 1;
        if iter.is_multiple_of(PER_INSTANCE) {
            instances.retire(rt);
            rt = fresh(&mut tally, &mut instances);
        }

        let cpu0 = process_cpu_ns();
        let probe = Probe::start(&rt);
        std::thread::sleep(GAP_BASE + Duration::from_micros(rng.below(GAP_JITTER_US)));
        let op = run_op(&rt, kernel, spans);
        probe.finish(&rt, 1, &mut light.counters);
        light.cpu_ns += process_cpu_ns() - cpu0;
        tally.check(op.out == reference);
        light.record(&op);

        let cpu0 = process_cpu_ns();
        let probe = Probe::start(&rt);
        let op = run_op(&rt, kernel, spans);
        probe.finish(&rt, 1, &mut heavy.counters);
        heavy.cpu_ns += process_cpu_ns() - cpu0;
        tally.check(op.out == reference);
        heavy.record(&op);

        let t0 = Instant::now();
        let out = kernel.serial();
        serial.push(t0.elapsed().as_nanos() as u64);
        tally.check(out == reference);
    }
    let serial = sorted(serial);

    if !args.trace {
        for (name, p) in [("light", &light), ("heavy", &heavy)] {
            let wall = sorted(p.wall.clone());
            let cpu_us = p.cpu_ns as f64 / 1e3 / p.counters.ops as f64;
            report.put(
                format!("lat_us_p50.{name}"),
                median(&wall) as f64 / 1e3,
                "us",
            );
            report.put(format!("cpu_us_per_op.{name}"), cpu_us, "us");
        }
        report.put("lat_us_p90.heavy", p90_us(&heavy), "us");
        let heavy_wall = sorted(heavy.wall.clone());
        report.put(
            "t_over_ts",
            median(&heavy_wall) as f64 / median(&serial) as f64,
            "ratio",
        );
        report.put(
            "max_ops_per_s",
            heavy_wall.len() as f64 / (heavy_wall.iter().sum::<u64>() as f64 / 1e9),
            "1/s",
        );
        report.put("setup_s", instances.setup_s(), "s");
        report.put("peak_rss_mib", crate::measure::peak_rss_mib(), "MiB");
    } else {
        Parts::measure().emit(report);
        instances.retire(rt);
        instances.emit(report);
        emit_counters(report, &light.counters, &heavy.counters);
        let dispatch = sorted([light.dispatch.clone(), heavy.dispatch.clone()].concat());
        let complete = sorted([light.complete.clone(), heavy.complete.clone()].concat());
        report.put(
            "runtime.dispatch_us_p50",
            median(&dispatch) as f64 / 1e3,
            "us",
        );
        report.put(
            "runtime.complete_us_p50",
            median(&complete) as f64 / 1e3,
            "us",
        );
        crate::serve::emit_no_requests(report);
        report.put("kernels.serial_us_p50", median(&serial) as f64 / 1e3, "us");
        report.put("e2e.lat_us_p90.light", p90_us(&light), "us");
        let traced = median(&sorted(heavy.traced_wall.clone())) as f64;
        let untraced = median(&sorted(heavy.wall.clone())) as f64;
        report.put(
            "trace.overhead_frac",
            ratio(traced - untraced, untraced),
            "ratio",
        );
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use nowa_runtime::Config;

    #[test]
    fn runs_match_the_reference_bit_for_bit() {
        let rt = Runtime::new(Config::with_workers(2)).unwrap();
        for kernel in [Kernel::Fib, Kernel::Heat] {
            assert_eq!(run_op(&rt, kernel, false).out, kernel.reference());
            let op = run_op(&rt, kernel, true);
            assert_eq!(op.out, kernel.reference());
            assert!(op.spans.is_some());
        }
    }

    #[test]
    fn the_checks_catch_a_wrong_result() {
        let mut short = Grid::new(HEAT_ROWS, HEAT_COLS);
        heat_serial(&mut short, HEAT_STEPS - 1);
        assert_ne!(short.checksum().to_bits(), Kernel::Heat.reference());
        assert_ne!(fib_serial(FIB_N - 1), Kernel::Fib.reference());
    }
}
