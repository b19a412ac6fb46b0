//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! nowa-perf --workload <fj-fine-1w|fj-phased-2w|serve-open> --seed <n>
//!           --seconds <s> --trace <0|1> --runtime-features <list>
//! ```
//!
//! Prints one `name value unit` line per metric on stderr and, as the last
//! line of stdout, `{"correct", "attempted", "failed", "metrics"}`.
//! `--runtime-features` is the comma-separated feature set `nowa-runtime`
//! was built with (`run.py` reads it from cargo); the benchmark measures
//! the default build only and refuses to report when `trace` or `chaos`
//! is on. See README.md for what each workload and metric means.

mod fj;
mod layers;
mod measure;
mod report;
mod serve;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// A run is abandoned (no result, non-zero exit) after this long.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub runtime_features: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
    let args = Args {
        workload: get("--workload")?,
        seed: num("--seed", get("--seed")?)?,
        seconds: num("--seconds", get("--seconds")?)?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace {v}: expected 0 or 1")),
        },
        runtime_features: get("--runtime-features")?
            .split(',')
            .filter(|f| !f.is_empty())
            .map(str::to_owned)
            .collect(),
    };
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {}: expected 1..=60", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nowa-perf: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "nowa-perf: nowa-runtime features measured: [{}]",
        args.runtime_features.join(",")
    );
    if let Some(f) = args
        .runtime_features
        .iter()
        .find(|f| *f == "trace" || *f == "chaos")
    {
        eprintln!("nowa-perf: refusing to report: nowa-runtime was built with `{f}`; measure the default build");
        return ExitCode::from(3);
    }
    eprintln!(
        "nowa-perf: {} seed {} for {} s, trace {}, {} CPUs available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // A hung program must not hang the benchmark: give up without a result.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "nowa-perf: run exceeded {} s, abandoned",
            WATCHDOG.as_secs()
        );
        std::process::exit(4);
    });

    let mut report = Report::default();
    let tally = match args.workload.as_str() {
        "fj-fine-1w" => fj::run(fj::Kernel::Fib, 1, &args, &mut report),
        "fj-phased-2w" => fj::run(fj::Kernel::Heat, 2, &args, &mut report),
        "serve-open" => serve::run(&args, &mut report),
        w => {
            eprintln!("nowa-perf: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "nowa-perf: {} outputs checked, {} wrong (err_frac {})",
        tally.attempted,
        tally.failed,
        tally.err_frac()
    );
    eprint!("{}", report.table());
    println!("{}", report.json_line(tally));
    ExitCode::SUCCESS
}
