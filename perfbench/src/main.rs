//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 if any output check failed and 2 on bad usage.

use c3_bench::alloc::CountingAlloc;
use c3_perfbench::case::{case, Size, Workload};
use c3_perfbench::{run, Plan};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload stream|oltp|modelcheck --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    plan: Plan,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        plan: Plan {
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let case = case(args.workload, Size::Full, args.seed);
    let outcome = run(&case, args.plan);
    println!(
        "{} seed {} ({}): {} repetition(s), {} failed",
        args.workload.name(),
        args.seed,
        if args.plan.trace {
            "traced"
        } else {
            "untraced"
        },
        outcome.attempted,
        outcome.failed
    );
    print!("{}", outcome.table());
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
