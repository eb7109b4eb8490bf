//! `ftbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time, checks every execution's output
//! and prints a stamp line and then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and the metrics
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use ftbench::output::{result_line, stamp_line};
use ftbench::workload::{run, Opts, Size, Workload};

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("ftbench: {msg}");
    eprintln!(
        "usage: ftbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    v.parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes a u64")),
                )
            }
            "--seconds" => {
                let s: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    Opts {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
        size: Size::Full,
    }
}

fn main() {
    let opts = parse_args();
    let out = run(&opts);
    for e in &out.errors {
        eprintln!("ftbench: FAILED {e}");
    }
    for (name, v, unit) in &out.metrics {
        eprintln!("ftbench: {name:<34} {v:>14.6} {unit}");
    }
    println!("{}", stamp_line(&out));
    println!("{}", result_line(&out));
    // A hung execution leaves threads behind; exiting ends them.
    std::process::exit(0);
}
