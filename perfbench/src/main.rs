//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints the host record, every metric with its
//! unit, and, as the last line, the JSON result. Exits 1 when the
//! correctness gate fails and 2 when the run cannot be made.

use std::process::ExitCode;

use perfbench::{Config, TraceShape, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <fig2_single|fig2_sharded|hh_durable> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        shape: TraceShape::DEFAULT,
        work_dir: perfbench::WORK_DIR.into(),
    };
    let out = match perfbench::run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# host: {}", out.host);
    for m in &out.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        eprintln!("perfbench: correctness gate: {p}");
    }
    println!("{}", out.to_json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
