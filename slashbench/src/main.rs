//! `slashbench` — the Slash engine's benchmark.
//!
//! ```text
//! slashbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload:
//! the workload's input is generated from the seed, the engine runs it
//! repeatedly for `S` seconds, and every run is checked against the
//! benchmark's sequential oracle. With `--trace 1` it replays the same
//! input through each layer's public functions, records spans around
//! every call, and reports the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is 1 when any check
//! failed and 2 on a usage error. See `README.md` beside this crate.

#![forbid(unsafe_code)]

mod measure;
mod oracle;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

/// Seed used when `--seed` is not given (the generators' own default).
const DEFAULT_SEED: u64 = 0x5145;

/// glibc allocator settings every measurement runs under. By default
/// glibc returns freed memory above a moving threshold to the kernel,
/// and whether it does flips with allocation sizes near that threshold.
/// Every later allocation then page-faults afresh, and on a shared
/// two-CPU virtual machine page faults cost two to four times more in
/// some minutes than in others. With a fixed mmap threshold and no
/// trimming, freed input and state buffers stay resident and are reused.
/// Set-up and engine runs after the first then time the work, not the
/// host's fault path — so the measured times leave out the cost of
/// faulting fresh memory in, and a change to that cost alone does not
/// show in them (`peak_rss_mib` still shows the memory held).
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "17179869184"),
];

struct Args {
    workload: &'static workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: slashbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| bad)?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| bad)?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {val} is outside 0..=600"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run this program again with [`MALLOC_ENV`] set (glibc reads it only
/// at start-up), replacing any other values the caller set, wait for
/// it, and pass its exit code on.
fn rerun_with_malloc_env() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .envs(MALLOC_ENV)
            .status()
    });
    match status {
        Ok(s) => ExitCode::from(s.code().map_or(1, |c| u8::try_from(c).unwrap_or(1))),
        Err(e) => {
            eprintln!("error: could not re-run with the allocator settings: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    if MALLOC_ENV
        .iter()
        .any(|(k, v)| std::env::var_os(k).is_none_or(|set| set != *v))
    {
        return rerun_with_malloc_env();
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, args.seconds)
    } else {
        measure::run(args.workload, args.seed, args.seconds)
    };
    outcome.print(args.workload.name, args.seed);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
