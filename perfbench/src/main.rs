//! `perfbench --workload fit|serve --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it records the seed, host cores, thread counts and
//! corpus sizes. Exits non-zero when an output check fails.
//!
//! Work files live under `.bench_work/` in the current directory; the
//! traced run leaves its spans there as `trace-<workload>-<seed>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::catalog::{self, END_TO_END, PER_LAYER};
use perfbench::report::{peak_rss_mb, Outcome};
use perfbench::trace::Tracer;

struct Args {
    workload: &'static catalog::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = catalog::workload(name).ok_or_else(|| {
        let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload fit|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(".bench_work");
    let dir = base.join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        return ExitCode::from(2);
    }

    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    out.note("workload", args.workload.name);
    out.note("why", args.workload.why);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("trace", u8::from(args.trace));
    out.note(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let seconds = args.seconds as f64;
    let clock = std::time::Instant::now();
    let run = match args.workload.name {
        "fit" => perfbench::fit::run(args.seed, seconds, &tracer, &dir, &mut out),
        "serve" => perfbench::serve::run(args.seed, seconds, &tracer, &dir, &mut out),
        _ => unreachable!("parse accepts only catalogued workloads"),
    };
    out.note("run.secs", clock.elapsed().as_secs_f64());
    // Remove the run's files and commit the removal now, so freeing
    // their blocks costs this run and not the next one's first publish.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::File::open(&base).and_then(|d| d.sync_all());
    out.note("cleanup.secs", clock.elapsed().as_secs_f64());
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload.name);
        return ExitCode::FAILURE;
    }

    out.set("ok_frac", out.ok_frac());
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    let names: Vec<&'static str> = if args.trace {
        out.set("trace.spans", tracer.spans().len() as f64);
        let path = base.join(format!("trace-{}-{}.tsv", args.workload.name, args.seed));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_tsv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for m in END_TO_END {
        out.note(&format!("meaning.{}", m.name), m.meaning);
    }
    for m in PER_LAYER {
        out.note(&format!("moves.{}", m.name), m.moves);
    }
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", out.record_line());
    match out.result_line(&names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
