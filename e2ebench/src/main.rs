//! `raa-e2ebench --workload <calibrate|deep_stream|sweepd> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Run from the repository root; scratch files go under
//! `.bench_out/`.

use raa_e2ebench::report::{Report, END_TO_END, PER_LAYER};
use raa_e2ebench::trace::Tracer;
use raa_e2ebench::workloads::{self, Ctx};
use raa_e2ebench::WORKLOADS;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        scratch: out.join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("error: cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::from(1);
    }
    let mut rep = Report::default();
    let declared: &[(&str, &str)] = if args.trace {
        let tracer = Tracer::new();
        match args.workload.as_str() {
            "calibrate" => workloads::calibrate_traced(&ctx, &tracer, &mut rep),
            "deep_stream" => workloads::deep_stream_traced(&ctx, &tracer, &mut rep),
            _ => workloads::sweepd_traced(&ctx, &tracer, &mut rep),
        }
        let spans = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_spans(&spans) {
            Ok(()) => eprintln!(
                "spans: {} ({} spans); tracing overhead {:.4} s",
                spans.display(),
                tracer.spans().len(),
                rep.metrics.get("trace.overhead_s").copied().unwrap_or(0.0)
            ),
            Err(e) => rep.op("span file", vec![e.to_string()]),
        }
        &PER_LAYER
    } else {
        match args.workload.as_str() {
            "calibrate" => workloads::calibrate_workload(&ctx, &mut rep),
            "deep_stream" => workloads::deep_stream_workload(&ctx, &mut rep),
            _ => workloads::sweepd_workload(&ctx, &mut rep),
        }
        &END_TO_END
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    for failure in &rep.failures {
        eprintln!("FAILED {failure}");
    }
    for (name, unit) in declared {
        eprintln!(
            "{name:<36} {:>14.6} {unit}",
            rep.metrics.get(*name).copied().unwrap_or(f64::NAN)
        );
    }
    println!("{}", rep.to_json(declared));
    ExitCode::SUCCESS
}
