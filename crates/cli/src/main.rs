//! `mrts-cli` — command-line interface for the mRTS reproduction.
//!
//! ```text
//! mrts-cli catalog  [--app h264|fft|cipher|toy|cv|cryptomix|MANIFEST.json]
//! mrts-cli simulate [--app ..] [--cg N] [--prc N] [--policy ..] [--seed N]
//!                   [--fault-rate P] [--fault-seed N] [--retry-budget N]
//!                   [--events-out FILE] [--threads N]
//! mrts-cli sweep    [--app ..] [--policy ..] [--seed N] [--format table|csv]
//! mrts-cli multitask [--apps a,b,..] [--weights w,w,..] [--slo s,s,..]
//!                   [--cg N] [--prc N] [--policy ..] [--arbiter ..]
//!                   [--sched ..] [--admission ..] [--degrade on|off]
//!                   [--events-out FILE] [--threads N]
//! mrts-cli fleet    [--apps a,b,..] [--sessions N] [--mean-gap N]
//!                   [--fabrics N] [--ways N] [--queue-cap N]
//!                   [--placement ..] [--admission ..] [--arbiter ..]
//!                   [--arrivals-in FILE] [--arrivals-out FILE]
//!                   [--events-out FILE] [--threads N]
//! mrts-cli trace    [--app ..] [--seed N] [--out FILE]
//! mrts-cli pif      [--app ..] [--kernel NAME] [--max-exec N]
//! mrts-cli ingest   [--check SPEC] [--dump SPEC] [--lower SPEC]
//!                   [--out FILE] [--replay EVENTS.jsonl]
//! ```

mod args;
mod commands;

use args::Args;
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "\
mrts-cli — run-time system for multi-grained reconfigurable processors

USAGE:
    mrts-cli <COMMAND> [--flag value ...]

COMMANDS:
    catalog    inspect the compile-time ISE catalogue of an application
    simulate   run one application trace on one machine under one policy
    sweep      run a policy over the Fig. 8 fabric grid (vs RISC-mode)
    multitask  time-share one machine between several applications
    fleet      run an open-loop session fleet over several fabric shards
    trace      generate a workload trace and write it as JSON
    pif        print the Eq. 1 performance-improvement table for a kernel
    ingest     validate, dump or lower a workload manifest (no simulation)
    help       show this message (so do --help and -h)

COMMON FLAGS:
    --app      h264 (default) | fft | cipher | toy | cv | cryptomix,
               or a path to a workload manifest (.json)
    --seed     video/workload seed (default 1)
    --cg       physical CG-EDPEs (default 2)
    --prc      PRCs (default 2)
    --policy   mrts (default) | risc | rispp | morpheus | offline | optimal

SIMULATE/MULTITASK-ONLY FLAGS:
    --fault-rate  per-load/per-execution fault probability (default 0.0)
    --fault-seed  fault-injection seed (default 1)
    --events-out  write the run's event spine as JSONL to FILE
    --threads     replay the run on N threads and verify byte-identical
                  stats and event logs (default 1)

SIMULATE-ONLY FLAGS:
    --retry-budget  retries per faulted load on top of the first attempt
                    (default 3)

MULTITASK-ONLY FLAGS:
    --apps      comma-separated tenant list (default h264,fft)
    --weights   comma-separated scheduling weights (default all 1)
    --slo       one SLO per app as crit[:period[:session]] cycles, with
                crit = hard|soft|be; '-' or 'none' skips a tenant
                (example: --slo hard:40000000,-)
    --arbiter   dynamic (default) | static   fabric partitioning
    --sched     wfq (default) | edf | llf   core time-sharing
    --admission off (default) | reject | queue   SLO feasibility gate
    --degrade   on (default) | off   laxity-driven degradation ladder

FLEET-ONLY FLAGS:
    --sessions     Poisson sessions to generate (default 1000)
    --mean-gap     mean inter-arrival gap in cycles (default 150000);
                   halving it doubles the offered load
    --variants     trace variants per app (default 4)
    --max-blocks   video-app session length cap in blocks (default 40)
    --fabrics      independent fabric shards (default 2)
    --ways         admission lanes per shard (default 4)
    --queue-cap    wait-queue depth per shard, 0 = reject on overflow
                   (default 16)
    --placement    least-loaded (default) | rr | crit   shard placement
    --window       fabric-utilization window width in cycles
                   (default 1000000)
    --repart-min   dynamic-arbiter repartition threshold in cycles
                   (default 50000)
    --arrivals-in  replay a JSONL arrival trace instead of generating one
    --arrivals-out write the generated arrival trace as JSONL to FILE

INGEST-ONLY FLAGS:
    --check SPEC   run the pass pipeline and print the derived catalogue
                   summary; exits non-zero with the offending field on error
    --dump SPEC    print the canonical manifest JSON (builtins included)
    --lower SPEC   print the derived ISE catalogue as JSON
    --out FILE     write --dump/--lower output to FILE instead of stdout
    --replay FILE  fold a --events-out JSONL spine into the --check report

EXAMPLES:
    mrts-cli simulate --app h264 --cg 2 --prc 2 --policy mrts
    mrts-cli simulate --app h264 --policy mrts --fault-rate 0.001 --fault-seed 7
    mrts-cli simulate --app fft --events-out events.jsonl --threads 4
    mrts-cli sweep --policy mrts --format csv > sweep.csv
    mrts-cli multitask --apps h264,fft,cipher --weights 2,1,1 --sched wfq
    mrts-cli multitask --apps h264,fft --slo hard:40000000,- --sched edf --admission queue
    mrts-cli fleet --sessions 10000 --fabrics 4 --placement crit --admission queue
    mrts-cli fleet --sessions 2000 --arrivals-out arr.jsonl --events-out ev.jsonl --threads 4
    mrts-cli pif --kernel deblock --max-exec 10000
    mrts-cli ingest --check manifests/h264.json
    mrts-cli ingest --dump manifests/cv.json --out manifests/cv.json
    mrts-cli simulate --app manifests/cryptomix.json --policy mrts
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = &mut io::stdout();
    let result = match args.command() {
        Some("catalog") => commands::catalog(&args, out),
        Some("simulate") => commands::simulate(&args, out),
        Some("sweep") => commands::sweep(&args, out),
        Some("multitask") => commands::multitask(&args, out),
        Some("fleet") => commands::fleet(&args, out),
        Some("trace") => commands::trace(&args, out),
        Some("pif") => commands::pif(&args, out),
        Some("ingest") => commands::ingest(&args, out),
        Some("help") | None => out.write_all(USAGE.as_bytes()).map_err(Into::into),
        Some(other) => Err(format!("unknown command '{other}'; try 'mrts-cli help'").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed stdout early (`mrts-cli ... | head`) has
        // all the output it wants.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
