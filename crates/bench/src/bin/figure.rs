//! `figure NAME [--quick] [--threads N]` — prints one figure of the
//! paper's evaluation; NAME is a stem of `results/*.txt` (the table is
//! [`mrts_bench::figures::FIGURES`]).
//!
//! Exits 0 when every printed invariant reads "yes" and also when the
//! reader closes stdout early; exits 1 with `error: <field>: …` on stderr
//! for bad input, a run that cannot start or a "NO — regression!" line.

use mrts_bench::figures::Opts;
use std::io;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figure, opts) = match Opts::parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match figure.run(&mut io::stdout().lock(), &opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "error: {}: an invariant reads NO — regression!",
                figure.name
            );
            ExitCode::FAILURE
        }
        // A reader that closed stdout early has all the output it wants.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}: {e}", figure.name);
            ExitCode::FAILURE
        }
    }
}
