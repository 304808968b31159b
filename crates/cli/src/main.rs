//! `tucker` — command-line Tucker compression.
//!
//! ```text
//! tucker generate <out.tns> --kind hcci|sp|video|random --dims 40x40x33x40 [--seed N] [--f32]
//! tucker compress <in.tns> <out.tkr> [--tol 1e-4 | --ranks 5x5x3x5]
//!                 [--method qr|gram|gram-mixed|randomized] [--order forward|backward|auto]
//! tucker decompress <in.tkr> <out.tns>
//! tucker info <file.tns|file.tkr>
//! tucker error <original.tns> <reconstruction.tns>
//! ```
//!
//! The method/tolerance guidance follows the paper (see README): `qr` in
//! double precision is always safe; `gram` is ~2x cheaper but unreliable for
//! tolerances below `√ε`; `gram-mixed` (single-precision data, double
//! accumulation) covers the middle ground; `randomized` needs `--ranks`.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match commands::run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
