//! Regenerates the HybridTier paper's tables and figures.
//!
//! ```text
//! repro <experiment-id>...   run specific experiments (fig4, table3, ...)
//! repro all                  run everything
//! repro list                 list experiment ids
//! ```
//!
//! Every id is looked up before any runs: an unknown one prints the usage
//! on stderr and exits 1 having written nothing. Each id then runs at
//! [`Budget::paper`] and goes through [`render`], which prints its table
//! and notes and writes `<id>.csv` into `$REPRO_OUT_DIR` (default
//! `results/`); the `[id took …s]` line after it is the only clock.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hybridtier_bench::{experiments, render, Budget};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("help" | "--help") => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some("list") => {
            for e in experiments::ALL {
                println!("{:<8} {}", e.id, e.title);
            }
            return ExitCode::SUCCESS;
        }
        Some(_) => {}
    }

    let mut selected = Vec::new();
    for arg in &args {
        if arg == "all" {
            selected.extend(experiments::ALL);
        } else if let Some(e) = experiments::find(arg) {
            selected.push(e);
        } else {
            eprint!("repro: unknown experiment '{arg}'\n{}", usage());
            return ExitCode::FAILURE;
        }
    }

    let out =
        PathBuf::from(std::env::var("REPRO_OUT_DIR").unwrap_or_else(|_| "results".to_string()));
    let budget = Budget::paper();
    for e in selected {
        let start = Instant::now();
        if let Err(err) = render(&(e.run)(&budget), e.title, &out) {
            eprintln!("experiment {} failed: {err}", e.id);
            return ExitCode::FAILURE;
        }
        println!("[{} took {:.1}s]", e.id, start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

fn usage() -> String {
    let mut text = "usage: repro <experiment-id>... | all | list\nexperiments:\n".to_string();
    for e in experiments::ALL {
        text.push_str(&format!("  {:<8} {}\n", e.id, e.title));
    }
    text
}
