//! Strict JSON well-formedness checker for the committed JSON artifacts.
//!
//! ```text
//! cargo run -p alter-bench --bin alter-check-json -- <file>...
//! ```
//!
//! `scripts/bench.sh` assembles `BENCH_runtime.json` by splicing the
//! per-bench summaries together with `printf`/`cat` — a concatenation that
//! silently produces garbage if a bench ever changes its output shape. This
//! checker makes that failure loud: it parses each file with the strict
//! parser in `alter_trace::json` and exits non-zero with a line/column
//! diagnostic on the first violation.

use alter_trace::json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() || paths.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: alter-check-json <file>...");
        eprintln!("exits non-zero if any file is not well-formed JSON");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &paths {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                ok = false;
            }
            Ok(text) => match json::parse(&text) {
                Ok(_) => println!("{path}: valid JSON ({} bytes)", text.len()),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ok = false;
                }
            },
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
