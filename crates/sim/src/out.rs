//! Broken-pipe-safe stdout for the CLI binaries.
//!
//! Rust ignores `SIGPIPE`, so writing to a closed pipe surfaces as an
//! `io::Error` — which `println!` turns into a panic. `figures all | head`
//! would therefore die with a backtrace the moment `head` exits. The
//! binaries route every stdout write through [`print`](fn@print)/[`println`](fn@println) instead
//! (via a shadowing `println!` macro), which treat `BrokenPipe` as the
//! reader saying "enough": the process exits cleanly with status 0, the
//! Unix convention for a truncated pipeline.

use std::fmt;
use std::io::{self, Write};

/// Writes formatted text to stdout (no newline); exits with status 0 on
/// `BrokenPipe` and status 1 on any other write failure.
pub fn print(args: fmt::Arguments<'_>) {
    let stdout = io::stdout();
    let mut lock = stdout.lock();
    check(lock.write_fmt(args));
}

/// Writes one formatted line to stdout; exits with status 0 on
/// `BrokenPipe` and status 1 on any other write failure.
pub fn println(args: fmt::Arguments<'_>) {
    let stdout = io::stdout();
    let mut lock = stdout.lock();
    check(lock.write_fmt(args).and_then(|()| lock.write_all(b"\n")));
}

/// Flushes stdout with the same failure policy as [`println`](fn@println).
pub fn flush() {
    check(io::stdout().flush());
}

fn check(r: io::Result<()>) {
    if let Err(e) = r {
        if e.kind() == io::ErrorKind::BrokenPipe {
            // The reader closed the pipe; nothing downstream wants more.
            std::process::exit(0);
        }
        eprintln!("fatal: stdout write failed: {e}");
        std::process::exit(1);
    }
}
