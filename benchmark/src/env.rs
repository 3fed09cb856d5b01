//! Where the benchmark writes, and the environment block printed with
//! every result so numbers from different machines are never compared.

use std::path::PathBuf;
use std::process::Command;

use gdim::core::selected_kernel;

use crate::spec::MAX_CLIENTS;

/// `benchmark/out/`: the only place the benchmark writes (traces, the
/// durable scratch directory, `--repeat` reports). `cargo run` passes
/// the package directory at run time; a binary started by hand falls
/// back to the directory it was built from.
pub fn out_dir() -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    package.join("out")
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `C`: closed-loop clients, one keep-alive connection and one thread
/// each.
pub fn clients() -> usize {
    available_parallelism().min(MAX_CLIENTS)
}

/// First line of the command's standard output, or `unknown`.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` of this process in MB: the most resident memory it ever
/// held.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `"env"` object: everything a reader needs before comparing two
/// results.
pub fn block(workload: &str, seed: u64, rows: usize, stream_hash: u64, smoke: bool) -> String {
    let out = out_dir();
    let package = out.parent().expect("out_dir has a parent");
    let checkout = package.parent().unwrap_or(package);
    let ceiling = checkout.parent().unwrap_or(checkout);
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"smoke\":{smoke},\"rows\":{rows},\
         \"clients\":{},\"available_parallelism\":{},\"kernel\":\"{}\",\"rustc\":\"{}\",\
         \"git_commit\":\"{}\",\"stream_hash\":\"{stream_hash:016x}\"}}",
        clients(),
        available_parallelism(),
        selected_kernel().name(),
        first_line(Command::new("rustc").arg("--version")),
        first_line(
            Command::new("git")
                .arg("-C")
                .arg(package)
                .args(["rev-parse", "HEAD"])
                // git must not look for a repository above the checkout.
                .env("GIT_CEILING_DIRECTORIES", ceiling)
        ),
    )
}
