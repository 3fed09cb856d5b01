//! `repro` — regenerates the paper's figures.
//!
//! ```text
//! repro <fig1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|ablation|all> [--scale quick|full] [--seed N]
//! ```
//!
//! Fig. 3 is a proof illustration (no experiment). Results print as
//! tables; shapes to compare against the paper are noted inline (a
//! committed, gated capture is ROADMAP item 1).

use gdim_bench::context::Context;
use gdim_bench::figs;
use gdim_bench::scale::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut scale = Scale::from_env();
    let mut seed = 42u64;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale expects quick|full"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed expects an integer"));
            }
            other if target.is_none() => target = Some(other.to_string()),
            other => die(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }

    let target = target.unwrap_or_else(|| "all".to_string());
    let ctx = Context::new(scale, seed);
    eprintln!("[repro] target={target} scale={scale:?} seed={seed}");
    let t0 = std::time::Instant::now();
    if !figs::run(&target, &ctx) {
        die(&format!(
            "unknown target '{target}' (expected fig1|fig2|fig4..fig9|ablation|all)"
        ));
    }
    eprintln!("[repro] done in {:?}", t0.elapsed());
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("usage: repro <figN|ablation|all> [--scale quick|full] [--seed N]");
    std::process::exit(2);
}
