//! # gdim-bench — the experiment harness of §6
//!
//! Regenerates every figure of the paper's evaluation from scratch:
//! dataset generation → gSpan mining → dimension selection (DSPM,
//! DSPMap and the seven baselines) → top-k query evaluation against
//! exact MCS-based ground truth, reported relative to the benchmark
//! ranker exactly as the paper does.
//!
//! Entry point: the `repro` binary (`cargo run -p gdim-bench --release
//! --bin repro -- all`). Each `figN` subcommand prints the table/series
//! behind the corresponding paper figure. `--scale full` switches from
//! the fast defaults to paper-scale workloads.
//!
//! The four `*_baseline` binaries record and gate the committed
//! `BENCH_*.json` perf snapshots (scan + mapping, ANN, WAL + publish,
//! serving) through one shared module, [`gate`]: each takes `--out
//! PATH` and `--baseline PATH`, and `scan`, `ann` and `wal` take
//! `--smoke` for CI's smaller sizes. Every check prints its verdict
//! before a failing run exits 1.

pub mod algo;
pub mod context;
pub mod eval;
pub mod figs;
pub mod gate;
pub mod scale;
pub mod scanwork;
pub mod table;
