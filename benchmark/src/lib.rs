//! The acked-row benchmark as a library, so that `tests/smoke.rs` can hold
//! the binary's output against `BENCHMARK.json` with the same parser and
//! statistics the binary uses. `main.rs` is the command line;
//! `benchmark/README.md` says what is measured and why.

pub mod alloc;
pub mod gen;
pub mod inline;
pub mod json;
pub mod libstore;
pub mod report;
pub mod stats;
pub mod wire;
pub mod workloads;
