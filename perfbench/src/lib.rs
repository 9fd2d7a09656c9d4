//! The repository benchmark for tdmatch: two workloads (`fit` and
//! `serve`) run by one command that takes a workload name and
//! a seed, checks the program's outputs, and prints every metric with
//! its unit. Numbers are taken from outside the program by timing calls
//! into the public functions of each layer; a traced run records spans
//! around those calls for the per-layer breakdown.

pub mod catalog;
pub mod fit;
pub mod gen;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod wire;
