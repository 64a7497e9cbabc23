//! Paper-scale end-to-end benchmark of the hot-motion-path pipeline.
//!
//! Three workloads drive the real program from outside: two in-process
//! closed loops ([`closed_loop`]) and one open-loop replay over
//! `hotpathd`'s unix socket ([`served`]). [`metrics`] turns replays into
//! the end-to-end and per-layer figures; [`trace`] records the spans of
//! the traced run. See `DESIGN.md` beside this crate for every metric's
//! definition and the predictions it is meant to test.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod closed_loop;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod served;
pub mod stats;
pub mod trace;
pub mod workload;
