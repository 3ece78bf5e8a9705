//! The end-to-end DP-Sync benchmark.
//!
//! Three seeded workloads ([`scenario::Workload`]) each replay the program
//! through `Simulation::run_sparse_multi`, the one simulation driver the
//! repository keeps.  An untraced run yields the end-to-end metrics, taken
//! at the owner's and the analyst's handles; a traced run wraps every layer
//! boundary the program exposes in forwarding decorators ([`decor`]) that
//! record spans ([`trace`]), from which [`metrics::per_layer`] derives each
//! layer's counts, busy and self times.  Nothing inside the program changes.

#![forbid(unsafe_code)]

pub mod decor;
pub mod epoch;
pub mod gates;
pub mod metrics;
pub mod scenario;
pub mod trace;
