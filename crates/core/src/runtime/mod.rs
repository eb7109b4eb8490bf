//! The threaded runtime: cluster construction, per-node state, the protocol
//! service loop, and the application-facing [`Process`] handle.

pub mod cluster;
pub(crate) mod node;
pub mod process;
pub(crate) mod serve;

pub use cluster::run;
pub use process::{AppState, Process, SharedVec};
