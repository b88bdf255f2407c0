//! Root facade crate: re-exports for the examples and integration tests.
#![doc = "Reproduction of Self-Tuned Congestion Control for Multiprocessor Networks (HPCA 2001). See README.md."]
#![forbid(unsafe_code)]

pub use experiments;
pub use kncube;
pub use sideband;
pub use simstats;
pub use stcc;
pub use traffic;
pub use wormsim;
