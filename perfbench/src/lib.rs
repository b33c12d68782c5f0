//! Seeded benchmark of the FIFOMS simulator: end-to-end slots per host
//! second through the engine's public entry points, and per-layer costs
//! from a traced copy of the engine's slot loop. See `README.md`.

pub mod alloc;
pub mod calibrate;
pub mod host;
pub mod report;
pub mod run;
pub mod shim;
pub mod traced;
pub mod tracer;
pub mod workload;
