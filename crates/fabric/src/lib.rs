//! Multicast crossbar fabric model and the switch abstraction.
//!
//! The paper's switch model (§I, §IV-A) is an `N×N` crossbar whose
//! crosspoints can connect one input to *several* outputs simultaneously —
//! the "built-in multicast capability" FIFOMS exploits — while each output
//! may be driven by at most one input per slot.
//!
//! This crate provides:
//!
//! * [`CrossbarSchedule`] — a per-slot connection pattern with the fabric's
//!   legality rules enforced at construction time;
//! * [`Crossbar`] — applies schedules and accumulates fabric-level
//!   accounting (crosspoint settings, multicast usage);
//! * [`SpeedupFabric`] — a fabric that can run `S` transfer phases per
//!   slot, used to demonstrate why output-queued switches need internal
//!   speedup `N` (§I);
//! * [`Switch`] — the trait every queueing discipline in this workspace
//!   implements (multicast-VOQ/FIFOMS, iSLIP, TATRA, OQ-FIFO, ...), which
//!   is what the simulation engine drives;
//! * [`Layer`] — the trait every switch wrapper implements instead
//!   ([`CheckedSwitch`], [`FaultyFabric`], [`InstrumentedSwitch`]): it
//!   forwards each `Switch` method to the inner switch unless the layer
//!   overrides it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checked;
mod crossbar;
mod faults;
mod instrument;
mod schedule;
mod scoreboard;
mod speedup;
mod switch;

pub use checked::CheckedSwitch;
pub use crossbar::{Crossbar, FabricStats};
pub use faults::{FaultConfig, FaultMode, FaultStats, FaultyFabric};
pub use instrument::{InstrumentedSwitch, PacketTraceMode};
pub use scoreboard::FaultScoreboard;
pub use schedule::{CrossbarSchedule, ScheduleBuilder, ScheduleError};
pub use speedup::SpeedupFabric;
pub use switch::{Backlog, Layer, Switch};
