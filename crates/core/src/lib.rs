//! The paper's primary contribution: the multicast VOQ queue structure and
//! the FIFOMS scheduling algorithm.
//!
//! # The queue structure (paper §II)
//!
//! A traditional VOQ switch would need `2^N - 1` queues per input port to
//! handle multicast — one per possible destination set. The paper's
//! structure instead stores each packet's *data* once and its *addresses*
//! separately:
//!
//! * a [`DataCell`] holds the packet payload (here: metadata only) and a
//!   `fanout_counter` of destinations still to serve; data cells live in a
//!   per-input [`DataCellSlab`] and are destroyed when the counter hits 0;
//! * an [`AddressCell`] holds a `time_stamp` (the packet's arrival slot)
//!   and a pointer ([`DataCellKey`]) to its data cell; the `k` address
//!   cells of a fanout-`k` packet are appended to the `k` per-output
//!   [`Voq`]s of the input port.
//!
//! This brings the queue count per input back to `N` ([`VoqSet`]) while
//! storing each payload exactly once.
//!
//! Every address cell of a packet carries the packet's stamp and an input
//! admits at most one packet per slot, so each VOQ is stamp-ordered and
//! its head is the oldest live packet still destined to its output.
//! [`VoqSet`] therefore stores each input's live packets in age order,
//! each with its remaining destinations as a
//! [`PortSet`](fifoms_types::PortSet); a VOQ's address cells are derived
//! from that list ([`VoqSet::cells`]) and per output only the queue length
//! is counted.
//!
//! # The scheduler (paper §III)
//!
//! [`FifomsScheduler`] implements the iterative request/grant algorithm of
//! Table 2: free inputs request with their smallest-time-stamp HOL address
//! cells (all of which necessarily belong to one packet), free outputs
//! grant the smallest time stamp (random tie-break), and iteration
//! continues until no new pair matches. Over the age-ordered list a
//! request is one set intersection: the remaining destinations of the
//! input's oldest packet that still has a free output. There is no *accept* step — all of
//! an input's simultaneous grants reference the same data cell, which the
//! crossbar multicasts in one slot.
//!
//! [`MulticastVoqSwitch`] packages structure + scheduler behind the
//! workspace-wide [`fifoms_fabric::Switch`] trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
mod cell;
pub mod hardware;
mod port;
mod scheduler;
mod slab;
mod switch;
mod voq;

pub use buffer::{AdmissionPolicy, BufferConfig, SOFT_HIGH_WATER};
pub use cell::{AddressCell, DataCell, DataCellKey};
pub use port::{BoundedAdmission, EvictedCopy, InputPort};
pub use scheduler::{FifomsConfig, FifomsScheduler, ScheduleOutcome, TieBreak};
pub use slab::DataCellSlab;
pub use switch::MulticastVoqSwitch;
pub use voq::{Voq, VoqSet};
