//! The composable flit-level fabric.
//!
//! The paper's Fig. 2 blocks held directly by an engine that executes
//! the datapath over one shared `simkit` event queue ([`engine`]): one
//! [`crate::endpoint::ComputeEndpoint`] (M1 capture → RMMU translate →
//! router), per-link LLC pairs ([`stage`]) and wire channels, an
//! optional circuit switch and per-donor memory-stealing endpoints. A
//! builder ([`builder`]) assembles arbitrary topologies: point-to-point
//! (the reference shape, event-for-event equivalent to the pre-fabric
//! monolithic datapath), one compute × N donors with per-network-id
//! fan-out, and a circuit-switched rack. The wiring lives in the
//! engine's own state — link slots, routes and switch circuits — not in
//! a separate graph.
//!
//! Paths are dynamic: [`Fabric::attach_path`] instantiates the
//! flit-level plumbing for one lease (section-table entries, router
//! route, LLC pairs, channels, switch circuits) and
//! [`Fabric::detach_path`] tears it down without perturbing surviving
//! paths — this is what `Rack::attach` leases are wired through.

pub mod builder;
pub mod chaos;
pub mod engine;
pub mod obs;
pub mod partition;
pub mod stage;
mod tag_ring;
pub mod trace;

pub use builder::FabricBuilder;
pub use partition::{FabricShard, PartitionedFabric, ShardDigest, ShardMsg, WorkloadSpec};
pub use chaos::{ChaosEvent, ChaosPlan, FaultKind, LinkRef, LoadFault, RecoveryConfig};
pub use engine::{Completion, Fabric, FabricError, LinkStats, PathId, PathSpec, StreamLoad};
pub use obs::{
    CongestionReport, Journal, JournalKind, JournalRecord, LinkCongestion, SloBreach,
    SloBreachKind, SloSpec,
};
pub use trace::{
    chrome_trace, chrome_trace_json, BreakdownRow, ComponentId, FlitTrace, HopKind,
    LatencyBreakdown, SerdesSite, Span, StackSite, TraceId, WireDir,
};
pub use stage::{LlcPair, WindowSpec};
