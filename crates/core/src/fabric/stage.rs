//! The fabric's own datapath types, beside the paper blocks it holds.
//!
//! The engine ([`crate::fabric::Fabric`]) holds the Fig. 2 blocks
//! directly: one [`crate::endpoint::ComputeEndpoint`] (M1 capture → RMMU
//! translate → router), per-link [`LlcPair`]s and
//! [`netsim::channel::Channel`]s, an optional
//! [`netsim::switch::CircuitSwitch`], and per donor a
//! [`crate::endpoint::MemoryStealingEndpoint`] with its PASID. This
//! module adds what only the fabric needs: where the compute window sits
//! ([`WindowSpec`]), the message type crossing an LLC pair, and the pair
//! itself. Messages move between the blocks over the shared `simkit`
//! event queue, which is what lets the same blocks be wired
//! point-to-point, one-compute-to-N-donors, or through a switching
//! layer.

use llc::endpoint::{LlcRx, LlcTx};
use llc::flit::FlitSized;
use llc::LlcConfig;
use opencapi::transaction::MemResponse;
use rmmu::RoutedRequest;

/// The device-window placement of a compute endpoint: where the
/// firmware maps the M1 window and how many bytes of device address
/// space it spans (whole 256 MiB sections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window base real address.
    pub base: u64,
    /// Window capacity in bytes.
    pub bytes: u64,
}

impl WindowSpec {
    /// The reference placement the pre-fabric datapath hardwired:
    /// base `0x1000_0000_0000`, sized exactly to one attachment.
    pub fn reference(bytes: u64) -> Self {
        WindowSpec {
            base: 0x1000_0000_0000,
            bytes,
        }
    }

    /// The rack placement: the same base with 1 TiB of device address
    /// space for leases to carve non-aliasing windows out of.
    pub fn rack_default() -> Self {
        WindowSpec {
            base: 0x1000_0000_0000,
            bytes: 1 << 40,
        }
    }
}

/// Messages crossing an LLC pair: requests toward the donor, responses
/// back toward the compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FabricMsg {
    Req(RoutedRequest),
    Resp(MemResponse),
}

impl FlitSized for FabricMsg {
    fn flits(&self) -> usize {
        match self {
            FabricMsg::Req(r) => r.flits(),
            FabricMsg::Resp(r) => r.flits(),
        }
    }
}

/// One direction's LLC Tx/Rx pair: the Tx lives at the sending endpoint,
/// the Rx at the receiving one, and a [`netsim::channel::Channel`] carries
/// the frames in between.
#[derive(Debug)]
pub struct LlcPair {
    pub(crate) tx: LlcTx<FabricMsg>,
    pub(crate) rx: LlcRx<FabricMsg>,
}

impl LlcPair {
    pub(crate) fn new(config: LlcConfig) -> Self {
        LlcPair {
            tx: LlcTx::new(config),
            rx: LlcRx::new(config),
        }
    }
}
