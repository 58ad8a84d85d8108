//! The Fig. 2 pipeline stages as individually instantiable components.
//!
//! Each hardware block of the paper's datapath — M1 capture, RMMU
//! translate, router, LLC Tx/Rx pair, wire channel, circuit switch,
//! C1 master + donor DRAM — is one typed [`FabricComponent`] exposing
//! explicit input/output ports. The [`crate::fabric::Fabric`] engine
//! owns the instances and moves messages between them over the shared
//! `simkit` event queue; the component boundary is what lets the same
//! blocks be wired point-to-point, one-compute-to-N-donors, or through
//! a switching layer.

use llc::endpoint::{LlcRx, LlcTx};
use llc::flit::FlitSized;
use llc::LlcConfig;
use netsim::channel::Channel;
use netsim::switch::CircuitSwitch;
use opencapi::m1::{DeviceAddress, M1Endpoint, M1Error};
use opencapi::pasid::{Pasid, Region};
use opencapi::transaction::{MemRequest, MemResponse};
use rmmu::flow::NetworkId;
use rmmu::section::{RmmuError, SectionEntry, SectionTable, Translated};
use rmmu::RoutedRequest;
use routing::{ChannelId, RouteError, Router};
use simkit::time::SimTime;

use crate::endpoint::{EndpointError, MemoryStealingEndpoint};
use crate::fabric::port::{PortDir, PortSpec, PortUnit};

/// What kind of pipeline stage a component models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// OpenCAPI M1 window capture.
    M1Capture,
    /// RMMU section-table translation.
    RmmuTranslate,
    /// Per-network-id routing with channel bonding.
    Router,
    /// One direction's LLC Tx/Rx state-machine pair.
    LlcPair,
    /// A physical wire channel.
    Channel,
    /// The optional circuit-switching layer.
    CircuitSwitch,
    /// C1 master + donor DRAM.
    C1MasterDram,
}

/// A typed pipeline stage with explicit ports.
pub trait FabricComponent {
    /// Which stage this is.
    fn kind(&self) -> StageKind;
    /// The component's ports.
    fn ports(&self) -> Vec<PortSpec>;
}

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

/// M1 capture: the host-facing window attachment.
#[derive(Debug)]
pub struct M1Capture {
    m1: M1Endpoint,
}

impl M1Capture {
    /// A capture stage over the given device window.
    pub fn new(window: WindowSpec) -> Self {
        M1Capture {
            m1: M1Endpoint::new(window.base, window.bytes),
        }
    }

    /// Captures one host transaction into the device address space.
    ///
    /// # Errors
    ///
    /// Rejects transactions outside or misaligned within the window.
    pub fn accept(&mut self, req: &MemRequest) -> Result<DeviceAddress, M1Error> {
        self.m1.accept(req)
    }

    /// The window base real address.
    pub fn window_base(&self) -> u64 {
        self.m1.window_base()
    }
}

impl FabricComponent for M1Capture {
    fn kind(&self) -> StageKind {
        StageKind::M1Capture
    }

    fn ports(&self) -> Vec<PortSpec> {
        vec![
            PortSpec::new("host", PortDir::In, PortUnit::HostTransaction),
            PortSpec::new("captured", PortDir::Out, PortUnit::HostTransaction),
        ]
    }
}

/// RMMU translate: the section table.
#[derive(Debug)]
pub struct RmmuTranslate {
    table: SectionTable,
}

impl RmmuTranslate {
    /// A translate stage whose table covers the given window with
    /// default 256 MiB sections.
    pub fn new(window: WindowSpec) -> Self {
        RmmuTranslate {
            table: SectionTable::with_default_sections(window.bytes),
        }
    }

    /// Translates one captured address.
    ///
    /// # Errors
    ///
    /// Faults on unprogrammed sections.
    pub fn translate(&mut self, addr: DeviceAddress) -> Result<Translated, RmmuError> {
        self.table.translate(addr)
    }

    /// Programs one section.
    ///
    /// # Errors
    ///
    /// Propagates section-table failures (occupied, aliasing…).
    pub fn program(&mut self, index: u64, entry: SectionEntry) -> Result<(), RmmuError> {
        self.table.program(index, entry)
    }

    /// Clears one section.
    ///
    /// # Errors
    ///
    /// Fails on unmapped indices.
    pub fn unprogram(&mut self, index: u64) -> Result<SectionEntry, RmmuError> {
        self.table.unprogram(index)
    }

    /// The underlying section table (inspection).
    pub fn table(&self) -> &SectionTable {
        &self.table
    }
}

impl FabricComponent for RmmuTranslate {
    fn kind(&self) -> StageKind {
        StageKind::RmmuTranslate
    }

    fn ports(&self) -> Vec<PortSpec> {
        vec![
            PortSpec::new("captured", PortDir::In, PortUnit::HostTransaction),
            PortSpec::new("translated", PortDir::Out, PortUnit::RoutedTransaction),
        ]
    }
}

/// The routing stage: one output port per attached channel.
#[derive(Debug, Default)]
pub struct RouterStage {
    router: Router,
}

impl RouterStage {
    /// An empty routing stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a flow's route.
    ///
    /// # Errors
    ///
    /// Propagates routing-table failures.
    pub fn add_route(
        &mut self,
        network: NetworkId,
        channels: Vec<ChannelId>,
    ) -> Result<(), RouteError> {
        self.router.add_route(network, channels)
    }

    /// Removes a flow's route.
    ///
    /// # Errors
    ///
    /// Fails if no route exists.
    pub fn remove_route(&mut self, network: NetworkId) -> Result<(), RouteError> {
        self.router.remove_route(network)
    }

    /// Picks the channel for the next transaction of a flow.
    ///
    /// # Errors
    ///
    /// Fails on unrouted networks.
    pub fn forward(&mut self, network: NetworkId, bonded: bool) -> Result<ChannelId, RouteError> {
        self.router.forward(network, bonded)
    }

    /// The underlying router (inspection).
    pub fn router(&self) -> &Router {
        &self.router
    }
}

impl FabricComponent for RouterStage {
    fn kind(&self) -> StageKind {
        StageKind::Router
    }

    fn ports(&self) -> Vec<PortSpec> {
        let mut ports = vec![PortSpec::new(
            "translated",
            PortDir::In,
            PortUnit::RoutedTransaction,
        )];
        let mut channels: Vec<ChannelId> = self
            .router
            .networks()
            .into_iter()
            .flat_map(|n| {
                self.router
                    .channels_of(n)
                    .map(<[ChannelId]>::to_vec)
                    .unwrap_or_default()
            })
            .collect();
        channels.sort();
        channels.dedup();
        for ch in channels {
            ports.push(PortSpec::new(
                &format!("tx{}", ch.0),
                PortDir::Out,
                PortUnit::RoutedTransaction,
            ));
        }
        ports
    }
}

/// One direction's LLC Tx/Rx pair: the Tx lives at the sending endpoint,
/// the Rx at the receiving one; the wire ports in between connect to a
/// [`WireChannel`].
#[derive(Debug)]
pub struct LlcPair {
    pub(crate) tx: LlcTx<FabricMsg>,
    pub(crate) rx: LlcRx<FabricMsg>,
    unit: PortUnit,
}

impl LlcPair {
    pub(crate) fn new(config: LlcConfig, unit: PortUnit) -> Self {
        LlcPair {
            tx: LlcTx::new(config),
            rx: LlcRx::new(config),
            unit,
        }
    }
}

impl FabricComponent for LlcPair {
    fn kind(&self) -> StageKind {
        StageKind::LlcPair
    }

    fn ports(&self) -> Vec<PortSpec> {
        vec![
            PortSpec::new("offer", PortDir::In, self.unit),
            PortSpec::new("wire_out", PortDir::Out, PortUnit::Frame),
            PortSpec::new("wire_in", PortDir::In, PortUnit::Frame),
            PortSpec::new("deliver", PortDir::Out, self.unit),
        ]
    }
}

/// A physical wire channel (bonded serDES lanes + cable).
#[derive(Debug)]
pub struct WireChannel {
    pub(crate) chan: Channel,
}

impl WireChannel {
    pub(crate) fn new(chan: Channel) -> Self {
        WireChannel { chan }
    }

    /// The underlying channel (stats).
    pub fn channel(&self) -> &Channel {
        &self.chan
    }
}

impl FabricComponent for WireChannel {
    fn kind(&self) -> StageKind {
        StageKind::Channel
    }

    fn ports(&self) -> Vec<PortSpec> {
        vec![
            PortSpec::new("in", PortDir::In, PortUnit::Frame),
            PortSpec::new("out", PortDir::Out, PortUnit::Frame),
        ]
    }
}

/// The circuit-switching layer as a stage: one `in`/`out` port pair per
/// circuited switch port.
#[derive(Debug)]
pub struct SwitchStage {
    pub(crate) switch: CircuitSwitch,
}

impl SwitchStage {
    /// Wraps a circuit switch.
    pub fn new(switch: CircuitSwitch) -> Self {
        SwitchStage { switch }
    }

    /// The underlying switch (stats, circuit inspection).
    pub fn switch(&self) -> &CircuitSwitch {
        &self.switch
    }
}

impl FabricComponent for SwitchStage {
    fn kind(&self) -> StageKind {
        StageKind::CircuitSwitch
    }

    fn ports(&self) -> Vec<PortSpec> {
        let mut busy: Vec<u32> = (0..self.switch.port_count())
            .filter(|&p| self.switch.peer(netsim::switch::PortId(p)).is_some())
            .collect();
        busy.sort_unstable();
        let mut ports = Vec::with_capacity(busy.len() * 2);
        for p in busy {
            ports.push(PortSpec::new(&format!("p{p}_in"), PortDir::In, PortUnit::Frame));
            ports.push(PortSpec::new(&format!("p{p}_out"), PortDir::Out, PortUnit::Frame));
        }
        ports
    }
}

/// C1 master + donor DRAM: the memory-stealing endpoint of one donor.
#[derive(Debug)]
pub struct C1MasterDram {
    endpoint: MemoryStealingEndpoint,
    pasid: Pasid,
    lanes: usize,
}

impl C1MasterDram {
    /// A donor stage serving under `pasid` with the given DRAM latency.
    pub fn new(dram_latency: SimTime, pasid: Pasid) -> Self {
        C1MasterDram {
            endpoint: MemoryStealingEndpoint::new(dram_latency),
            pasid,
            lanes: 0,
        }
    }

    /// Registers the stolen region.
    ///
    /// # Errors
    ///
    /// Propagates PASID-table failures.
    pub fn register(&mut self, region: Region) -> Result<(), EndpointError> {
        self.endpoint.register(self.pasid, region)
    }

    /// Serves one arriving transaction; returns the completion instant.
    ///
    /// # Errors
    ///
    /// Rejects transactions outside the registered region.
    pub fn serve(
        &mut self,
        now: SimTime,
        routed: &RoutedRequest,
    ) -> Result<SimTime, EndpointError> {
        self.endpoint.serve(now, routed, self.pasid)
    }

    /// The PASID this donor serves under.
    pub fn pasid(&self) -> Pasid {
        self.pasid
    }

    /// Adds one request lane (the C1 DMA engine arbitrates between the
    /// links delivering into it); returns the lane's ordinal.
    pub(crate) fn add_lane(&mut self) -> usize {
        let lane = self.lanes;
        self.lanes += 1;
        lane
    }

    /// The underlying endpoint (C1 stats).
    pub fn endpoint(&self) -> &MemoryStealingEndpoint {
        &self.endpoint
    }
}

impl FabricComponent for C1MasterDram {
    fn kind(&self) -> StageKind {
        StageKind::C1MasterDram
    }

    fn ports(&self) -> Vec<PortSpec> {
        let mut out: Vec<PortSpec> = (0..self.lanes.max(1))
            .map(|l| {
                PortSpec::new(
                    &format!("request{l}"),
                    PortDir::In,
                    PortUnit::RoutedTransaction,
                )
            })
            .collect();
        out.push(PortSpec::new("response", PortDir::Out, PortUnit::Response));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ports_are_typed_and_directed() {
        let m1 = M1Capture::new(WindowSpec::reference(256 << 20));
        assert_eq!(m1.kind(), StageKind::M1Capture);
        assert_eq!(m1.ports().len(), 2);
        assert_eq!(m1.ports()[0].unit, PortUnit::HostTransaction);

        let up = LlcPair::new(LlcConfig::datapath_default(), PortUnit::RoutedTransaction);
        let specs = up.ports();
        assert_eq!(specs[0], PortSpec::new("offer", PortDir::In, PortUnit::RoutedTransaction));
        assert_eq!(specs[1], PortSpec::new("wire_out", PortDir::Out, PortUnit::Frame));

        let donor = C1MasterDram::new(SimTime::from_ns(105), Pasid(7));
        assert_eq!(donor.pasid(), Pasid(7));
        assert_eq!(donor.ports()[1].unit, PortUnit::Response);
    }

    #[test]
    fn router_stage_grows_tx_ports_with_routes() {
        let mut r = RouterStage::new();
        assert_eq!(r.ports().len(), 1);
        r.add_route(NetworkId(1), vec![ChannelId(0), ChannelId(1)]).unwrap();
        let names: Vec<String> = r.ports().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["translated", "tx0", "tx1"]);
    }

    #[test]
    fn switch_stage_exposes_circuited_ports_only() {
        let mut sw = CircuitSwitch::optical(8);
        sw.alloc_circuit(SimTime::ZERO).unwrap();
        let stage = SwitchStage::new(sw);
        let names: Vec<String> = stage.ports().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["p0_in", "p0_out", "p1_in", "p1_out"]);
    }
}
