//! The two ThymesisFlow endpoint roles assembled from their parts.
//!
//! * [`ComputeEndpoint`] — OpenCAPI **M1** attachment (captures the
//!   host's cacheline traffic in the firmware-assigned window), the
//!   **RMMU** (section-table translation + network-id tagging) and the
//!   **routing layer** (channel pick, round-robin when bonded).
//! * [`MemoryStealingEndpoint`] — OpenCAPI **C1** attachment mastering
//!   transactions into the donor's pinned region under its PASID. It is
//!   passive: "it does not modify the transactions, and does not need to
//!   receive any network information"; responses use the channel the
//!   request arrived from.
//!
//! [`crate::fabric::Fabric`] holds one [`ComputeEndpoint`] for all its
//! paths and a [`MemoryStealingEndpoint`] per donor, so
//! [`ComputeEndpoint::process`] is the one implementation of the
//! compute-side pipeline the datapath runs.

use std::fmt;

use opencapi::c1::{C1Error, C1Port};
use opencapi::m1::{M1Endpoint, M1Error};
use opencapi::pasid::{Pasid, PasidError, Region};
use opencapi::transaction::MemRequest;
use rmmu::section::{RmmuError, SectionEntry, SectionTable};
use rmmu::RoutedRequest;
use routing::{ChannelId, RouteError, Router};
use simkit::time::SimTime;

/// Errors crossing the compute endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointError {
    /// Rejected at the M1 window.
    M1(M1Error),
    /// Rejected by the RMMU (unmapped section, aliasing…).
    Rmmu(RmmuError),
    /// Rejected by the routing layer (no legal destination).
    Route(RouteError),
    /// Rejected at the memory-stealing side.
    C1(C1Error),
    /// The donor's PASID table refused a registration (misaligned
    /// region, PASID already registered).
    Pasid(PasidError),
}

impl fmt::Display for EndpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointError::M1(e) => write!(f, "m1: {e}"),
            EndpointError::Rmmu(e) => write!(f, "rmmu: {e}"),
            EndpointError::Route(e) => write!(f, "route: {e}"),
            EndpointError::C1(e) => write!(f, "c1: {e}"),
            EndpointError::Pasid(e) => write!(f, "pasid: {e}"),
        }
    }
}

impl std::error::Error for EndpointError {}

/// The compute (borrower) endpoint.
#[derive(Debug)]
pub struct ComputeEndpoint {
    m1: M1Endpoint,
    rmmu: SectionTable,
    router: Router,
}

impl ComputeEndpoint {
    /// Creates an endpoint for the firmware-assigned real-address
    /// window, with 256 MiB RMMU sections covering it.
    pub fn new(window_base: u64, window_len: u64) -> Self {
        ComputeEndpoint {
            m1: M1Endpoint::new(window_base, window_len),
            rmmu: SectionTable::with_default_sections(window_len),
            router: Router::new(),
        }
    }

    /// The RMMU (programming path).
    pub fn rmmu_mut(&mut self) -> &mut SectionTable {
        &mut self.rmmu
    }

    /// The RMMU (inspection).
    pub fn rmmu(&self) -> &SectionTable {
        &self.rmmu
    }

    /// The routing table (programming path).
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// Programs one section + its route in a single step (what the agent
    /// does when applying a `ComputeConfig`).
    ///
    /// # Errors
    ///
    /// Propagates RMMU or routing failures.
    pub fn program_section(
        &mut self,
        index: u64,
        entry: SectionEntry,
        channels: Vec<ChannelId>,
    ) -> Result<(), EndpointError> {
        self.rmmu.program(index, entry).map_err(EndpointError::Rmmu)?;
        // One route per flow; several sections share a flow.
        if self.router.channels_of(entry.network).is_none() {
            self.router
                .add_route(entry.network, channels)
                .map_err(EndpointError::Route)?;
        }
        Ok(())
    }

    /// The full Fig. 3 pipeline for one host transaction: M1 capture →
    /// device-internal rebase → RMMU translation → route pick. Returns
    /// the translated request and the channel to emit it on.
    ///
    /// # Errors
    ///
    /// Fails at whichever stage rejects the transaction; nothing is
    /// forwarded toward an illegal destination.
    pub fn process(
        &mut self,
        req: &MemRequest,
    ) -> Result<(RoutedRequest, ChannelId), EndpointError> {
        let dev = self.m1.accept(req).map_err(EndpointError::M1)?;
        let t = self.rmmu.translate(dev).map_err(EndpointError::Rmmu)?;
        let channel = self
            .router
            .forward(t.network, t.bonded)
            .map_err(EndpointError::Route)?;
        let mut out = *req;
        out.addr = t.remote_ea.as_u64();
        Ok((
            RoutedRequest {
                req: out,
                network: t.network,
                bonded: t.bonded,
            },
            channel,
        ))
    }
}

/// The memory-stealing (donor) endpoint.
#[derive(Debug)]
pub struct MemoryStealingEndpoint {
    c1: C1Port,
    dram_latency: SimTime,
}

impl MemoryStealingEndpoint {
    /// Creates an endpoint over a donor with the given DRAM latency.
    pub fn new(dram_latency: SimTime) -> Self {
        MemoryStealingEndpoint {
            c1: C1Port::new(),
            dram_latency,
        }
    }

    /// Registers a stolen region (the stealing process's PASID).
    ///
    /// # Errors
    ///
    /// Propagates PASID-table failures.
    pub fn register(&mut self, pasid: Pasid, region: Region) -> Result<(), EndpointError> {
        self.c1.register(pasid, region).map_err(EndpointError::Pasid)
    }

    /// Serves one arriving transaction: C1 masters it into the pinned
    /// region and DRAM answers. Returns the completion instant.
    ///
    /// # Errors
    ///
    /// Rejects transactions outside any registered region.
    pub fn serve(
        &mut self,
        now: SimTime,
        routed: &RoutedRequest,
        pasid: Pasid,
    ) -> Result<SimTime, EndpointError> {
        let done = self
            .c1
            .master(now, &routed.req, pasid)
            .map_err(EndpointError::C1)?;
        Ok(done + self.dram_latency)
    }

    /// The C1 port (stats).
    pub fn c1(&self) -> &C1Port {
        &self.c1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmmu::flow::NetworkId;

    const WINDOW: u64 = 0x1000_0000_0000;
    const GIB: u64 = 1 << 30;

    fn programmed_endpoint() -> ComputeEndpoint {
        let mut ep = ComputeEndpoint::new(WINDOW, GIB);
        for i in 0..4 {
            ep.program_section(
                i,
                SectionEntry::new(0x7000_0000_0000 + i * (256 << 20), NetworkId(1)).bonded(),
                vec![ChannelId(0), ChannelId(1)],
            )
            .unwrap();
        }
        ep
    }

    #[test]
    fn pipeline_translates_and_routes() {
        let mut ep = programmed_endpoint();
        let req = MemRequest::read(1, WINDOW + (256 << 20) + 0x80);
        let (routed, ch) = ep.process(&req).unwrap();
        assert_eq!(routed.req.addr, 0x7000_0000_0000 + (256u64 << 20) + 0x80);
        assert_eq!(routed.network, NetworkId(1));
        assert!(routed.bonded);
        assert_eq!(ch, ChannelId(0));
        // Bonded: the next transaction takes the other channel.
        let (_, ch2) = ep.process(&req).unwrap();
        assert_eq!(ch2, ChannelId(1));
    }

    #[test]
    fn illegal_destinations_fail_at_each_stage() {
        let mut ep = programmed_endpoint();
        // Outside the window: M1 rejects.
        assert!(matches!(
            ep.process(&MemRequest::read(0, 0x80)),
            Err(EndpointError::M1(_))
        ));
        // Misaligned: M1 rejects.
        assert!(matches!(
            ep.process(&MemRequest::read(0, WINDOW + 4)),
            Err(EndpointError::M1(_))
        ));
        // Unprogrammed section: RMMU faults.
        let mut ep2 = ComputeEndpoint::new(WINDOW, GIB);
        assert!(matches!(
            ep2.process(&MemRequest::read(0, WINDOW + 0x80)),
            Err(EndpointError::Rmmu(_))
        ));
    }

    #[test]
    fn donor_serves_registered_region_only() {
        let mut mem = MemoryStealingEndpoint::new(SimTime::from_ns(105));
        mem.register(
            Pasid(3),
            Region {
                ea_base: 0x7000_0000_0000,
                len: GIB,
            },
        )
        .unwrap();
        let ok = RoutedRequest {
            req: MemRequest::read(0, 0x7000_0000_0080),
            network: NetworkId(1),
            bonded: false,
        };
        let done = mem.serve(SimTime::ZERO, &ok, Pasid(3)).unwrap();
        assert!(done >= SimTime::from_ns(105));
        let bad = RoutedRequest {
            req: MemRequest::read(0, 0x80),
            network: NetworkId(1),
            bonded: false,
        };
        assert!(mem.serve(SimTime::ZERO, &bad, Pasid(3)).is_err());
        assert_eq!(mem.c1().mastered(), 1);
        assert_eq!(mem.c1().faulted(), 1);
    }

    #[test]
    fn refused_registrations_report_the_pasid_table_error() {
        let mut mem = MemoryStealingEndpoint::new(SimTime::from_ns(105));
        let region = Region {
            ea_base: 0x7000_0000_0000,
            len: GIB,
        };
        let misaligned = Region {
            ea_base: region.ea_base + 4,
            ..region
        };
        assert_eq!(
            mem.register(Pasid(3), misaligned),
            Err(EndpointError::Pasid(PasidError::Misaligned))
        );
        mem.register(Pasid(3), region).unwrap();
        assert_eq!(
            mem.register(Pasid(3), region),
            Err(EndpointError::Pasid(PasidError::AlreadyRegistered(Pasid(3))))
        );
    }
}
