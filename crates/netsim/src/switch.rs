//! A circuit switch for point-to-multipoint topologies.
//!
//! The paper's §VII argues that, with current technology, rack-scale
//! disaggregation tolerates *at most one switching layer*; a circuit
//! switch gives congestion-free paths at the price of reconfiguration
//! latency and port-count limits. This model captures exactly those
//! trade-offs for the control plane to reason about.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};
use simkit::time::SimTime;

/// A switch port identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct PortId(pub u32);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Errors returned by switch operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchError {
    /// The referenced port does not exist on this switch.
    UnknownPort(PortId),
    /// One of the ports already participates in a circuit.
    PortBusy(PortId),
    /// The two endpoints of a circuit must differ.
    SelfLoop(PortId),
    /// No circuit exists between the given ports.
    NoCircuit(PortId),
    /// Fewer than two ports remain free; the switch cannot host another
    /// circuit (the §VII port-count scalability wall).
    Exhausted,
    /// The port has been marked failed and cannot carry circuits until
    /// repaired.
    PortFailed(PortId),
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::UnknownPort(p) => write!(f, "unknown switch port {p}"),
            SwitchError::PortBusy(p) => write!(f, "switch port {p} already in a circuit"),
            SwitchError::SelfLoop(p) => write!(f, "cannot connect {p} to itself"),
            SwitchError::NoCircuit(p) => write!(f, "no circuit established on {p}"),
            SwitchError::Exhausted => write!(f, "no two free ports left"),
            SwitchError::PortFailed(p) => write!(f, "switch port {p} is failed"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// A non-blocking circuit switch with a fixed port count.
///
/// Circuits are bidirectional port pairs. Establishing or tearing down a
/// circuit costs [`CircuitSwitch::reconfiguration_latency`]; traversal
/// costs [`CircuitSwitch::traversal_latency`].
///
/// # Example
///
/// ```
/// use netsim::switch::{CircuitSwitch, PortId};
/// use simkit::time::SimTime;
///
/// let mut sw = CircuitSwitch::new(8, SimTime::from_us(20), SimTime::from_ns(35));
/// let ready = sw.connect(PortId(0), PortId(5), SimTime::ZERO)?;
/// assert_eq!(ready.as_us(), 20);
/// assert_eq!(sw.peer(PortId(0)), Some(PortId(5)));
/// # Ok::<(), netsim::switch::SwitchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CircuitSwitch {
    ports: u32,
    circuits: BTreeMap<PortId, PortId>,
    failed: BTreeSet<PortId>,
    reconfig: SimTime,
    traversal: SimTime,
    reconfigurations: u64,
}

impl CircuitSwitch {
    /// Creates a switch with `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports < 2`.
    pub fn new(ports: u32, reconfiguration: SimTime, traversal: SimTime) -> Self {
        assert!(ports >= 2, "a switch needs at least two ports");
        CircuitSwitch {
            ports,
            circuits: BTreeMap::new(),
            failed: BTreeSet::new(),
            reconfig: reconfiguration,
            traversal,
            reconfigurations: 0,
        }
    }

    /// An optical circuit switch with microsecond-scale reconfiguration
    /// (the §VII discussion of ns/µs-scale all-optical switches).
    pub fn optical(ports: u32) -> Self {
        Self::new(ports, SimTime::from_us(25), SimTime::from_ns(30))
    }

    /// Latency to (re)configure a circuit.
    pub fn reconfiguration_latency(&self) -> SimTime {
        self.reconfig
    }

    /// Per-frame traversal latency of an established circuit.
    pub fn traversal_latency(&self) -> SimTime {
        self.traversal
    }

    fn check_port(&self, p: PortId) -> Result<(), SwitchError> {
        if p.0 >= self.ports {
            Err(SwitchError::UnknownPort(p))
        } else {
            Ok(())
        }
    }

    fn check_usable(&self, p: PortId) -> Result<(), SwitchError> {
        self.check_port(p)?;
        if self.failed.contains(&p) {
            Err(SwitchError::PortFailed(p))
        } else {
            Ok(())
        }
    }

    /// Marks a port failed: any circuit through it is torn down (one
    /// reconfiguration) and the port is excluded from future circuits
    /// until [`CircuitSwitch::repair_port`]. Returns the orphaned peer
    /// port, if a circuit was cut.
    ///
    /// # Errors
    ///
    /// Fails if the port is unknown.
    pub fn fail_port(&mut self, p: PortId) -> Result<Option<PortId>, SwitchError> {
        self.check_port(p)?;
        self.failed.insert(p);
        let peer = self.circuits.remove(&p);
        if let Some(peer) = peer {
            self.circuits.remove(&peer);
            self.reconfigurations += 1;
        }
        Ok(peer)
    }

    /// Returns a failed port to service.
    ///
    /// # Errors
    ///
    /// Fails if the port is unknown.
    pub fn repair_port(&mut self, p: PortId) -> Result<(), SwitchError> {
        self.check_port(p)?;
        self.failed.remove(&p);
        Ok(())
    }

    /// Whether a port is currently marked failed.
    pub fn is_port_failed(&self, p: PortId) -> bool {
        self.failed.contains(&p)
    }

    /// Ports currently marked failed, in ascending order.
    pub fn failed_ports(&self) -> Vec<PortId> {
        self.failed.iter().copied().collect()
    }

    /// Establishes a bidirectional circuit; returns the instant it is
    /// usable.
    ///
    /// # Errors
    ///
    /// Fails if a port is unknown, busy, or `a == b`.
    pub fn connect(&mut self, a: PortId, b: PortId, now: SimTime) -> Result<SimTime, SwitchError> {
        self.check_usable(a)?;
        self.check_usable(b)?;
        if a == b {
            return Err(SwitchError::SelfLoop(a));
        }
        if self.circuits.contains_key(&a) {
            return Err(SwitchError::PortBusy(a));
        }
        if self.circuits.contains_key(&b) {
            return Err(SwitchError::PortBusy(b));
        }
        self.circuits.insert(a, b);
        self.circuits.insert(b, a);
        self.reconfigurations += 1;
        Ok(now + self.reconfig)
    }

    /// Tears down the circuit on `p`; returns the instant the ports are
    /// free again.
    ///
    /// # Errors
    ///
    /// Fails if the port is unknown or has no circuit.
    pub fn disconnect(&mut self, p: PortId, now: SimTime) -> Result<SimTime, SwitchError> {
        self.check_port(p)?;
        let peer = self.circuits.remove(&p).ok_or(SwitchError::NoCircuit(p))?;
        self.circuits.remove(&peer);
        self.reconfigurations += 1;
        Ok(now + self.reconfig)
    }

    /// Picks the two lowest-numbered free ports and circuits them;
    /// returns the port pair and the instant the circuit is usable.
    /// This is what a fabric attach does when it routes a flit path
    /// through the switching layer.
    ///
    /// # Errors
    ///
    /// Fails with [`SwitchError::Exhausted`] when fewer than two ports
    /// are free.
    pub fn alloc_circuit(
        &mut self,
        now: SimTime,
    ) -> Result<(PortId, PortId, SimTime), SwitchError> {
        let mut free = (0..self.ports)
            .map(PortId)
            .filter(|p| !self.circuits.contains_key(p) && !self.failed.contains(p));
        let (a, b) = match (free.next(), free.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(SwitchError::Exhausted),
        };
        let ready = self.connect(a, b, now)?;
        Ok((a, b, ready))
    }

    /// The port currently circuited to `p`, if any.
    pub fn peer(&self, p: PortId) -> Option<PortId> {
        self.circuits.get(&p).copied()
    }

    /// Number of established circuits.
    pub fn circuit_count(&self) -> usize {
        self.circuits.len() / 2
    }

    /// Ports with no circuit and not marked failed.
    pub fn free_ports(&self) -> Vec<PortId> {
        (0..self.ports)
            .map(PortId)
            .filter(|p| !self.circuits.contains_key(p) && !self.failed.contains(p))
            .collect()
    }

    /// Total reconfiguration operations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw() -> CircuitSwitch {
        CircuitSwitch::new(4, SimTime::from_us(10), SimTime::from_ns(30))
    }

    #[test]
    fn connect_and_traverse() {
        let mut s = sw();
        let ready = s.connect(PortId(0), PortId(1), SimTime::ZERO).unwrap();
        assert_eq!(ready.as_us(), 10);
        assert_eq!(s.peer(PortId(0)), Some(PortId(1)));
        assert_eq!(s.peer(PortId(1)), Some(PortId(0)));
        assert_eq!(s.circuit_count(), 1);
    }

    #[test]
    fn busy_port_rejected() {
        let mut s = sw();
        s.connect(PortId(0), PortId(1), SimTime::ZERO).unwrap();
        assert_eq!(
            s.connect(PortId(0), PortId(2), SimTime::ZERO),
            Err(SwitchError::PortBusy(PortId(0)))
        );
        assert_eq!(
            s.connect(PortId(3), PortId(1), SimTime::ZERO),
            Err(SwitchError::PortBusy(PortId(1)))
        );
    }

    #[test]
    fn disconnect_frees_both_ports() {
        let mut s = sw();
        s.connect(PortId(2), PortId(3), SimTime::ZERO).unwrap();
        s.disconnect(PortId(3), SimTime::ZERO).unwrap();
        assert_eq!(s.peer(PortId(2)), None);
        assert_eq!(s.circuit_count(), 0);
        assert_eq!(s.free_ports().len(), 4);
    }

    #[test]
    fn port_count_limits_scalability() {
        // The §VII argument: a node can only reach as many neighbours as
        // it has ports, unless the switch reconfigures.
        let mut s = sw();
        s.connect(PortId(0), PortId(1), SimTime::ZERO).unwrap();
        s.connect(PortId(2), PortId(3), SimTime::ZERO).unwrap();
        assert!(s.free_ports().is_empty());
    }

    #[test]
    fn alloc_circuit_takes_lowest_free_pair_until_exhausted() {
        let mut s = sw();
        let (a, b, ready) = s.alloc_circuit(SimTime::ZERO).unwrap();
        assert_eq!((a, b), (PortId(0), PortId(1)));
        assert_eq!(ready, SimTime::from_us(10));
        let (c, d, _) = s.alloc_circuit(SimTime::ZERO).unwrap();
        assert_eq!((c, d), (PortId(2), PortId(3)));
        assert_eq!(s.alloc_circuit(SimTime::ZERO), Err(SwitchError::Exhausted));
        // Disconnecting frees the pair for re-allocation.
        s.disconnect(PortId(0), SimTime::ZERO).unwrap();
        assert_eq!(
            s.alloc_circuit(SimTime::ZERO).map(|(a, b, _)| (a, b)),
            Ok((PortId(0), PortId(1)))
        );
    }

    #[test]
    fn failed_port_cuts_circuit_and_blocks_reuse() {
        let mut s = sw();
        s.connect(PortId(0), PortId(1), SimTime::ZERO).unwrap();
        // Failing a circuited port orphans its peer.
        assert_eq!(s.fail_port(PortId(0)), Ok(Some(PortId(1))));
        assert_eq!(s.peer(PortId(1)), None);
        assert_eq!(s.circuit_count(), 0);
        assert!(s.is_port_failed(PortId(0)));
        assert_eq!(s.failed_ports(), vec![PortId(0)]);
        // The failed port rejects new circuits; allocation routes around.
        assert_eq!(
            s.connect(PortId(0), PortId(2), SimTime::ZERO),
            Err(SwitchError::PortFailed(PortId(0)))
        );
        let (a, b, _) = s.alloc_circuit(SimTime::ZERO).unwrap();
        assert_eq!((a, b), (PortId(1), PortId(2)));
        assert_eq!(s.free_ports(), vec![PortId(3)]);
        // Repair returns it to the free pool.
        s.repair_port(PortId(0)).unwrap();
        assert!(!s.is_port_failed(PortId(0)));
        assert_eq!(s.free_ports(), vec![PortId(0), PortId(3)]);
    }

    #[test]
    fn failing_an_idle_port_orphans_nobody() {
        let mut s = sw();
        assert_eq!(s.fail_port(PortId(2)), Ok(None));
        assert_eq!(s.fail_port(PortId(9)), Err(SwitchError::UnknownPort(PortId(9))));
        // Enough failures exhaust the switch.
        s.fail_port(PortId(0)).unwrap();
        s.fail_port(PortId(1)).unwrap();
        assert_eq!(s.alloc_circuit(SimTime::ZERO), Err(SwitchError::Exhausted));
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            SwitchError::UnknownPort(PortId(9)).to_string(),
            "unknown switch port port9"
        );
        assert_eq!(
            sw().connect(PortId(0), PortId(9), SimTime::ZERO),
            Err(SwitchError::UnknownPort(PortId(9)))
        );
        assert_eq!(
            sw().connect(PortId(1), PortId(1), SimTime::ZERO),
            Err(SwitchError::SelfLoop(PortId(1)))
        );
        assert_eq!(
            sw().disconnect(PortId(1), SimTime::ZERO),
            Err(SwitchError::NoCircuit(PortId(1)))
        );
    }
}
