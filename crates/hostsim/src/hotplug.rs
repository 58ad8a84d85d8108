//! Linux sparse-memory hotplug.
//!
//! "The logical attachment of disaggregated memory to a running Linux
//! kernel is performed using the Linux memory hotplug functionality […]
//! The only information needed to hotplug a memory section is its start
//! address in the physical address space where the compute endpoint is
//! mapped. The orchestration software […] passes this information to the
//! agent, which uses the memory hotplug subsystem to probe and online
//! the new memory."
//!
//! Sections move through the classic lifecycle:
//! `Absent → Present (offline) → Online → Offline → Absent`.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Section size (matches the RMMU and kernel sparse model: 256 MiB).
pub const SECTION_BYTES: u64 = 256 << 20;

/// Lifecycle state of one sparse section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SectionState {
    /// Probed (struct pages allocated) but not yet online.
    Present,
    /// Online: pages are in the allocator of the owning NUMA node.
    Online,
}

/// One present section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Section {
    /// Start real address (section aligned).
    pub start: u64,
    /// Lifecycle state.
    pub state: SectionState,
    /// The NUMA node the section belongs to.
    pub node: u32,
}

/// Hotplug errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotplugError {
    /// Start address not section aligned.
    Misaligned(u64),
    /// The section is already present.
    AlreadyPresent(u64),
    /// The section is not present.
    NotPresent(u64),
    /// Operation invalid in the current state (e.g. removing an online
    /// section).
    BadState(u64),
}

impl fmt::Display for HotplugError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotplugError::Misaligned(a) => write!(f, "address {a:#x} not section aligned"),
            HotplugError::AlreadyPresent(a) => write!(f, "section at {a:#x} already present"),
            HotplugError::NotPresent(a) => write!(f, "no section at {a:#x}"),
            HotplugError::BadState(a) => write!(f, "section at {a:#x} in wrong state"),
        }
    }
}

impl std::error::Error for HotplugError {}

/// The sparse-memory section registry of one host.
///
/// # Example
///
/// ```
/// use hostsim::hotplug::{SparseMemory, SectionState, SECTION_BYTES};
///
/// let mut mem = SparseMemory::new();
/// mem.probe(SECTION_BYTES * 4, 1)?; // node 1 = the CPU-less remote node
/// mem.online(SECTION_BYTES * 4)?;
/// assert_eq!(mem.online_bytes(1), SECTION_BYTES);
/// # Ok::<(), hostsim::hotplug::HotplugError>(())
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseMemory {
    sections: BTreeMap<u64, Section>,
    hotplug_events: u64,
}

impl SparseMemory {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_aligned(start: u64) -> Result<(), HotplugError> {
        if start % SECTION_BYTES != 0 {
            Err(HotplugError::Misaligned(start))
        } else {
            Ok(())
        }
    }

    /// Probes a section: allocates its metadata and assigns it to `node`.
    ///
    /// # Errors
    ///
    /// Fails on misaligned addresses or already-present sections.
    pub fn probe(&mut self, start: u64, node: u32) -> Result<(), HotplugError> {
        Self::check_aligned(start)?;
        if self.sections.contains_key(&start) {
            return Err(HotplugError::AlreadyPresent(start));
        }
        self.sections.insert(
            start,
            Section {
                start,
                state: SectionState::Present,
                node,
            },
        );
        self.hotplug_events += 1;
        Ok(())
    }

    /// Onlines a present section, making its pages allocatable.
    ///
    /// # Errors
    ///
    /// Fails if the section is absent or already online.
    pub fn online(&mut self, start: u64) -> Result<(), HotplugError> {
        let s = self
            .sections
            .get_mut(&start)
            .ok_or(HotplugError::NotPresent(start))?;
        if s.state == SectionState::Online {
            return Err(HotplugError::BadState(start));
        }
        s.state = SectionState::Online;
        self.hotplug_events += 1;
        Ok(())
    }

    /// Offlines an online section (pages must be migrated away first in a
    /// real kernel; the model treats that as instantaneous).
    ///
    /// # Errors
    ///
    /// Fails if the section is absent or already offline.
    pub fn offline(&mut self, start: u64) -> Result<(), HotplugError> {
        let s = self
            .sections
            .get_mut(&start)
            .ok_or(HotplugError::NotPresent(start))?;
        if s.state != SectionState::Online {
            return Err(HotplugError::BadState(start));
        }
        s.state = SectionState::Present;
        self.hotplug_events += 1;
        Ok(())
    }

    /// Removes an offline section entirely.
    ///
    /// # Errors
    ///
    /// Fails if the section is absent or still online.
    pub fn remove(&mut self, start: u64) -> Result<Section, HotplugError> {
        match self.sections.get(&start) {
            None => Err(HotplugError::NotPresent(start)),
            Some(s) if s.state == SectionState::Online => Err(HotplugError::BadState(start)),
            Some(_) => {
                self.hotplug_events += 1;
                Ok(self.sections.remove(&start).expect("checked present"))
            }
        }
    }

    /// The section covering `start`, if present.
    pub fn section(&self, start: u64) -> Option<Section> {
        self.sections.get(&start).copied()
    }

    /// Online bytes owned by a NUMA node.
    pub fn online_bytes(&self, node: u32) -> u64 {
        self.sections
            .values()
            .filter(|s| s.node == node && s.state == SectionState::Online)
            .count() as u64
            * SECTION_BYTES
    }

    /// All sections of a node, any state.
    pub fn sections_of(&self, node: u32) -> Vec<Section> {
        self.sections
            .values()
            .filter(|s| s.node == node)
            .copied()
            .collect()
    }

    /// Total hotplug operations performed.
    pub fn hotplug_events(&self) -> u64 {
        self.hotplug_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lifecycle() {
        let mut m = SparseMemory::new();
        let s = SECTION_BYTES * 8;
        m.probe(s, 2).unwrap();
        assert_eq!(m.section(s).unwrap().state, SectionState::Present);
        m.online(s).unwrap();
        assert_eq!(m.online_bytes(2), SECTION_BYTES);
        m.offline(s).unwrap();
        assert_eq!(m.online_bytes(2), 0);
        let sec = m.remove(s).unwrap();
        assert_eq!(sec.node, 2);
        assert!(m.section(s).is_none());
        assert_eq!(m.hotplug_events(), 4);
    }

    #[test]
    fn invalid_transitions_rejected() {
        let mut m = SparseMemory::new();
        let s = SECTION_BYTES;
        assert_eq!(m.online(s), Err(HotplugError::NotPresent(s)));
        m.probe(s, 0).unwrap();
        assert_eq!(m.offline(s), Err(HotplugError::BadState(s)));
        m.online(s).unwrap();
        assert_eq!(m.online(s), Err(HotplugError::BadState(s)));
        // Cannot remove while online.
        assert_eq!(m.remove(s), Err(HotplugError::BadState(s)));
        assert_eq!(m.probe(s, 0), Err(HotplugError::AlreadyPresent(s)));
    }

    #[test]
    fn misaligned_probe_rejected() {
        let mut m = SparseMemory::new();
        assert_eq!(m.probe(42, 0), Err(HotplugError::Misaligned(42)));
    }

    #[test]
    fn per_node_accounting() {
        let mut m = SparseMemory::new();
        for i in 0..4 {
            let s = SECTION_BYTES * i;
            m.probe(s, (i % 2) as u32).unwrap();
            m.online(s).unwrap();
        }
        assert_eq!(m.online_bytes(0), 2 * SECTION_BYTES);
        assert_eq!(m.online_bytes(1), 2 * SECTION_BYTES);
        assert_eq!(m.sections_of(0).len(), 2);
    }
}
