//! Property tests: the indexed section table answers exactly like a
//! table that scans every entry.
//!
//! [`Reference`] is the section table without an index: aliasing,
//! free runs and per-network lookups walk all entries. Random sequences
//! of programs, unprograms, translations, free-run searches, lease-sized
//! runs and per-network teardowns run against both, on small tables and
//! on the default 4,096-section table, and every result must match,
//! down to the section an `Aliases` error names.

use opencapi::m1::DeviceAddress;
use proptest::prelude::*;
use rmmu::flow::NetworkId;
use rmmu::section::{RmmuError, SectionEntry, SectionTable, DEFAULT_SECTION_BITS};

/// The section table with every query a linear scan.
struct Reference {
    section_bits: u32,
    entries: Vec<Option<SectionEntry>>,
    translations: u64,
    faults: u64,
}

impl Reference {
    fn new(section_bits: u32, sections: u64) -> Self {
        Reference {
            section_bits,
            entries: vec![None; sections as usize],
            translations: 0,
            faults: 0,
        }
    }

    fn size(&self) -> u64 {
        1 << self.section_bits
    }

    fn program(&mut self, index: u64, entry: SectionEntry) -> Result<(), RmmuError> {
        let slot = self
            .entries
            .get(index as usize)
            .ok_or(RmmuError::BadIndex(index))?;
        if entry.remote_ea_base % 128 != 0 {
            return Err(RmmuError::Misaligned(entry.remote_ea_base));
        }
        if slot.is_some() {
            return Err(RmmuError::Occupied(index));
        }
        let size = self.size();
        for (i, other) in self.entries.iter().enumerate() {
            if let Some(o) = other {
                if o.network == entry.network
                    && entry.remote_ea_base < o.remote_ea_base + size
                    && o.remote_ea_base < entry.remote_ea_base + size
                {
                    return Err(RmmuError::Aliases {
                        with_section: i as u64,
                    });
                }
            }
        }
        self.entries[index as usize] = Some(entry);
        Ok(())
    }

    fn unprogram(&mut self, index: u64) -> Result<SectionEntry, RmmuError> {
        let slot = self
            .entries
            .get_mut(index as usize)
            .ok_or(RmmuError::BadIndex(index))?;
        slot.take().ok_or(RmmuError::Unmapped(index))
    }

    /// The translated `(remote EA, network, bonded, section)`.
    fn translate(&mut self, addr: u64) -> Result<(u64, NetworkId, bool, u64), RmmuError> {
        let index = addr >> self.section_bits;
        let Some(slot) = self.entries.get(index as usize) else {
            self.faults += 1;
            return Err(RmmuError::BadIndex(index));
        };
        let Some(e) = slot else {
            self.faults += 1;
            return Err(RmmuError::Unmapped(index));
        };
        self.translations += 1;
        let offset = addr & (self.size() - 1);
        Ok((e.remote_ea_base + offset, e.network, e.bonded, index))
    }

    fn first_free_run(&self, run: u64) -> Option<u64> {
        if run == 0 || run > self.entries.len() as u64 {
            return None;
        }
        let mut start = 0usize;
        let mut len = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            if e.is_none() {
                if len == 0 {
                    start = i;
                }
                len += 1;
                if len == run {
                    return Some(start as u64);
                }
            } else {
                len = 0;
            }
        }
        None
    }

    fn sections_of(&self, network: NetworkId) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Some(entry) if entry.network == network => Some(i as u64),
                _ => None,
            })
            .collect()
    }

    fn programmed(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|_| i as u64))
            .collect()
    }
}

/// One step of a random table history.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Program one section: index, remote base in quarter sections,
    /// network, bonded, misaligned by one byte.
    Program(u64, u64, u32, bool, bool),
    /// Clear one section.
    Unprogram(u64),
    /// Translate a device address (section index, cacheline within it).
    Translate(u64, u64),
    /// Search for a free run of this many sections.
    FreeRun(u64),
    /// List one network's sections.
    SectionsOf(u32),
    /// Carve a lease as the fabric does: find a free run of `len`
    /// sections and program them onto `network` from remote section
    /// `base` upward.
    Lease(u64, u32, u64),
    /// Tear one network down as the fabric's detach does.
    Teardown(u32),
}

/// Networks are few so that aliasing and shared teardowns are common.
const NETWORKS: u32 = 4;

/// A random op on a table of `sections` sections. Indices favour the
/// low end (where leases land) but also reach past the table's end.
fn op(sections: u64) -> impl Strategy<Value = Op> {
    let index = prop_oneof![0u64..16, 0u64..sections + 4];
    (
        0u64..8,
        index,
        0u64..64,
        0u32..NETWORKS,
        any::<bool>(),
        0u64..16,
    )
        .prop_map(move |(kind, index, n, net, flag, small)| match kind {
            0 | 1 => Op::Program(index, n, net, flag, small == 0),
            2 => Op::Unprogram(index),
            3 => Op::Translate(index, n << 15),
            4 => Op::FreeRun(if flag { small } else { n.min(sections + 1) }),
            5 => Op::SectionsOf(net),
            6 => Op::Lease(small % 8 + 1, net, n),
            _ => Op::Teardown(net),
        })
}

/// Replays `ops` on a fresh indexed table and a fresh reference, and
/// compares every answer.
fn equivalent(section_bits: u32, sections: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut table = SectionTable::new(section_bits, sections);
    let mut reference = Reference::new(section_bits, sections);
    let size = table.section_size();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Program(index, quarters, net, bonded, misaligned) => {
                let mut entry = SectionEntry::new(
                    quarters * (size / 4) + u64::from(misaligned),
                    NetworkId(net),
                );
                entry.bonded = bonded;
                prop_assert_eq!(
                    table.program(index, entry),
                    reference.program(index, entry),
                    "step {step}: {op:?}"
                );
            }
            Op::Unprogram(index) => {
                prop_assert_eq!(
                    table.unprogram(index),
                    reference.unprogram(index),
                    "step {step}: {op:?}"
                );
            }
            Op::Translate(index, offset) => {
                let addr = index * size + offset % size;
                let got = table
                    .translate(DeviceAddress::new(addr))
                    .map(|t| (t.remote_ea.as_u64(), t.network, t.bonded, t.section));
                prop_assert_eq!(got, reference.translate(addr), "step {step}: {op:?}");
            }
            Op::FreeRun(run) => {
                prop_assert_eq!(
                    table.first_free_run(run),
                    reference.first_free_run(run),
                    "step {step}: {op:?}"
                );
            }
            Op::SectionsOf(net) => {
                prop_assert_eq!(
                    table.sections_of(NetworkId(net)).to_vec(),
                    reference.sections_of(NetworkId(net)),
                    "step {step}: {op:?}"
                );
            }
            Op::Lease(len, net, base) => {
                let start = table.first_free_run(len);
                prop_assert_eq!(start, reference.first_free_run(len), "step {step}: {op:?}");
                if let Some(start) = start {
                    for i in 0..len {
                        let entry = SectionEntry::new((base + i) * size, NetworkId(net));
                        prop_assert_eq!(
                            table.program(start + i, entry),
                            reference.program(start + i, entry),
                            "step {step}: {op:?}, section {i}"
                        );
                    }
                }
            }
            Op::Teardown(net) => {
                let sections = table.sections_of(NetworkId(net)).to_vec();
                prop_assert_eq!(&sections, &reference.sections_of(NetworkId(net)));
                for s in sections {
                    prop_assert_eq!(table.unprogram(s), reference.unprogram(s));
                }
            }
        }
        prop_assert_eq!(
            table.programmed().to_vec(),
            reference.programmed(),
            "step {step}: {op:?}"
        );
        prop_assert_eq!(
            (table.translations(), table.faults()),
            (reference.translations, reference.faults),
            "step {step}: {op:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Small tables, where runs and the table's end collide often.
    #[test]
    fn indexed_table_matches_linear_scans_on_small_tables(
        sections in 1u64..13,
        ops in prop::collection::vec(op(12), 1..120),
    ) {
        equivalent(20, sections, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The default 4,096-section table the fabric carves leases from.
    #[test]
    fn indexed_table_matches_linear_scans_on_the_default_table(
        ops in prop::collection::vec(op(4096), 1..240),
    ) {
        equivalent(DEFAULT_SECTION_BITS, 4096, &ops)?;
    }
}

#[test]
fn aliasing_names_the_lowest_overlapping_section() {
    let mut t = SectionTable::new(28, 8);
    let size = t.section_size();
    // Section 5 programmed first, section 2 second: both overlap the
    // probe, and the lower index is the one reported.
    t.program(5, SectionEntry::new(4 * size, NetworkId(1)))
        .unwrap();
    t.program(2, SectionEntry::new(5 * size, NetworkId(1)))
        .unwrap();
    assert_eq!(
        t.program(0, SectionEntry::new(4 * size + size / 2, NetworkId(1))),
        Err(RmmuError::Aliases { with_section: 2 })
    );
}
