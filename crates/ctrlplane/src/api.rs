//! The control-plane access interface and the configuration objects
//! pushed to node agents.
//!
//! "The various remote memory allocation/deallocation interactions occur
//! via a REST API." Requests and responses are serde data types; the
//! JSON entry point is [`crate::service::ControlPlane::handle_json`].

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::auth::Token;

/// Parameters of an attachment request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttachSpec {
    /// The host that will *receive* the memory (compute role).
    pub compute_host: String,
    /// The host that will *donate* the memory (memory-stealing role).
    pub memory_host: String,
    /// Bytes of disaggregated memory (a multiple of the section size).
    pub bytes: u64,
    /// Whether to reserve two channels and enable bonding.
    pub bonded: bool,
}

/// A REST-style request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum Request {
    /// `POST /flows`
    Attach {
        /// Bearer token.
        token: Token,
        /// Attachment parameters.
        spec: AttachSpec,
    },
    /// `DELETE /flows/{id}`
    Detach {
        /// Bearer token.
        token: Token,
        /// The flow to tear down.
        flow: u64,
    },
    /// `GET /status`
    Status {
        /// Bearer token.
        token: Token,
    },
}

/// A REST-style response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum Response {
    /// Attachment succeeded.
    Attached {
        /// The new flow's handle.
        flow: u64,
        /// Bytes granted.
        bytes: u64,
        /// Channels reserved (1, or 2 when bonded).
        channels: u32,
    },
    /// Detachment succeeded.
    Detached {
        /// The flow that was torn down.
        flow: u64,
    },
    /// System status.
    Status {
        /// Live flows.
        flows: u64,
        /// Registered hosts.
        hosts: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable error code.
        code: String,
        /// Human-readable message.
        message: String,
    },
}

/// One RMMU section-table entry to program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionProgram {
    /// Section index in the compute endpoint's table.
    pub index: u64,
    /// Donor-side effective address the section maps to.
    pub remote_ea_base: u64,
    /// Network identifier of the active thymesisflow.
    pub network: u32,
    /// Whether the flow runs in bonding mode.
    pub bonded: bool,
}

/// Configuration pushed to the compute-side agent: hotplug a window of
/// this size and program these sections.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeConfig {
    /// Total bytes of the new window.
    pub window_bytes: u64,
    /// Section table programming.
    pub sections: Vec<SectionProgram>,
    /// Control-plane signature over [`ComputeConfig::payload`].
    pub signature: u64,
}

impl ComputeConfig {
    /// The canonical string the signature covers.
    pub fn payload(&self) -> String {
        let mut s = format!("compute:{}", self.window_bytes);
        for p in &self.sections {
            // Writing into a `String` cannot fail.
            let _ = write!(
                s,
                ":{}@{:x}/{}{}",
                p.index,
                p.remote_ea_base,
                p.network,
                if p.bonded { "b" } else { "" }
            );
        }
        s
    }
}

/// Configuration pushed to the memory-side agent: pin and register this
/// region under the PASID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// PASID of the stealing process.
    pub pasid: u32,
    /// Base effective address of the pinned region.
    pub ea_base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Control-plane signature over [`MemoryConfig::payload`].
    pub signature: u64,
}

impl MemoryConfig {
    /// The canonical string the signature covers.
    pub fn payload(&self) -> String {
        format!("memory:{}:{:x}:{}", self.pasid, self.ea_base, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let req = Request::Attach {
            token: Token("tok-1".into()),
            spec: AttachSpec {
                compute_host: "a".into(),
                memory_host: "b".into(),
                bytes: 1 << 30,
                bonded: true,
            },
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"attach\""));
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resp = Response::Error {
            code: "forbidden".into(),
            message: "insufficient privileges".into(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn payloads_are_canonical() {
        let mut cfg = ComputeConfig {
            window_bytes: 256 << 20,
            sections: vec![SectionProgram {
                index: 0,
                remote_ea_base: 0x1000,
                network: 3,
                bonded: true,
            }],
            signature: 0,
        };
        let p1 = cfg.payload();
        cfg.sections[0].network = 4;
        assert_ne!(p1, cfg.payload());
        // Several sections, bonded and unbonded: the exact bytes every
        // signature covers.
        let multi = ComputeConfig {
            window_bytes: 3 << 28,
            sections: vec![
                SectionProgram {
                    index: 0,
                    remote_ea_base: 0x1000_0000,
                    network: 7,
                    bonded: true,
                },
                SectionProgram {
                    index: 1,
                    remote_ea_base: 0x2000_0000,
                    network: 7,
                    bonded: false,
                },
                SectionProgram {
                    index: 12,
                    remote_ea_base: 0xab_cdef_0080,
                    network: 42,
                    bonded: true,
                },
            ],
            signature: 0,
        };
        assert_eq!(
            multi.payload(),
            "compute:805306368:0@10000000/7b:1@20000000/7:12@abcdef0080/42b"
        );
        let empty = ComputeConfig {
            window_bytes: 0,
            sections: Vec::new(),
            signature: 0,
        };
        assert_eq!(empty.payload(), "compute:0");
        let m = MemoryConfig {
            pasid: 1,
            ea_base: 0x2000,
            len: 128,
            signature: 0,
        };
        assert_eq!(m.payload(), "memory:1:2000:128");
    }
}
