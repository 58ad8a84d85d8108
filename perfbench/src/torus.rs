//! The 4×4 torus rack both rack workloads run on — the shape of
//! `workloads::fleet`, cabled row- and column-wise.

use thymesisflow_core::{NodeConfig, Rack, RackBuilder, RackError};

/// Torus side length.
pub const SIDE: usize = 4;

/// Host name of row `r`, column `c`.
pub fn node(r: usize, c: usize) -> String {
    format!("n{r}{c}")
}

/// Builds the torus rack.
pub fn build() -> Result<Rack, RackError> {
    let mut builder = RackBuilder::new();
    for r in 0..SIDE {
        for c in 0..SIDE {
            builder = builder.node(NodeConfig::ac922(&node(r, c)));
        }
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            builder = builder
                .cable(&node(r, c), &node(r, (c + 1) % SIDE))
                .cable(&node(r, c), &node((r + 1) % SIDE, c));
        }
    }
    builder.build()
}

/// Every host name, in row-major order.
pub fn hosts() -> Vec<String> {
    (0..SIDE * SIDE).map(|i| node(i / SIDE, i % SIDE)).collect()
}
