//! Breadth-First Depth-Next (BFDN): collaborative exploration of unknown
//! trees by `k` robots, after Cosson, Massoulié and Viennot (PODC 2023).
//!
//! The crate implements the paper's contribution end to end:
//!
//! * [`Bfdn`] — Algorithm 1 in the complete-communication model, with the
//!   Theorem 1 guarantee `2n/k + D²(min{log Δ, log k} + 3)`, and its
//!   break-down-robust variant (Proposition 7),
//! * [`WriteReadBfdn`] — Algorithm 2: the restricted-memory /
//!   write-read-communication implementation in which robots only talk to
//!   a central planner while standing at the root and use the local
//!   `PARTITION` routine elsewhere (Proposition 6),
//! * [`GraphBfdn`] — the non-tree extension with edge closing for robots
//!   that know their distance to the origin (Proposition 9),
//! * [`BfdnL`] — the recursive `BFDN_ℓ` built from depth-bounded BFDN
//!   instances through the divide-depth functor (Theorem 10),
//! * [`theorem1_bound`] and friends — the paper's guarantees as
//!   executable formulas, asserted by the test-suite on every run.
//!
//! # Quickstart
//!
//! ```
//! use bfdn::Bfdn;
//! use bfdn_sim::Simulator;
//! use bfdn_trees::generators;
//!
//! let tree = generators::comb(30, 5); // unknown to the robots
//! let k = 8;
//! let mut algo = Bfdn::new(k);
//! let outcome = Simulator::new(&tree, k).run(&mut algo)?;
//! assert!(
//!     (outcome.rounds as f64)
//!         <= bfdn::theorem1_bound(tree.len(), tree.depth(), k, tree.max_degree())
//! );
//! # Ok::<(), bfdn_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod complete;
mod graph;
mod recursive;
mod write_read;

pub use bounds::{
    lemma2_bound, offline_lower_bound, proposition7_bound, proposition9_bound, theorem10_bound,
    theorem1_bound, BoundMargins,
};
pub use complete::{Bfdn, BfdnBuilder, ReanchorRule, SelectionOrder};
pub use graph::{GraphBfdn, GraphError, GraphOutcome};
pub use recursive::BfdnL;
pub use write_read::WriteReadBfdn;
