//! Wire-to-alert replay benchmark for the xatu workspace.
//!
//! Generated NetFlow v5 datagrams are replayed one simulated minute at a
//! time through the program's public API — decode, binning, CDet with its
//! tracker feed, feature extraction and the booster fleet — in a closed
//! loop, with every output checked against values computed from the
//! generated records. See `README.md` for the workloads and metrics.

pub mod alloc;
pub mod checks;
pub mod cli;
pub mod replay;
pub mod setup;
pub mod short;
pub mod sys;
pub mod trace;
pub mod traffic;
pub mod workload;
