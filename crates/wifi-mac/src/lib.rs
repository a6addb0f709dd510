//! # wifi-mac — 802.11n MAC model and ABC's Wi-Fi link-rate estimator
//!
//! The substrate standing in for the paper's OpenWrt/NETGEAR testbed
//! (§4.1, §6.1; see the crate map in `docs/ARCHITECTURE.md`):
//!
//! * [`mcs`] — the 802.11n MCS↔bitrate table and the index-variation
//!   schedules used in the evaluation (alternating 1↔7, Brownian \[3,7\]);
//! * [`estimator`] — Eqs. 5–8: extrapolating full-batch inter-ACK time
//!   from partial batches, sliding-window smoothing, 2×-rate cap;
//! * [`ap`] — the access-point node: A-MPDU batching, block-ACK timing,
//!   per-batch overhead h(t), with the estimator feeding the qdisc.

pub mod ap;
pub mod estimator;
pub mod mcs;

pub use ap::{OverheadModel, WifiAp, WifiApConfig};
pub use estimator::{BatchSample, EstimatorConfig, WifiRateEstimator};
pub use mcs::{mcs_rate, AlternatingMcs, BrownianMcs, FixedMcs, McsProcess, MCS_RATE_MBPS};
