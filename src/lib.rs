//! # abc-repro — a reproduction of *ABC: A Simple Explicit Congestion
//! Controller for Wireless Networks* (NSDI 2020)
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`netsim`] — the deterministic discrete-event network simulator;
//! * [`abc_core`] — the ABC sender, router, and coexistence machinery;
//! * [`baselines`] — Cubic, NewReno, Vegas, BBR, Copa, PCC-Vivace,
//!   Sprout-like, Verus-like;
//! * [`explicit`] — XCP/XCPw, RCP, VCP;
//! * [`aqm`] — CoDel, PIE;
//! * [`wifi_mac`] — the 802.11n A-MPDU MAC model and ABC's link-rate
//!   estimator;
//! * [`cellular`] — Mahimahi trace parsing and synthetic carrier traces;
//! * [`experiments`] — the scenario engine;
//! * [`campaign`] — declarative sweep orchestration, the JSONL results
//!   store, aggregation, regression gating, and every figure.
//!
//! Start with `examples/quickstart.rs`, then `docs/ARCHITECTURE.md` for
//! the system inventory and the README for how to regenerate and verify
//! the paper's figures.

pub use abc_core;
pub use aqm;
pub use baselines;
pub use campaign;
pub use cellular;
pub use experiments;
pub use explicit;
pub use netsim;
pub use wifi_mac;

/// Crate-level smoke check used by the docs: the whole stack is linked.
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

#[cfg(test)]
mod tests {
    #[test]
    fn stack_links() {
        assert!(!super::version().is_empty());
        // one symbol from each member crate
        let _ = netsim::Rate::from_mbps(1.0);
        let _ = abc_core::AbcSenderConfig::default();
        let _ = baselines::Cubic::new();
        let _ = explicit::XcpSender::new();
        let _ = aqm::CodelConfig::default();
        let _ = wifi_mac::MCS_RATE_MBPS;
        assert_eq!(cellular::builtin_specs().len(), 8);
        assert_eq!(experiments::figures::Scale::Tiny.pick(1, 2, 3), 3);
        assert!(campaign::figures::all().len() >= 20);
    }
}
