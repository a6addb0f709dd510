//! ABC's Wi-Fi link-rate estimator (§4.1) in action: the 802.11n MAC model
//! transmits A-MPDU batches while a non-backlogged sender offers varying
//! loads, and the estimator recovers the full-batch capacity from partial
//! batches (Eqs. 5–8).
//!
//! ```sh
//! cargo run --release --example wifi_link_estimation
//! ```
//!
//! `ScenarioSpec::wifi` and `estimator_accuracy` run on the scenario
//! engine's Wi-Fi topology; the estimator internals are reached through
//! `BuiltScenario::wifi_ap_mut`.

use abc_repro::experiments::{estimator_accuracy, McsSpec, ScenarioEngine, ScenarioSpec, Scheme};
use abc_repro::netsim::time::SimDuration;

fn main() {
    println!("Wi-Fi link-rate estimation (Fig. 5's setup)\n");
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>9}",
        "MCS", "offered Mb/s", "predicted", "true capacity", "error"
    );
    for mcs in [1u8, 4, 7] {
        for offered in [2.0, 6.0, 12.0, 24.0, 40.0] {
            let (off, pred, truth) = estimator_accuracy(mcs, offered, SimDuration::from_secs(20));
            println!(
                "{:>5} {:>14.1} {:>14.2} {:>14.2} {:>+8.1}%",
                mcs,
                off,
                pred,
                truth,
                (pred - truth) / truth * 100.0
            );
        }
        println!();
    }
    println!("(low-load rows sit on the 2×-dequeue-rate cap — the dashed line in Fig. 5;\n loaded rows land within ~5% of the true capacity)");

    // and the end-to-end effect: ABC with the estimator in the loop vs Cubic
    println!("\nEnd-to-end on an alternating-MCS link (1↔7 every 2 s), 45 s:");
    for scheme in [Scheme::AbcDt(60), Scheme::Cubic] {
        let r = ScenarioEngine::new().run(&ScenarioSpec::wifi(
            scheme,
            1,
            McsSpec::Alternating(1, 7, SimDuration::from_secs(2)),
        ));
        println!(
            "  {:<10} tput {:>6.2} Mbit/s   95p delay {:>6.0} ms",
            r.scheme, r.total_tput_mbps, r.delay_ms.p95
        );
    }
}
