//! Multi-bottleneck behavior (§3.1.2 and §5.1): first a two-hop cellular
//! path where either hop can bind — the accel→brake demotion rule makes
//! the sender obey the minimum target rate — then an ABC-wireless +
//! non-ABC-wired path where the dual windows (`w_abc`, `w_cubic`) swap
//! control as the bottleneck moves.
//!
//! ```sh
//! cargo run --release --example multi_bottleneck
//! ```
//!
//! `ScenarioSpec::two_hop` is a spec builder and `MixedPathScenario` a
//! preset that denotes a `ScenarioSpec`; the `ScenarioEngine`
//! (`experiments::engine`) does all simulator wiring.

use abc_repro::experiments::{
    sparkline, CrossTraffic, LinkSpec, MixedPathScenario, ScenarioEngine, ScenarioSpec, Scheme,
};
use abc_repro::netsim::rate::Rate;
use abc_repro::netsim::time::{SimDuration, SimTime};

fn main() {
    println!("== two ABC bottlenecks in series (uplink 24, downlink 12 Mbit/s) ==");
    let r = ScenarioEngine::new().run(&ScenarioSpec::two_hop(
        Scheme::Abc,
        LinkSpec::Constant(Rate::from_mbps(24.0)),
        LinkSpec::Constant(Rate::from_mbps(12.0)),
    ));
    println!(
        "goodput {:.2} Mbit/s (the 12 Mbit/s hop binds), 95p delay {:.0} ms\n",
        r.total_tput_mbps, r.delay_ms.p95
    );

    println!("== ABC wireless + non-ABC wired, with on-off Cubic cross traffic ==");
    let steps: Vec<(SimTime, Rate)> = [16.0, 9.0, 5.0, 14.0, 7.0, 18.0]
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            (
                SimTime::ZERO + SimDuration::from_secs(i as u64 * 10),
                Rate::from_mbps(r),
            )
        })
        .collect();
    let res = MixedPathScenario {
        wireless: LinkSpec::Steps(steps),
        wired_rate: Rate::from_mbps(12.0),
        rtt: SimDuration::from_millis(100),
        buffer_pkts: 250,
        cross: CrossTraffic::OnOffCubic {
            on: SimDuration::from_secs(20),
            off: SimDuration::from_secs(10),
        },
        duration: SimDuration::from_secs(60),
    }
    .run();
    let wabc: Vec<(f64, f64)> = res
        .windows
        .samples
        .iter()
        .map(|&(t, a, ..)| (t, a))
        .collect();
    let wnon: Vec<(f64, f64)> = res
        .windows
        .samples
        .iter()
        .map(|&(t, _, n, _)| (t, n))
        .collect();
    let good: Vec<(f64, f64)> = res
        .windows
        .samples
        .iter()
        .map(|&(t, _, _, g)| (t, g))
        .collect();
    println!(
        "wireless capacity : {}",
        sparkline(&res.report.capacity_series, 70)
    );
    println!("ABC goodput       : {}", sparkline(&good, 70));
    println!("cross (Cubic)     : {}", sparkline(&res.cross_tput, 70));
    println!("w_abc             : {}", sparkline(&wabc, 70));
    println!("w_cubic           : {}", sparkline(&wnon, 70));
    println!(
        "wireless qdelay ms: {}",
        sparkline(&res.wireless_qdelay, 70)
    );
    println!("wired    qdelay ms: {}", sparkline(&res.wired_qdelay, 70));
    println!(
        "\nWhichever window is smaller governs: ABC behaves like Cubic when the \
         wired hop binds,\nand keeps the wireless queue short when the wireless hop binds."
    );
}
