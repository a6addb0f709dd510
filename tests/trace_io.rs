//! Mahimahi trace file round trips: the synthetic traces can be written to
//! disk in Mahimahi's format and parsed back without loss of information
//! (so the substitution for the paper's captures is file-compatible).

use abc_repro::cellular::{self, CellTrace};
use proptest::prelude::*;
use std::io::Cursor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse → write → parse is the identity on any well-formed Mahimahi
    /// trace: delivery opportunities and the repeat period are preserved.
    #[test]
    fn arbitrary_trace_round_trips_losslessly(
        first in 0u64..50,
        gaps in proptest::collection::vec(0u64..40, 1..120),
    ) {
        // cumulative-sum the gaps into a sorted timestamp list; zero gaps
        // produce the repeated timestamps the format allows (several
        // delivery opportunities in one millisecond)
        let mut t = first;
        let mut body = format!("{t}\n");
        for g in &gaps {
            t += g;
            body.push_str(&format!("{t}\n"));
        }
        let original = CellTrace::parse_mahimahi("prop", body.as_bytes()).unwrap();
        prop_assert_eq!(original.opportunities.len(), gaps.len() + 1);

        let mut written = Vec::new();
        original.write_mahimahi(&mut written).unwrap();
        let reparsed = CellTrace::parse_mahimahi("prop", Cursor::new(&written)).unwrap();

        prop_assert_eq!(&reparsed.opportunities, &original.opportunities);
        prop_assert_eq!(reparsed.period, original.period);
        prop_assert_eq!(&reparsed.name, &original.name);
        // a second write must reproduce the file byte-for-byte
        let mut rewritten = Vec::new();
        reparsed.write_mahimahi(&mut rewritten).unwrap();
        prop_assert_eq!(rewritten, written);
    }
}

#[test]
fn every_builtin_trace_round_trips_through_mahimahi_format() {
    for trace in cellular::all_builtin() {
        let mut buf = Vec::new();
        trace.write_mahimahi(&mut buf).unwrap();
        let parsed = CellTrace::parse_mahimahi(&trace.name, Cursor::new(&buf)).unwrap();
        // timestamps are quantized to ms by the format; counts must match
        // and every timestamp must agree at ms precision
        assert_eq!(
            parsed.opportunities.len(),
            trace.opportunities.len(),
            "{}: opportunity count changed",
            trace.name
        );
        for (a, b) in trace.opportunities.iter().zip(parsed.opportunities.iter()) {
            assert_eq!(
                a.as_nanos() / 1_000_000,
                b.as_nanos() / 1_000_000,
                "{}: timestamp mismatch",
                trace.name
            );
        }
        // the parsed trace must drive a link (mean rate within the ms
        // quantization tolerance)
        let rel =
            (parsed.mean_rate().mbps() - trace.mean_rate().mbps()).abs() / trace.mean_rate().mbps();
        assert!(rel < 0.02, "{}: mean rate drifted {rel:.4}", trace.name);
    }
}

#[test]
fn trace_file_on_disk_round_trips() {
    let dir = std::env::temp_dir().join("abc_repro_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verizon1.pps");
    let trace = cellular::builtin("Verizon1").unwrap();
    {
        let f = std::fs::File::create(&path).unwrap();
        trace.write_mahimahi(std::io::BufWriter::new(f)).unwrap();
    }
    let f = std::fs::File::open(&path).unwrap();
    let parsed = CellTrace::parse_mahimahi("Verizon1", std::io::BufReader::new(f)).unwrap();
    assert_eq!(parsed.opportunities.len(), trace.opportunities.len());
    std::fs::remove_file(&path).ok();
}

#[test]
fn parsed_trace_runs_in_simulator() {
    use abc_repro::experiments::{LinkSpec, ScenarioEngine, ScenarioSpec, Scheme};

    let trace = cellular::builtin("ATT2").unwrap();
    let mut buf = Vec::new();
    trace.write_mahimahi(&mut buf).unwrap();
    let parsed = CellTrace::parse_mahimahi("ATT2", Cursor::new(&buf)).unwrap();
    let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Trace(parsed)).duration_secs(20);
    let r = ScenarioEngine::new().run(&spec);
    assert!(r.utilization > 0.3, "{}", r.row());
}
