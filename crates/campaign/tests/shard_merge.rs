//! Cross-machine sharding: the ordinal-stable `k/n` slices partition a
//! campaign, each shard streams a valid store of its own, and merging
//! the shard stores reproduces an unsharded run **byte for byte**.

use campaign::jsonl::Error;
use campaign::presets;
use campaign::runner::{
    in_shard, run_campaign, run_campaign_streaming, run_campaign_streaming_sharded, RunOptions,
};
use campaign::store::{merge_stores, ResultsStore};
use experiments::figures::Scale;

#[test]
fn shards_partition_the_ordinals() {
    let points = presets::tiny(Scale::Tiny).expand();
    for n in 1..=5usize {
        for p in &points {
            let owners = (1..=n).filter(|&k| in_shard(p.ordinal, (k, n))).count();
            assert_eq!(
                owners, 1,
                "ordinal {} owned by {owners} shards of {n}",
                p.ordinal
            );
        }
    }
}

#[test]
fn merged_shards_are_byte_identical_to_an_unsharded_run() {
    let campaign = presets::tiny(Scale::Tiny);
    let opts = RunOptions::quiet();

    let mut full = Vec::new();
    run_campaign_streaming(&campaign, &opts, Vec::new(), &mut full).unwrap();
    let full = String::from_utf8(full).unwrap();

    let n = 3usize;
    let mut shards = Vec::new();
    for k in 1..=n {
        let mut buf = Vec::new();
        run_campaign_streaming_sharded(&campaign, &opts, Vec::new(), Some((k, n)), &mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        // every shard store is complete and valid on its own
        let store = ResultsStore::from_jsonl(&text).expect("valid shard store");
        for r in &store.records {
            assert!(
                in_shard(r.ordinal, (k, n)),
                "shard {k} ran ordinal {}",
                r.ordinal
            );
        }
        shards.push(store);
    }
    assert_eq!(
        shards.iter().map(|s| s.records.len()).sum::<usize>(),
        campaign.expand().len(),
        "shards lost or duplicated points"
    );

    // merge order must not matter for the result (records sort by ordinal)
    shards.rotate_left(1);
    let merged = merge_stores(&shards).expect("merge");
    assert_eq!(merged.to_jsonl(), full, "merged shards != unsharded run");
}

#[test]
fn merge_rejects_mismatched_sweeps_and_duplicates() {
    let tiny = {
        let c = presets::tiny(Scale::Tiny);
        ResultsStore::new(&c, run_campaign(&c, &RunOptions::quiet()))
    };
    let other = {
        let c = presets::rtt_grid(Scale::Tiny);
        ResultsStore::new(&c, run_campaign(&c, &RunOptions::quiet()))
    };
    assert!(matches!(
        merge_stores(&[tiny.clone(), other]),
        Err(Error::Format { .. })
    ));
    // the same store twice duplicates every ordinal
    assert!(matches!(
        merge_stores(&[tiny.clone(), tiny.clone()]),
        Err(Error::Format { .. })
    ));
    assert!(matches!(merge_stores(&[]), Err(Error::Format { .. })));
    // a single complete store merges to itself
    let same = merge_stores(std::slice::from_ref(&tiny)).unwrap();
    assert_eq!(same.to_jsonl(), tiny.to_jsonl());
}
