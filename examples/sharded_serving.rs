//! Sharded serving: partition the database over N shards
//! ([`ShardedIndex`]), then serve **concurrent** traffic through a
//! [`ServingHandle`] — multiple reader threads answering a Zipf-skewed
//! workload lock-free while the main thread inserts and removes graphs,
//! has a late write refuse a stale compaction, compacts the shards that
//! went stale, and installs a full rebuild computed from a snapshot.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gdim::prelude::*;

fn main() -> Result<(), GdimError> {
    let cfg = gdim::datagen::ChemConfig::default();
    let db = gdim::datagen::chem_db(120, &cfg, 7);

    // One global pipeline run (mine -> select), then 4 shards stamped
    // out from it — every shard shares the same dimensions, so
    // scatter-gather answers are bit-identical to an unsharded index.
    let index = ShardedIndex::build(
        db.clone(),
        ShardedOptions::new(4).with_index(
            IndexOptions::default()
                .with_dimensions(50)
                // Per *shard*: least-loaded insert routing spreads 6
                // inserts over 4 shards, so a couple of shards reach 2
                // pending inserts and report stale below.
                .with_rebuild_policy(RebuildPolicy {
                    max_inserts: 2,
                    max_tombstone_frac: 0.10,
                }),
        ),
    );
    println!(
        "built {:?}: {} graphs over {} shards, {} dimensions",
        index,
        index.len(),
        index.shard_count(),
        index.p()
    );

    // Sanity: sharded == unsharded, hit for hit (distances and order).
    let unsharded = GraphIndex::build(db.clone(), IndexOptions::default().with_dimensions(50));
    let q = db[17].clone();
    let sharded_hits = index.search(&q, &SearchRequest::new(5))?.hits;
    let flat_hits = unsharded.search(&q, &SearchRequest::new(5))?.hits;
    for (a, b) in sharded_hits.iter().zip(&flat_hits) {
        assert_eq!(a.distance, b.distance);
        assert_eq!(index.seq_of(a.id)?, b.id.get() as u64);
    }
    println!("scatter-gather top-5 matches the unsharded index bit for bit");

    // --- concurrent serving ---------------------------------------
    // Readers search lock-free against published snapshots (one atomic
    // load per search in the steady state) while the writer inserts —
    // each insert copy-on-writes only the owning shard (1/N of the
    // data) — and rebuilds computed from snapshots install atomically.
    let handle = ServingHandle::new(index);
    let workload =
        gdim::datagen::zipf_workload(db.len(), 400, &gdim::datagen::ZipfConfig::default(), 9);
    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..3usize {
            let reader = handle.reader(); // one per thread
            let db = &db;
            let workload = &workload;
            let (stop, served) = (&stop, &served);
            scope.spawn(move || {
                for (i, &gid) in workload.iter().cycle().enumerate() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let resp = reader
                        .search(&db[gid as usize], &SearchRequest::new(3))
                        .expect("searches never fail while mutations land");
                    assert_eq!(resp.hits[0].distance, 0.0, "reader {t} query {i}");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Writer: online inserts (readers keep the old snapshot until
        // the next publish), then rebuilds.
        let inserted: Vec<GraphId> = gdim::datagen::chem_db(6, &cfg, 4242)
            .into_iter()
            .map(|g| handle.insert(g))
            .collect();
        let stale = handle.snapshot().stale_shards();
        println!(
            "inserted 6 graphs; stale shards now {:?}",
            stale.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        // A rebuild is computed from a snapshot, off the writer lock,
        // so a write can land meanwhile; install refuses a result that
        // missed one rather than silently drop it — for a compaction,
        // a write to its own shard.
        let snapshot = handle.snapshot();
        let (owner, _) = snapshot.split_id(inserted[0]);
        let compaction = snapshot.compacted(owner).expect("the owner of a live id");
        handle.remove(inserted[0]).expect("a live id");
        match handle.install(compaction) {
            Err(GdimError::StaleRebuild { .. }) => {
                println!("late remove in {owner} invalidated its compaction");
            }
            other => panic!("a stale compaction must be refused, got {other:?}"),
        }
        // Computed again: same selection, live rows only, so answers
        // are provably unchanged.
        for s in handle.snapshot().stale_shards() {
            let compaction = handle.snapshot().compacted(s).expect("a stale shard's id");
            handle
                .install(compaction)
                .expect("nothing wrote to the shard since its snapshot");
        }
        assert!(handle.snapshot().stale_shards().is_empty());
        // A full rebuild re-mines over the live graphs and re-splits,
        // every shard at the next epoch (any write since its snapshot
        // would have it refused too).
        let rebuilt = handle.snapshot().rebuilt();
        handle
            .install(rebuilt)
            .expect("no mutation raced the rebuild");
        let snap = handle.snapshot();
        println!(
            "full rebuild installed: snapshot version {} with epoch {}, {} of {} rows live",
            handle.version(),
            snap.epoch(),
            snap.live_len(),
            snap.len()
        );
        stop.store(true, Ordering::Relaxed);
    });
    println!(
        "3 reader threads served {} searches while the writer mutated and rebuilt",
        served.load(Ordering::Relaxed)
    );
    Ok(())
}
