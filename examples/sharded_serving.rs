//! Sharded serving: partition the database over N shards
//! ([`ShardedIndex`]), then serve **concurrent** traffic through a
//! [`ServingHandle`] — multiple reader threads answering a Zipf-skewed
//! workload lock-free while the main thread inserts and removes graphs,
//! installs a background rebuild, and has a late write refuse a stale
//! one.
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
    // data) — and a full background rebuild re-mines off-thread.
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
        // the next publish), then a background full rebuild.
        let inserted: Vec<GraphId> = gdim::datagen::chem_db(6, &cfg, 4242)
            .into_iter()
            .map(|g| handle.insert(g))
            .collect();
        let stale = handle.stale_shards();
        println!(
            "inserted 6 graphs; stale shards now {:?}",
            stale.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        // A write landing after the snapshot was taken makes the
        // install refuse rather than silently drop it: spawn again.
        let task = handle.spawn_rebuild();
        handle.remove(inserted[0]).expect("a live id");
        match handle.install(task) {
            Err(GdimError::StaleRebuild { missed }) => {
                println!("late remove invalidated the snapshot ({missed} write missed)");
            }
            other => panic!("a stale snapshot must be refused, got {other:?}"),
        }
        // A quiet index installs: re-mined over the live graphs, the
        // tombstone compacted away, every shard at the next epoch.
        let task = handle.spawn_rebuild();
        let installed = handle.install(task).expect("no mutation raced the rebuild");
        let snap = handle.snapshot();
        println!(
            "background rebuild installed: {installed}; snapshot version {} with epoch {}, {} of {} rows live",
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
