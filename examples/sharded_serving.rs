//! Sharded serving: partition the database over N shards
//! ([`ShardedIndex`]), then serve **concurrent** traffic through a
//! [`ServingHandle`] — multiple reader threads answering a Zipf-skewed
//! workload lock-free while the main thread inserts and removes graphs
//! and runs a full rebuild under the writer lock — and finally save the
//! rebuilt index and load it back.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gdim::prelude::*;

fn main() -> Result<(), GdimError> {
    let cfg = gdim::datagen::ChemConfig::default();
    let db = gdim::datagen::chem_db(120, &cfg, 7);
    let index_opts = IndexOptions::default().with_dimensions(50);

    // One global pipeline run (mine -> select), then 4 shards stamped
    // out from it — every shard shares the same dimensions, so
    // scatter-gather answers are bit-identical to an unsharded index.
    let index = ShardedIndex::build(
        db.clone(),
        ShardedOptions::new(4).with_index(index_opts.clone()),
    );
    println!(
        "built {:?}: {} graphs over {} shards, {} dimensions",
        index,
        index.len(),
        index.shard_count(),
        index.p()
    );

    // Sanity: sharded == unsharded, hit for hit (distances and order).
    let unsharded = GraphIndex::build(db.clone(), index_opts);
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
    // each insert copy-on-writes only the owning shard's tail — removes,
    // and rebuilds; every write publishes one new snapshot atomically.
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
                        .expect("searches never fail while writes land");
                    assert_eq!(resp.hits[0].distance, 0.0, "reader {t} query {i}");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Writer: online inserts and removes (readers keep the old
        // snapshot until the next publish).
        let inserted: Vec<GraphId> = gdim::datagen::chem_db(6, &cfg, 4242)
            .into_iter()
            .map(|g| handle.insert(g))
            .collect();
        // (The readers query the base graphs, so the removes take
        // inserted ones: every query keeps itself as its nearest hit.)
        for &id in &inserted[..2] {
            assert!(handle.remove(id).expect("an inserted id"), "{id} was live");
        }
        let snap = handle.snapshot();
        println!(
            "inserted 6 graphs, removed 2: {} of {} rows live",
            snap.live_len(),
            snap.len()
        );

        // A full rebuild re-mines over the live graphs and re-splits,
        // every shard at the next epoch. It runs under the writer lock,
        // so writes wait for it and none is lost; readers keep
        // searching the previous snapshot until it publishes.
        let before = handle.version();
        handle.write(ShardedIndex::rebuild);
        assert_eq!(handle.version(), before + 1, "one rebuild, one publish");
        let snap = handle.snapshot();
        assert_eq!(snap.live_len(), snap.len(), "tombstones are gone");
        println!(
            "full rebuild published: snapshot version {} with epoch {}, {} rows",
            handle.version(),
            snap.epoch(),
            snap.len()
        );
        stop.store(true, Ordering::Relaxed);
    });
    println!(
        "3 reader threads served {} searches while the writer mutated and rebuilt",
        served.load(Ordering::Relaxed)
    );

    // --- persistence ----------------------------------------------
    // A manifest plus one index file per shard; the reloaded index
    // answers exactly like the one that was saved.
    let served_index = handle.snapshot();
    let dir = std::env::temp_dir().join(format!("gdim-sharded-serving-{}", std::process::id()));
    served_index.save_dir(&dir)?;
    let mut loaded = ShardedIndex::load_dir(&dir)?;
    std::fs::remove_dir_all(&dir)?;
    loaded.set_exec(*served_index.exec());
    assert_eq!(loaded.manifest_bytes(), served_index.manifest_bytes());
    for q in db.iter().step_by(30) {
        let req = SearchRequest::new(5);
        assert_eq!(
            loaded.search(q, &req)?.hits,
            served_index.search(q, &req)?.hits
        );
    }
    println!(
        "saved and reloaded: epoch {}, {} rows, same answers",
        loaded.epoch(),
        loaded.len()
    );
    Ok(())
}
