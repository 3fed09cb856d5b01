//! O(tail) publishing, counted: `gdim_publish_rows_copied_total` moves
//! by exactly the tail rows each copy-on-write clone copied — fewer
//! than `CHUNK` per served write — at 500 rows per shard and at 5,000
//! alike, and the write-path histograms record one sample per publish.
//! One test in its own binary, because the series live in the
//! process-global registry.

use gdim::core::chunked::CHUNK;
use gdim::prelude::*;

const WRITES: usize = 150;

#[test]
fn served_writes_copy_a_tail_not_a_shard() {
    let cfg = gdim::datagen::ChemConfig::default();
    let opts = ShardedOptions::new(2).with_index(IndexOptions::default().with_dimensions(24));
    let mut index = ShardedIndex::build(gdim::datagen::chem_db(40, &cfg, 5), opts);
    let mut pool = gdim::datagen::chem_db(2 * 5_000 + 2 * WRITES, &cfg, 55).into_iter();
    let registry = gdim::obs::global();
    // Same (name, labels) always returns the same instrument.
    let copied = registry.counter("gdim_publish_rows_copied_total", "", &[]);
    let publishes = registry.histogram("gdim_publish_ns", "", &[]);
    let waits = registry.histogram("gdim_writer_lock_wait_ns", "", &[("lock", "master")]);

    for rows_per_shard in [500, 5_000] {
        // Owned growth: nothing shares the shards, nothing is copied.
        let before = copied.get();
        while index.len() < 2 * rows_per_shard {
            index.insert(pool.next().unwrap());
        }
        assert_eq!(copied.get(), before, "owned inserts copy nothing");

        let handle = ServingHandle::new(index);
        let (copied0, publishes0, waits0) = (copied.get(), publishes.count(), waits.count());
        let mut expected = 0u64;
        let mut ids = Vec::new();
        for i in 0..WRITES {
            // Every publish leaves the master's shards shared with the
            // snapshot, so the next write clones the shard it lands in:
            // the rows that clone copies are that shard's open tail.
            let before = handle.snapshot();
            let id = if i % 3 == 2 {
                let id: GraphId = ids.swap_remove(i % ids.len());
                assert!(handle.remove(id).unwrap());
                id
            } else {
                let id = handle.insert(pool.next().unwrap());
                ids.push(id);
                id
            };
            let owner = before.shard(before.split_id(id).0).unwrap();
            // The graphs are the only per-row heap state: the tail of
            // the shard's rows is all there is to copy.
            assert_eq!(owner.rows_copied_by_clone(), owner.len() % CHUNK);
            expected += (owner.len() % CHUNK) as u64;
        }
        let moved = copied.get() - copied0;
        assert_eq!(
            moved, expected,
            "{rows_per_shard} rows/shard: the count is exact"
        );
        assert!(moved > 0, "tails are not always empty");
        assert!(
            moved <= (WRITES * (CHUNK - 1)) as u64,
            "{rows_per_shard} rows/shard: {moved} rows copied by {WRITES} writes"
        );
        assert_eq!(publishes.count() - publishes0, WRITES as u64);
        assert_eq!(waits.count() - waits0, WRITES as u64);

        // A no-op publishes nothing, and records no publish.
        let dead = handle.snapshot().id_for_seq(0).unwrap();
        handle.remove(dead).unwrap();
        let n = publishes.count();
        assert!(!handle.remove(dead).unwrap());
        assert_eq!(publishes.count(), n);

        index = (*handle.snapshot()).clone();
    }
}
