//! Durability contract of the serving stack (gdim-wal + gdim-shard):
//! **no acked mutation is ever lost, and recovery is bit-identical.**
//!
//! The headline harness is the crash-cut proptest: apply an arbitrary
//! mutation stream through a [`DurableHandle`] (fsync-per-record), cut
//! the write-ahead log at an arbitrary byte offset — simulating a
//! crash at any instant, including mid-frame — reopen, and assert the
//! recovered index answers **bit-identically** (hits and distances) to
//! an index built from exactly the mutation prefix whose log frames
//! survived the cut, across rankers, shard counts {1,2,8},
//! and thread budgets {1,2,8}. Torn tails surface as reports (and
//! damaged trusted prefixes as typed [`GdimError`]s), never panics.

use proptest::prelude::*;

use gdim::prelude::*;
use gdim::wal::{WalWriter, MAX_RECORD_BYTES};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const THREADS: [usize; 3] = [1, 2, 8];

fn chem(n: usize, seed: u64) -> Vec<Graph> {
    gdim::datagen::chem_db(n, &gdim::datagen::ChemConfig::default(), seed)
}

fn opts() -> IndexOptions {
    IndexOptions::default().with_dimensions(12)
}

fn requests() -> Vec<SearchRequest> {
    vec![
        SearchRequest::new(5),
        SearchRequest::new(4).ranker(Ranker::Refined { candidates: 6 }),
        SearchRequest::new(3).ranker(Ranker::Exact),
    ]
}

fn tmp_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gdim-durable-{tag}-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One replayable mutation, as also applied to the reference index.
#[derive(Clone)]
enum Op {
    Ins(Graph),
    Rem(GraphId),
}

/// A deterministic mutation stream: inserts from `extra`, removes of
/// ids known live, steered by `seed` (no RNG — proptest shrinks the
/// seed instead).
fn mutation_stream(durable: &DurableHandle, extra: &[Graph], seed: u64) -> (Vec<Op>, Vec<u64>) {
    let mut live: Vec<GraphId> = Vec::new();
    let mut ops = Vec::new();
    let mut boundaries = Vec::new();
    let mut next_extra = 0usize;
    for i in 0..extra.len() + 3 {
        let pick = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 * 7919);
        let remove = pick.is_multiple_of(3) && !live.is_empty();
        if remove {
            let id = live.remove((pick / 3) as usize % live.len());
            assert!(durable.remove(id).unwrap(), "removes target live rows");
            ops.push(Op::Rem(id));
        } else if next_extra < extra.len() {
            let g = extra[next_extra].clone();
            next_extra += 1;
            let id = durable.insert(g.clone()).unwrap();
            live.push(id);
            ops.push(Op::Ins(g));
        } else {
            break;
        }
        // Under SyncPolicy::Always this offset is on disk when the op
        // acks: the crash-cut contract is defined over these marks.
        boundaries.push(durable.wal_bytes());
    }
    (ops, boundaries)
}

/// Applies the first `n` ops of a stream to a plain index — the
/// "never crashed, applied exactly the acked prefix" reference.
fn apply_prefix(base: &ShardedIndex, ops: &[Op], n: usize) -> ShardedIndex {
    let mut idx = base.clone();
    for op in &ops[..n] {
        match op {
            Op::Ins(g) => {
                idx.insert(g.clone());
            }
            Op::Rem(id) => {
                idx.remove(*id).unwrap();
            }
        }
    }
    idx
}

fn hits(idx: &ShardedIndex, q: &Graph, req: &SearchRequest) -> Vec<(u32, u64)> {
    idx.search(q, req)
        .unwrap()
        .hits
        .iter()
        .map(|h| (h.id.get(), h.distance.to_bits()))
        .collect()
}

/// Bit-identity across every request, for several queries and thread
/// budgets.
fn assert_identical(got: &ShardedIndex, want: &ShardedIndex, queries: &[Graph], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    assert_eq!(got.live_len(), want.live_len(), "{ctx}: live count");
    for threads in THREADS {
        let mut got = got.clone();
        let mut want = want.clone();
        got.set_exec(ExecConfig::new(threads));
        want.set_exec(ExecConfig::new(threads));
        for q in queries {
            for req in requests() {
                assert_eq!(
                    hits(&got, q, &req),
                    hits(&want, q, &req),
                    "{ctx}: threads {threads}, {req:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// THE crash-cut theorem: for any mutation stream and any byte
    /// offset cut of the log, reopen recovers exactly the acked
    /// prefix, bit-identically, for every shard count.
    #[test]
    fn any_byte_cut_recovers_exactly_the_acked_prefix(seed in 0u64..500, frac in 0.0f64..=1.0) {
        let base_db = chem(10, seed);
        let extra = chem(5, !seed);
        let queries: Vec<Graph> = base_db.iter().take(2).chain(extra.iter().take(1)).cloned().collect();
        for shards in SHARD_COUNTS {
            let base = ShardedIndex::build(base_db.clone(), ShardedOptions::new(shards).with_index(opts()));
            let dir = tmp_dir("cut", seed.wrapping_add(shards as u64));
            let durable = DurableHandle::create(&dir, base.clone(), SyncPolicy::Always).unwrap();
            let (ops, boundaries) = mutation_stream(&durable, &extra, seed);
            let total = durable.wal_bytes();
            prop_assert_eq!(*boundaries.last().unwrap(), total);
            drop(durable);

            // The crash: the log survives only up to an arbitrary byte.
            let cut = (frac * total as f64) as u64;
            let wal_path = dir.join(gdim::shard::durable::wal_file(0));
            let bytes = std::fs::read(&wal_path).unwrap();
            std::fs::write(&wal_path, &bytes[..cut as usize]).unwrap();

            let (recovered, report) = DurableHandle::open(&dir, SyncPolicy::Always).unwrap();
            let acked = boundaries.iter().filter(|&&b| b <= cut).count();
            let trusted = if acked == 0 { 0 } else { boundaries[acked - 1] };
            prop_assert_eq!(report.wal_records, acked as u64, "shards {}", shards);
            prop_assert_eq!(report.wal_bytes_trusted, trusted);
            prop_assert_eq!(report.wal_bytes_total, cut);
            prop_assert_eq!(report.tail.is_some(), cut != trusted,
                "a defect iff the cut fell inside a frame: {:?}", report.tail);

            let want = apply_prefix(&base, &ops, acked);
            let got = recovered.serving().snapshot();
            assert_identical(&got, &want, &queries, &format!("shards {shards}, cut {cut}/{total}"));

            // Life goes on after recovery: the next acked mutation
            // lands on the truncated log and both sides still agree.
            let g = extra.last().unwrap().clone();
            let id_got = recovered.insert(g.clone()).unwrap();
            let mut want_more = want.clone();
            let id_want = want_more.insert(g);
            prop_assert_eq!(id_got, id_want, "replayed placement is deterministic");
            assert_identical(&recovered.serving().snapshot(), &want_more, &queries, "post-recovery insert");
            drop(recovered);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Checkpoints fold the log into a new generation: after a
    /// checkpoint + more mutations + reopen, the recovered index still
    /// equals the reference, the generation advanced, and only the
    /// records after the checkpoint replay.
    #[test]
    fn checkpoint_folds_the_log_and_recovery_continues_after_it(seed in 0u64..500) {
        let base_db = chem(10, seed);
        let extra = chem(6, !seed);
        let queries: Vec<Graph> = base_db.iter().take(2).cloned().collect();
        let base = ShardedIndex::build(base_db, ShardedOptions::new(2).with_index(opts()));
        let dir = tmp_dir("ckpt", seed);
        let durable = DurableHandle::create(&dir, base.clone(), SyncPolicy::Always).unwrap();

        let (ops_a, _) = mutation_stream(&durable, &extra[..3], seed);
        prop_assert_eq!(durable.checkpoint().unwrap(), 1);
        prop_assert_eq!(durable.wal_records(), 0, "the fold truncates the log");
        let (ops_b, _) = mutation_stream(&durable, &extra[3..], seed ^ 1);
        let after_ckpt = ops_b.len() as u64;
        drop(durable);

        // The old generation and log are gone; the new ones exist.
        prop_assert!(!dir.join(gdim::shard::durable::generation_dir(0)).exists());
        prop_assert!(!dir.join(gdim::shard::durable::wal_file(0)).exists());
        prop_assert!(dir.join(gdim::shard::durable::generation_dir(1)).exists());

        let (recovered, report) = DurableHandle::open(&dir, SyncPolicy::Always).unwrap();
        prop_assert_eq!(report.generation, 1);
        prop_assert_eq!(report.wal_records, after_ckpt);
        prop_assert!(report.tail.is_none());

        let mut want = apply_prefix(&base, &ops_a, ops_a.len());
        want = apply_prefix(&want, &ops_b, ops_b.len());
        assert_identical(&recovered.serving().snapshot(), &want, &queries, "post-checkpoint reopen");
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn damaged_stores_surface_typed_errors_never_panics() {
    let base = ShardedIndex::build(chem(8, 21), ShardedOptions::new(2).with_index(opts()));
    let dir = tmp_dir("damage", 21);
    let durable = DurableHandle::create(&dir, base, SyncPolicy::Always).unwrap();
    durable.insert(chem(1, 3).remove(0)).unwrap();
    drop(durable);

    // A CRC-valid frame whose payload is not a mutation record: the
    // trusted prefix itself is damaged → TornLog.
    {
        let wal = dir.join(gdim::shard::durable::wal_file(0));
        let report = gdim::wal::WalReader::scan(&std::fs::read(&wal).unwrap());
        let mut w = gdim::wal::WalWriter::open_trusted(
            &wal,
            report.trusted_bytes,
            report.records,
            SyncPolicy::Always,
        )
        .unwrap();
        w.append(&[9, 1, 2, 3]).unwrap(); // unknown record tag 9
        drop(w);
        match DurableHandle::open(&dir, SyncPolicy::Always) {
            Err(GdimError::TornLog { detail, .. }) => {
                assert!(detail.contains("undecodable"), "{detail}")
            }
            other => panic!("expected TornLog, got {other:?}"),
        }
        assert!(matches!(
            DurableHandle::verify(&dir),
            Err(GdimError::TornLog { .. })
        ));
        // Scrub the bad record again so the next stages start clean.
        let mut w = gdim::wal::WalWriter::open_trusted(
            &wal,
            report.trusted_bytes,
            report.records,
            SyncPolicy::Always,
        )
        .unwrap();
        w.sync().unwrap();
    }

    // A truncated shard snapshot file → CorruptCheckpoint naming the
    // generation.
    {
        let shard_file = dir
            .join(gdim::shard::durable::generation_dir(0))
            .join("shard-0000.idx");
        let bytes = std::fs::read(&shard_file).unwrap();
        std::fs::write(&shard_file, &bytes[..bytes.len() / 2]).unwrap();
        match DurableHandle::open(&dir, SyncPolicy::Always) {
            Err(GdimError::CorruptCheckpoint { generation: 0, .. }) => {}
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
        std::fs::write(&shard_file, &bytes).unwrap(); // restore
        DurableHandle::open(&dir, SyncPolicy::Always).expect("restored store opens");
    }

    // Garbage in CURRENT → CorruptCheckpoint, not a parse panic.
    {
        std::fs::write(dir.join("CURRENT"), b"not-a-number\n").unwrap();
        assert!(matches!(
            DurableHandle::open(&dir, SyncPolicy::Always),
            Err(GdimError::CorruptCheckpoint { .. })
        ));
    }

    // A directory that was never a durable store → Io(NotFound), the
    // signal `gdim serve --durable` uses to seed a fresh one.
    let empty = tmp_dir("empty", 21);
    std::fs::create_dir_all(&empty).unwrap();
    match DurableHandle::open(&empty, SyncPolicy::Always) {
        Err(GdimError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// Satellite: readers keep searching — lock-free, bit-identically —
/// while a checkpoint folds the log in the background. The checkpoint
/// holds the durable (writer) lock, never the read path; no mutation
/// lands during the fold, so every answer during it must equal the
/// answer before and after it.
#[test]
fn readers_stay_lock_free_and_bit_identical_during_a_background_checkpoint() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let base_db = chem(24, 31);
    let base = ShardedIndex::build(base_db.clone(), ShardedOptions::new(2).with_index(opts()));
    let dir = tmp_dir("bg-ckpt", 31);
    let durable = DurableHandle::create(&dir, base, SyncPolicy::Always).unwrap();
    for g in chem(3, !31) {
        durable.insert(g).unwrap();
    }

    let req = SearchRequest::new(5);
    let queries: Vec<Graph> = base_db.iter().take(3).cloned().collect();
    let want: Vec<_> = {
        let snap = durable.serving().snapshot();
        queries.iter().map(|q| hits(&snap, q, &req)).collect()
    };

    let folding = AtomicBool::new(true);
    let searches = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..3 {
            let reader = durable.serving().reader();
            let (queries, want, req) = (&queries, &want, &req);
            let (folding, searches) = (&folding, &searches);
            scope.spawn(move || loop {
                let q = &queries[t % queries.len()];
                let resp = reader.search(q, req).unwrap();
                let got: Vec<_> = resp
                    .hits
                    .iter()
                    .map(|h| (h.id.get(), h.distance.to_bits()))
                    .collect();
                assert_eq!(
                    got,
                    want[t % queries.len()],
                    "mid-checkpoint answer drifted"
                );
                searches.fetch_add(1, Ordering::Relaxed);
                if !folding.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
        // Fold twice while the readers hammer away.
        assert_eq!(durable.checkpoint().unwrap(), 1);
        assert_eq!(durable.checkpoint().unwrap(), 2);
        folding.store(false, Ordering::Relaxed);
    });
    assert!(
        searches.load(Ordering::Relaxed) >= 3,
        "every reader served during the folds"
    );
    assert_eq!(durable.generation(), 2);
    assert_eq!(durable.wal_records(), 0);

    // And the folded store reopens to the same answers.
    drop(durable);
    let (reopened, report) = DurableHandle::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!((report.generation, report.wal_records), (2, 0));
    let snap = reopened.serving().snapshot();
    for (q, w) in queries.iter().zip(&want) {
        assert_eq!(&hits(&snap, q, &req), w);
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// A rebuild reassigns ids in memory *before* its checkpoint
/// publishes them. If that checkpoint fails, the served index is
/// ahead of what `CURRENT` names, and any mutation logged from then
/// on would be validated against ids the on-disk state cannot
/// reproduce — so the handle must refuse all further mutations
/// (typed, not panicking) until the directory is reopened. A plain
/// checkpoint failure, by contrast, moves nothing in memory and must
/// stay fully recoverable.
#[test]
fn failed_rebuild_checkpoint_poisons_mutations_until_reopen() {
    let base = ShardedIndex::build(chem(10, 41), ShardedOptions::new(2).with_index(opts()));
    let dir = tmp_dir("poison", 41);
    let durable = DurableHandle::create(&dir, base.clone(), SyncPolicy::Always).unwrap();
    let extra = chem(3, !41);
    durable.insert(extra[0].clone()).unwrap();

    // Block every checkpoint: a plain file where generation 1 would
    // be staged makes the snapshot save fail.
    let staging = dir.join("gen-000001.tmp");
    std::fs::write(&staging, b"in the way").unwrap();

    // A plain checkpoint failure is recoverable — nothing moved in
    // memory, so mutations keep flowing.
    assert!(durable.checkpoint().is_err());
    assert!(!durable.is_poisoned());
    let acked_id = durable.insert(extra[1].clone()).unwrap();

    // A rebuild failure is not: the in-memory index now holds
    // post-rebuild ids that were never published.
    let err = durable.rebuild().unwrap_err();
    assert!(
        !matches!(err, GdimError::DurablePoisoned { .. }),
        "the rebuild itself surfaces the underlying checkpoint error: {err:?}"
    );
    assert!(durable.is_poisoned());
    match durable.insert(extra[2].clone()) {
        Err(e @ GdimError::DurablePoisoned { .. }) => {
            assert_eq!(e.code(), "durable_poisoned");
        }
        other => panic!("expected DurablePoisoned, got {other:?}"),
    }
    assert!(matches!(
        durable.remove(acked_id),
        Err(GdimError::DurablePoisoned { .. })
    ));
    assert!(matches!(
        durable.checkpoint(),
        Err(GdimError::DurablePoisoned { .. })
    ));
    assert!(matches!(
        durable.sync(),
        Err(GdimError::DurablePoisoned { .. })
    ));
    // Reads keep serving.
    durable
        .serving()
        .snapshot()
        .search(&extra[0], &SearchRequest::new(3))
        .unwrap();
    drop(durable);

    // Reopening recovers exactly the pre-rebuild acked state (both
    // acked inserts, generation 0) and mutations work again.
    std::fs::remove_file(&staging).unwrap();
    let (recovered, report) = DurableHandle::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(report.wal_records, 2);
    let mut want = base.clone();
    want.insert(extra[0].clone());
    want.insert(extra[1].clone());
    assert_identical(
        &recovered.serving().snapshot(),
        &want,
        &extra[..1],
        "post-poison reopen",
    );
    recovered.insert(extra[2].clone()).unwrap();
    assert_eq!(recovered.checkpoint().unwrap(), 1);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: oversized WAL payloads are refused at append time, and
/// the durable-facing constant is what the frame layer enforces.
#[test]
fn wal_rejects_payloads_beyond_the_frame_cap() {
    let dir = tmp_dir("cap", 1);
    std::fs::create_dir_all(&dir).unwrap();
    let mut w = WalWriter::create(dir.join("cap.log"), SyncPolicy::Never).unwrap();
    let too_big = vec![0u8; MAX_RECORD_BYTES as usize + 1];
    assert!(w.append(&too_big).is_err());
    assert_eq!(w.len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
