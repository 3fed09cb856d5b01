//! `wal_baseline` — the durability-cost harness behind the committed
//! `BENCH_wal.json` snapshot: append throughput of the write-ahead log
//! under each [`SyncPolicy`] (no-sync, group commit at several batch
//! sizes, fsync-per-record) plus replay (scan + decode) throughput,
//! over realistic mutation payloads (encoded chem-like graphs) — and
//! the in-memory half of a durable write, the copy-on-write **publish**:
//! the p50 of `ServingHandle::insert` on a one-shard index grown to
//! 2,000 and to 16,000 rows in the same run, beside the p50 of a deep
//! copy (clone + drop) of that shard's graphs at both sizes.
//!
//! ```text
//! cargo run --release -p gdim-bench --bin wal_baseline -- \
//!     [--out PATH] [--baseline PATH] [--smoke]
//! ```
//!
//! Each append mode writes 20,000 records (400 under fsync-per-record);
//! `--smoke` writes 4,000 (50), as CI's recovery-test does. Every timed
//! log is re-scanned afterwards and must replay **clean** (every record
//! back, byte-identical, no tail defect) — the harness refuses to
//! publish a throughput number for a log it cannot recover.
//!
//! Gates. Against `--baseline`: the fresh no-sync append rate must stay
//! at or above [`MIN_FRAC`] of the committed one (generous: the
//! committed number may come from different hardware), and each publish
//! row at or below the committed one divided by [`MIN_FRAC`]. The
//! fsync-bound rows are reported but not gated: they measure the disk,
//! not the code. Always: the publish's growth from 2,000 to 16,000
//! rows must stay under [`MAX_PUBLISH_SLOPE`] × the deep copy's growth
//! over the same rows. Both slopes are same-run and same-machine, so no
//! box speed can fake their ratio: a publish that deep-copies the
//! shard's graphs grows at least as fast as the copy itself (~1), one
//! that shares them grows only by the flat per-row words it copies
//! (~24 B/row, ~0.003 of a graph's copy). A plain `16k / 2k` ratio no
//! longer separates the two once graphs are four heap blocks: the
//! fixed tail copy it leaned on is too small to outweigh those flat
//! words.

use std::time::Instant;

use gdim_bench::gate::{fixed, median_ns, write_snapshot, Args, Gate, Rule};
use gdim_core::{Graph, IndexOptions};
use gdim_datagen::{chem_db, ChemConfig};
use gdim_server::Json;
use gdim_shard::{ServingHandle, ShardedIndex, ShardedOptions};
use gdim_wal::{SyncPolicy, WalReader, WalRecord, WalWriter};

/// Shard sizes the publish section measures at, timed inserts per
/// size, and timed deep copies of the shard's graphs per size.
const PUBLISH_ROWS: [(usize, &str); 2] = [(2_000, "2k"), (16_000, "16k")];
const PUBLISH_SAMPLES: usize = 256;
const DEEP_COPY_SAMPLES: usize = 32;
const SEED: u64 = 42;
/// Fresh no-sync append rate ≥ this fraction of the committed one;
/// fresh publish p50 ≤ the committed one divided by it.
const MIN_FRAC: f64 = 0.2;
/// `publish_us_16k − publish_us_2k` may be at most this fraction of
/// `deep_copy_us_16k − deep_copy_us_2k`.
const MAX_PUBLISH_SLOPE: f64 = 0.1;

/// Appends `payloads[i % len]` `count` times under `policy`, then
/// replays the log and asserts every byte came back. Returns
/// (records/s, bytes written).
fn run_mode(
    dir: &std::path::Path,
    tag: &str,
    payloads: &[Vec<u8>],
    count: usize,
    policy: SyncPolicy,
) -> (f64, u64) {
    let path = dir.join(format!("wal-{tag}.log"));
    let mut w = WalWriter::create(&path, policy).expect("create log");
    let t0 = Instant::now();
    for i in 0..count {
        w.append(&payloads[i % payloads.len()]).expect("append");
    }
    w.sync().expect("final sync");
    let secs = t0.elapsed().as_secs_f64();
    let bytes = w.len();
    drop(w);

    // Refuse to report a number for a log that does not recover.
    let raw = std::fs::read(&path).expect("read log back");
    let report = WalReader::scan(&raw);
    assert!(report.is_clean(), "{tag}: tail defect {:?}", report.defect);
    assert_eq!(report.records, count as u64, "{tag}: record count");
    let (frames, _) = WalReader::split(&raw);
    for (i, got) in frames.iter().enumerate() {
        assert_eq!(*got, &payloads[i % payloads.len()][..], "{tag}: record {i}");
    }
    std::fs::remove_file(&path).ok();
    (count as f64 / secs, bytes)
}

/// p50 µs of `ServingHandle::insert` (mapping + copy-on-write publish)
/// on a one-shard index at each of [`PUBLISH_ROWS`], grown by inserts
/// in one pass so both sizes come from the same run, each paired with
/// the p50 µs of a deep copy of the shard's graphs at that size: what a
/// publish that copied every row would pay on top of its own work.
fn publish_p50s() -> Vec<(f64, f64)> {
    let cfg = ChemConfig::default();
    let opts = ShardedOptions::new(1).with_index(IndexOptions::default().with_dimensions(128));
    let base = chem_db(48, &cfg, SEED);
    let mut rows = base.clone();
    let mut index = ShardedIndex::build(base, opts);
    let graphs = chem_db(PUBLISH_ROWS[1].0 + PUBLISH_SAMPLES, &cfg, !SEED);
    let mut graphs = graphs.into_iter();
    let mut out = Vec::new();
    for (size, _) in PUBLISH_ROWS {
        while index.len() < size {
            let g = graphs.next().expect("enough graphs");
            rows.push(g.clone());
            index.insert(g);
        }
        let deep_ns = median_ns(DEEP_COPY_SAMPLES, || rows.clone());
        let timed: Vec<Graph> = graphs.by_ref().take(PUBLISH_SAMPLES).collect();
        rows.extend_from_slice(&timed);
        let mut timed = timed.into_iter();
        let handle = ServingHandle::new(index);
        let p50_ns = median_ns(PUBLISH_SAMPLES, || {
            handle.insert(timed.next().expect("enough graphs"))
        });
        out.push((p50_ns as f64 / 1e3, deep_ns as f64 / 1e3));
        index = (*handle.snapshot()).clone();
    }
    out
}

fn main() {
    let args = Args::parse("BENCH_wal.json", true);
    let mut gate = Gate::new("wal-smoke", args.baseline);
    let (records, fsync_records) = if args.smoke {
        (4_000, 50)
    } else {
        (20_000, 400)
    };
    let dir = std::env::temp_dir().join(format!("gdim-wal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    // Realistic payloads: encoded insert records of chem-like graphs.
    let payloads: Vec<Vec<u8>> = chem_db(64, &ChemConfig::default(), SEED)
        .into_iter()
        .map(|g| WalRecord::Insert(g).encode())
        .collect();
    let mean_payload = payloads.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len() as f64;
    eprintln!(
        "payloads: {} inserts, mean {mean_payload:.0} bytes",
        payloads.len()
    );

    let mut fields = vec![
        ("schema".to_string(), Json::Str("gdim-wal-bench-v1".into())),
        ("payload_mean_bytes".to_string(), fixed(mean_payload, 0)),
    ];
    let modes: [(&str, usize, SyncPolicy); 4] = [
        ("nosync", records, SyncPolicy::Never),
        ("group64", records, SyncPolicy::EveryN(64)),
        ("group8", records, SyncPolicy::EveryN(8)),
        ("fsync", fsync_records, SyncPolicy::Always),
    ];
    for (tag, count, policy) in modes {
        let (rps, bytes) = run_mode(&dir, tag, &payloads, count, policy);
        let mbps = bytes as f64 / 1e6 * rps / count as f64;
        eprintln!("{tag:>8}: {count} records, {rps:.0} rec/s, {mbps:.1} MB/s");
        fields.extend([
            (format!("records_{tag}"), Json::U64(count as u64)),
            (format!("append_rps_{tag}"), fixed(rps, 0)),
            (format!("mb_per_s_{tag}"), fixed(mbps, 1)),
        ]);
    }

    // Replay throughput: scan + CRC + decode of a full no-sync log.
    let replay_path = dir.join("wal-replay.log");
    let mut w = WalWriter::create(&replay_path, SyncPolicy::Never).expect("create replay log");
    for i in 0..records {
        w.append(&payloads[i % payloads.len()]).expect("append");
    }
    w.sync().expect("sync replay log");
    let replay_bytes = w.len();
    drop(w);
    let raw = std::fs::read(&replay_path).expect("read replay log");
    let t0 = Instant::now();
    let mut decoded = 0usize;
    let (frames, report) = WalReader::split(&raw);
    assert!(
        report.is_clean(),
        "replay log tail defect {:?}",
        report.defect
    );
    for payload in frames {
        let rec = WalRecord::decode(payload).expect("decodable record");
        decoded += matches!(rec, WalRecord::Insert(_) | WalRecord::Remove(_)) as usize;
    }
    let replay_secs = t0.elapsed().as_secs_f64();
    assert_eq!(decoded, records);
    let replay_rps = records as f64 / replay_secs;
    let replay_mbps = replay_bytes as f64 / 1e6 / replay_secs;
    eprintln!("  replay: {records} records, {replay_rps:.0} rec/s, {replay_mbps:.1} MB/s");
    std::fs::remove_dir_all(&dir).ok();

    fields.extend([
        ("replay_rps".to_string(), fixed(replay_rps, 0)),
        ("replay_mb_per_s".to_string(), fixed(replay_mbps, 1)),
    ]);
    let publish = publish_p50s();
    for ((rows, tag), &(us, deep_us)) in PUBLISH_ROWS.iter().zip(&publish) {
        eprintln!(
            " publish: ServingHandle::insert p50 {us:.1} us at {rows} rows/shard \
             (deep copy of its graphs {deep_us:.0} us)"
        );
        fields.extend([
            (format!("publish_us_{tag}"), fixed(us, 1)),
            (format!("deep_copy_us_{tag}"), fixed(deep_us, 1)),
        ]);
    }
    let snapshot = Json::Obj(fields);
    write_snapshot(&args.out, &snapshot, &[]);

    // Scale independence of a publish: its growth with the shard, as a
    // share of a deep copy's growth over the same rows.
    let [(publish_2k, deep_2k), (publish_16k, deep_16k)] = publish[..] else {
        unreachable!("one measurement per PUBLISH_ROWS entry");
    };
    gate.ceiling(
        "publish slope / deep-copy slope",
        (publish_16k - publish_2k) / (deep_16k - deep_2k),
        MAX_PUBLISH_SLOPE,
    );
    let (floor, ceiling) = (Rule::AtLeast(MIN_FRAC), Rule::AtMost(1.0 / MIN_FRAC));
    let checks = [
        ("append_rps_nosync", floor),
        ("publish_us_2k", ceiling),
        ("publish_us_16k", ceiling),
    ];
    gate.compare("", &[], &snapshot, &checks);
    gate.exit();
}
