//! `wal_baseline` — the durability-cost harness behind the committed
//! `BENCH_wal.json` snapshot: append throughput of the write-ahead log
//! under each [`SyncPolicy`] (no-sync, group commit at several batch
//! sizes, fsync-per-record) plus replay (scan + decode) throughput,
//! over realistic mutation payloads (encoded chem-like graphs) — and
//! the in-memory half of a durable write, the copy-on-write **publish**:
//! the p50 of `ServingHandle::insert` on a one-shard index grown to
//! 2,000 and to 16,000 rows in the same run.
//!
//! ```text
//! cargo run --release -p gdim-bench --bin wal_baseline -- \
//!     [--out PATH] [--records N] [--fsync-records N] [--seed S]
//!     [--baseline PATH] [--min-frac F]
//! ```
//!
//! Every timed log is re-scanned afterwards and must replay **clean**
//! (every record back, byte-identical, no tail defect) — the harness
//! refuses to publish a throughput number for a log it cannot recover.
//!
//! Gate (`--baseline` reads a committed snapshot): fail if the fresh
//! no-sync append rate drops below `F ×` the committed one (default
//! 0.2 — generous, the committed number may come from different
//! hardware). The fsync-bound rows are reported but not gated: they
//! measure the disk, not the code. The publish rows are gated twice:
//! each against the committed one with the same `F` (fail above
//! `committed / F` µs), and against each other — `publish_us_16k` must
//! not exceed `2 × publish_us_2k`. That ratio is same-run and
//! same-machine, so no box speed can fake it: a publish that copies the
//! shard is linear in rows (ratio ~6–8), one that shares it is flat.

use std::time::Instant;

use gdim_core::IndexOptions;
use gdim_datagen::{chem_db, ChemConfig};
use gdim_server::{parse_json, Json};
use gdim_shard::{ServingHandle, ShardedIndex, ShardedOptions};
use gdim_wal::{SyncPolicy, WalReader, WalRecord, WalWriter};

/// Shard sizes the publish section measures at, and timed inserts per
/// size.
const PUBLISH_ROWS: [(usize, &str); 2] = [(2_000, "2k"), (16_000, "16k")];
const PUBLISH_SAMPLES: usize = 256;

struct Args {
    out: String,
    records: usize,
    fsync_records: usize,
    seed: u64,
    baseline: Option<String>,
    min_frac: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_wal.json".to_string(),
        records: 20_000,
        fsync_records: 400,
        seed: 42,
        baseline: None,
        min_frac: 0.2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => args.out = value("--out"),
            "--records" => args.records = value("--records").parse().expect("--records: integer"),
            "--fsync-records" => {
                args.fsync_records = value("--fsync-records")
                    .parse()
                    .expect("--fsync-records: integer")
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--min-frac" => {
                args.min_frac = value("--min-frac").parse().expect("--min-frac: number")
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(args.records >= 1 && args.fsync_records >= 1);
    args
}

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
/// in one pass so both sizes come from the same run.
fn publish_p50s(seed: u64) -> Vec<f64> {
    let cfg = ChemConfig::default();
    let opts = ShardedOptions::new(1).with_index(IndexOptions::default().with_dimensions(128));
    let mut index = ShardedIndex::build(chem_db(48, &cfg, seed), opts);
    let graphs = chem_db(PUBLISH_ROWS[1].0 + PUBLISH_SAMPLES, &cfg, !seed);
    let mut graphs = graphs.into_iter();
    let mut out = Vec::new();
    for (rows, _) in PUBLISH_ROWS {
        while index.len() < rows {
            index.insert(graphs.next().expect("enough graphs"));
        }
        let handle = ServingHandle::new(index);
        let mut us: Vec<f64> = (0..PUBLISH_SAMPLES)
            .map(|_| {
                let g = graphs.next().expect("enough graphs");
                let t0 = Instant::now();
                handle.insert(g);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        us.sort_by(f64::total_cmp);
        out.push(us[us.len() / 2]);
        index = (*handle.snapshot()).clone();
    }
    out
}

fn main() {
    let args = parse_args();
    let dir = std::env::temp_dir().join(format!("gdim-wal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    // Realistic payloads: encoded insert records of chem-like graphs.
    let payloads: Vec<Vec<u8>> = chem_db(64, &ChemConfig::default(), args.seed)
        .into_iter()
        .map(|g| WalRecord::Insert(g).encode())
        .collect();
    let mean_payload = payloads.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len() as f64;
    eprintln!(
        "payloads: {} encoded inserts, mean {:.0} bytes",
        payloads.len(),
        mean_payload
    );

    let modes: [(&str, usize, SyncPolicy); 4] = [
        ("nosync", args.records, SyncPolicy::Never),
        ("group64", args.records, SyncPolicy::EveryN(64)),
        ("group8", args.records, SyncPolicy::EveryN(8)),
        ("fsync", args.fsync_records, SyncPolicy::Always),
    ];
    let mut rows = Vec::new();
    for (tag, count, policy) in modes {
        let (rps, bytes) = run_mode(&dir, tag, &payloads, count, policy);
        let mbps = bytes as f64 / 1e6 * rps / count as f64;
        eprintln!("{tag:>8}: {count} records, {rps:.0} rec/s, {mbps:.1} MB/s");
        rows.push((tag, count, rps, mbps));
    }

    // Replay throughput: scan + CRC + decode of a full no-sync log.
    let replay_path = dir.join("wal-replay.log");
    let mut w = WalWriter::create(&replay_path, SyncPolicy::Never).expect("create replay log");
    for i in 0..args.records {
        w.append(&payloads[i % payloads.len()]).expect("append");
    }
    w.sync().expect("sync replay log");
    let replay_bytes = w.len();
    drop(w);
    let raw = std::fs::read(&replay_path).expect("read replay log");
    let t0 = Instant::now();
    let mut decoded = 0u64;
    let (frames, report) = WalReader::split(&raw);
    assert!(
        report.is_clean(),
        "replay log tail defect {:?}",
        report.defect
    );
    for payload in frames {
        let rec = WalRecord::decode(payload).expect("decodable record");
        decoded += matches!(rec, WalRecord::Insert(_) | WalRecord::Remove(_)) as u64;
    }
    let replay_secs = t0.elapsed().as_secs_f64();
    assert_eq!(decoded, args.records as u64);
    let replay_rps = args.records as f64 / replay_secs;
    let replay_mbps = replay_bytes as f64 / 1e6 / replay_secs;
    eprintln!(
        "  replay: {} records, {replay_rps:.0} rec/s, {replay_mbps:.1} MB/s",
        args.records
    );
    std::fs::remove_dir_all(&dir).ok();

    let publish = publish_p50s(args.seed);
    for ((rows, _), us) in PUBLISH_ROWS.iter().zip(&publish) {
        eprintln!(" publish: ServingHandle::insert p50 {us:.1} us at {rows} rows/shard");
    }

    let mut body = format!(
        "{{\n  \"schema\": \"gdim-wal-bench-v1\",\n  \"payload_mean_bytes\": {mean_payload:.0},\n"
    );
    for (tag, count, rps, mbps) in &rows {
        body.push_str(&format!(
            "  \"records_{tag}\": {count},\n  \"append_rps_{tag}\": {rps:.0},\n  \
             \"mb_per_s_{tag}\": {mbps:.1},\n"
        ));
    }
    body.push_str(&format!(
        "  \"replay_rps\": {replay_rps:.0},\n  \"replay_mb_per_s\": {replay_mbps:.1},\n"
    ));
    body.push_str(&format!(
        "  \"publish_us_2k\": {:.1},\n  \"publish_us_16k\": {:.1}\n}}\n",
        publish[0], publish[1]
    ));
    std::fs::write(&args.out, &body).expect("write snapshot");
    eprintln!("wrote {}", args.out);

    // Scale independence of a publish: same run, same machine.
    let mut failed = false;
    let flat = publish[1] <= 2.0 * publish[0];
    eprintln!(
        "wal-smoke: publish {:.1} us at 16k rows vs {:.1} us at 2k (limit 2x) .. {}",
        publish[1],
        publish[0],
        if flat { "ok" } else { "FAIL" }
    );
    failed |= !flat;

    // The gates against the committed snapshot: fresh no-sync append
    // rate, and each publish row as a rate (1/us).
    if let Some(path) = &args.baseline {
        let committed =
            parse_json(&std::fs::read_to_string(path).expect("read committed baseline"))
                .expect("parse committed baseline");
        let committed = |key: &str| {
            committed
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("committed {key}"))
        };
        let want = committed("append_rps_nosync");
        let fresh = rows[0].2;
        let floor = want * args.min_frac;
        let ok = fresh >= floor;
        eprintln!(
            "wal-smoke: fresh {fresh:.0} rec/s vs committed {want:.0} (floor {floor:.0}) .. {}",
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
        for ((_, tag), &fresh) in PUBLISH_ROWS.iter().zip(&publish) {
            let want = committed(&format!("publish_us_{tag}"));
            let ceiling = want / args.min_frac;
            let ok = fresh <= ceiling;
            eprintln!(
                "wal-smoke: publish_us_{tag} fresh {fresh:.1} vs committed {want:.1} (ceiling {ceiling:.1}) .. {}",
                if ok { "ok" } else { "FAIL" }
            );
            failed |= !ok;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
