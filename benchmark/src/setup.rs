//! Set-up: fixtures → DSPM build → bulk load → (ANN build) →
//! (durable create) → server on loopback answering `/health`.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gdim::core::{IndexOptions, RebuildPolicy, SelectionStrategy};
use gdim::graph::Graph;
use gdim::server::{Client, GdimServer, ServerConfig};
use gdim::shard::{
    DurableHandle, ServingHandle, ShardId, ShardedIndex, ShardedOptions, SyncPolicy,
};

use crate::env::{clients, out_dir};
use crate::gen::{base_graphs, bulk_graphs, query_pool};
use crate::spec::{Kind, Workload, DIMENSIONS, SHARDS};

/// A request that gets no answer for this long counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Where one set-up spent its time.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Fixture generation start until the server answers `/health`.
    pub total_s: f64,
    pub mine_s: f64,
    pub features: usize,
    pub delta_s: f64,
    pub delta_pairs: usize,
    pub select_s: f64,
    pub build_s: f64,
    pub bulk_insert_us_per_graph: f64,
    pub ann_build_s: f64,
    pub durable_create_s: f64,
}

/// A directory under `benchmark/out/` that is deleted when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// `out/<name>-<pid>`, emptied.
    pub fn new(name: &str) -> ScratchDir {
        let dir = out_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A served index and what the harness keeps beside it.
pub struct Served {
    pub server: GdimServer,
    pub addr: SocketAddr,
    pub pool: Vec<Graph>,
    /// The base index before bulk load, kept only when asked for
    /// (`precision_at_10` ranks against it).
    pub base_index: Option<ShardedIndex>,
    pub durable_dir: Option<ScratchDir>,
    pub times: SetupTimes,
}

pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    Ok(Client::connect(addr)?.with_timeout(REQUEST_TIMEOUT))
}

/// Runs one full set-up. `keep_base` clones the base index before the
/// bulk load (cheap: shards are shared until the first insert).
pub fn setup(w: &Workload, keep_base: bool) -> Result<Served, String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let base = base_graphs(w);
    let bulk = bulk_graphs(w);
    let pool = query_pool(w, &base, &bulk);

    let tb = Instant::now();
    let opts = ShardedOptions::new(SHARDS).with_index(
        IndexOptions::default()
            .with_dimensions(DIMENSIONS)
            .with_strategy(SelectionStrategy::Dspm)
            .with_rebuild_policy(RebuildPolicy {
                max_inserts: usize::MAX,
                max_tombstone_frac: 1.0,
            }),
    );
    let mut index = ShardedIndex::build(base, opts);
    times.build_s = tb.elapsed().as_secs_f64();
    let stats = index
        .shard(ShardId(0))
        .map_err(|e| e.to_string())?
        .stats()
        .clone();
    times.mine_s = stats.mining_time.as_secs_f64();
    times.features = stats.mined_features;
    times.delta_s = stats.delta_time.as_secs_f64();
    times.delta_pairs = stats.delta_pairs;
    times.select_s = stats.selection_time.as_secs_f64();
    let base_index = keep_base.then(|| index.clone());

    let ti = Instant::now();
    for g in &bulk {
        index.insert(g.clone());
    }
    times.bulk_insert_us_per_graph = ti.elapsed().as_secs_f64() * 1e6 / bulk.len().max(1) as f64;
    for seq in w.rows - w.pre_removed()..w.rows {
        let id = index
            .id_for_seq(seq as u64)
            .ok_or_else(|| format!("row {seq} has no id"))?;
        index.remove(id).map_err(|e| e.to_string())?;
    }

    if w.kind == Kind::LargeApprox {
        let ta = Instant::now();
        for s in 0..index.shard_count() {
            index
                .shard(ShardId(s as u32))
                .map_err(|e| e.to_string())?
                .ann();
        }
        times.ann_build_s = ta.elapsed().as_secs_f64();
    }

    let cfg = ServerConfig::new().with_workers(clients().max(2));
    let (server, durable_dir) = if w.durable() {
        let dir = ScratchDir::new(&format!("durable-{}", w.name));
        let td = Instant::now();
        let durable =
            DurableHandle::create(&dir.0, index, SyncPolicy::Always).map_err(|e| e.to_string())?;
        times.durable_create_s = td.elapsed().as_secs_f64();
        let server = GdimServer::start_durable(durable, cfg).map_err(|e| e.to_string())?;
        (server, Some(dir))
    } else {
        let server =
            GdimServer::start(ServingHandle::new(index), cfg).map_err(|e| e.to_string())?;
        (server, None)
    };
    let addr = server.addr();
    let (status, _) = connect(addr)
        .and_then(|mut c| c.get("/health"))
        .map_err(|e| format!("/health: {e}"))?;
    if status != 200 {
        return Err(format!("/health answered {status}"));
    }
    times.total_s = t0.elapsed().as_secs_f64();
    Ok(Served {
        server,
        addr,
        pool,
        base_index,
        durable_dir,
        times,
    })
}
