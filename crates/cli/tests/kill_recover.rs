//! Kill-and-reopen: SIGKILL a real `gdim serve --durable` process mid
//! mutation load and prove **zero acked mutations are lost** across
//! repeated crash/restart cycles on the same durable directory.
//!
//! Each round spawns the actual `gdim` binary, hammers `/insert` from
//! a client thread, and `kill -9`s the server while requests are in
//! flight — no shutdown handler, no flush-on-exit, nothing graceful.
//! After the last kill the directory is reopened in-process and every
//! `(id, graph)` pair that got a 200 must be present and bit-equal.
//! (The converse — recovery contains *exactly* the acked prefix — is
//! the crash-cut proptest in `tests/durable_recovery.rs`.)

#![cfg(unix)]

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gdim_graph::Graph;
use gdim_server::{wire, Client, Json};
use gdim_shard::{DurableHandle, SyncPolicy};

mod serve_child;
use serve_child::ServeChild;

const BASE_GRAPHS: usize = 12;

fn free_port() -> u16 {
    // Bind :0, read the assigned port, drop the listener; the child
    // binds it a moment later (rebind races are retried by the loop).
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn spawn_server(dir: &std::path::Path, addr: &str, first: bool) -> ServeChild {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gdim"));
    cmd.args(["serve", "--durable"])
        .arg(dir)
        .args(["--addr", addr, "--fsync", "always"]);
    if first {
        // Seed the store on the first boot; later boots must recover.
        cmd.args(["--synthetic", "12", "--dimensions", "12", "--shards", "2"]);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    ServeChild(cmd.spawn().expect("spawn gdim serve"))
}

fn wait_healthy(addr: &str, child: &mut Child) -> Client {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("server exited before becoming healthy: {status}");
        }
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.get("/health"), Ok((200, _))) {
                return c;
            }
        }
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn sigkill(child: &mut Child) {
    let status = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status()
        .expect("run kill -9");
    assert!(status.success(), "kill -9 failed");
    child.wait().expect("reap killed server");
}

#[test]
fn sigkilled_durable_server_loses_zero_acked_mutations() {
    let dir = std::env::temp_dir().join(format!("gdim-kill-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut acked: Vec<(u32, Graph)> = Vec::new();
    for round in 0u64..3 {
        let addr = format!("127.0.0.1:{}", free_port());
        let mut child = spawn_server(&dir, &addr, round == 0);
        let mut client = wait_healthy(&addr, &mut child);

        // Rebooted servers must have recovered every earlier ack
        // before serving: the log replays before the port opens.
        let (status, stats) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        assert_eq!(stats.get("durable"), Some(&Json::Bool(true)));
        let live = stats.get("live_graphs").and_then(Json::as_u64).unwrap();
        assert!(
            live >= (BASE_GRAPHS + acked.len()) as u64,
            "round {round}: recovered {live} live rows, acked {}",
            acked.len()
        );

        // Hammer inserts from a thread; each Ok(200) is an ack the
        // server is never allowed to forget.
        let (tx, rx) = mpsc::channel::<(u32, Graph)>();
        let load = std::thread::spawn(move || {
            let batch =
                gdim_datagen::chem_db(40, &gdim_datagen::ChemConfig::default(), 1000 + round);
            for g in batch {
                let body = Json::obj([("graph", wire::graph_to_json(&g))]);
                // A kill mid-request surfaces as an error or non-200;
                // either way the mutation was not acked and owes nothing.
                match client.post("/insert", &body) {
                    Ok((200, reply)) => {
                        let id = reply.get("id").and_then(Json::as_u64).unwrap() as u32;
                        tx.send((id, g)).unwrap();
                    }
                    _ => break,
                }
            }
        });

        // Let some acks land, then murder the server mid-load.
        let killed_at = Instant::now() + Duration::from_millis(300);
        while Instant::now() < killed_at {
            std::thread::sleep(Duration::from_millis(10));
        }
        sigkill(&mut child);
        load.join().unwrap();
        acked.extend(rx);
    }
    assert!(
        !acked.is_empty(),
        "load never landed a single ack; the harness is broken"
    );

    // Final reopen, in-process: every acked mutation survived three
    // SIGKILLs, bit-equal under its acked id.
    let report = DurableHandle::verify(&dir).expect("offline verify");
    assert!(report.wal_records >= 1);
    let (recovered, _) = DurableHandle::open(&dir, SyncPolicy::Always).expect("reopen after kill");
    let snap = recovered.serving().snapshot();
    assert!(snap.live_len() >= BASE_GRAPHS + acked.len());
    for (id, g) in &acked {
        let got = snap
            .graph(gdim_core::search::GraphId(*id))
            .unwrap_or_else(|e| panic!("acked graph {id} lost after SIGKILL: {e}"));
        assert_eq!(got, g, "acked graph {id} corrupted");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
