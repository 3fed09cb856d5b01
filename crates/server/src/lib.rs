//! # gdim-server — serving the index over the network
//!
//! The network layer over `gdim-shard`'s concurrent serving runtime:
//! a hand-rolled HTTP/1.1 + JSON stack built entirely on `std::net`,
//! so the workspace stays dependency-free end to end.
//!
//! * [`json`] — a small JSON value type with **bit-faithful** number
//!   round-trips (shortest-representation floats, exact integers).
//! * [`http`] — an incremental, bounded HTTP/1.1 request parser and
//!   response writer with typed protocol errors.
//! * [`wire`] — the endpoint schema: `SearchRequest` /
//!   `SearchResponse` / graphs ⇄ JSON, the one-pass decoders for
//!   compact `/search` and `/insert` bodies, and the pinned
//!   `GdimError` → HTTP-status mapping.
//! * [`server`] — [`GdimServer`]: acceptor + worker pool +
//!   keep-alive connection loop + graceful drain.
//! * [`result_cache`] — each worker's table of earlier `/search`
//!   answers, keyed by snapshot and body bytes.
//! * [`client`] — [`Client`]: a keep-alive client speaking the same
//!   protocol, shared by the CLI, tests, and the load harness.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Body | Answer |
//! |---|---|---|---|
//! | `/search` | POST | `{"query": {"id": n} \| {"graph": …}, "k", "ranker"}`; ranking is binary (`"mapping": "binary"` is accepted, any other value is a 400) | `{"hits", "stats"}` |
//! | `/search_batch` | POST | `{"queries": […], …options}` | `{"responses": […]}`, one `/search` answer per query |
//! | `/insert` | POST | `{"graph": {"v": […], "e": [[u,v,label]…]}}` | `{"id", "version"}` |
//! | `/remove` | POST | `{"id": n}` | `{"removed", "version"}` |
//! | `/rebuild` | POST | `{"mode": "sync" \| "background"}` | `{"swapped"\|"started", …}` |
//! | `/checkpoint` | POST | — | `{"generation", "wal_records"}` (durable mode only) |
//! | `/stats` | GET | — | index + serving counters, per-endpoint latency, slow-query log |
//! | `/metrics` | GET | — | Prometheus text exposition (latency/stage histograms, gauges) |
//! | `/health` | GET | — | `{"ok": true, "version"}` |
//! | `/shutdown` | POST | — | `{"stopping": true}`, then the server drains |
//!
//! Every response carries an `X-Gdim-Request-Id` header — echoed from
//! the request when the client sent one, minted otherwise — and slow
//! or 5xx requests are logged to stderr with the same id, so a client
//! report and a server log line are joinable. All serving counters are
//! process-lifetime: they reset to zero on restart and are never reset
//! by rebuilds or checkpoints.
//!
//! Errors answer `{"error": {"code": "...", "message": "..."}}` with
//! the status from [`wire::gdim_error_status`] (application errors)
//! or [`http::HttpError::status`] (protocol errors).
//!
//! ```no_run
//! use gdim_server::{Client, GdimServer, ServerConfig, Json};
//! # fn handle() -> gdim_shard::ServingHandle { unimplemented!() }
//! let server = GdimServer::start(handle(), ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let body = Json::obj([
//!     ("query", Json::obj([("id", Json::U64(0))])),
//!     ("k", Json::U64(5)),
//! ]);
//! let (status, hits) = client.post("/search", &body)?;
//! assert_eq!(status, 200);
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;
pub(crate) mod metrics;
pub mod result_cache;
pub mod server;
pub mod wire;

pub use client::Client;
pub use json::{parse as parse_json, Json};
pub use server::{GdimServer, ServerConfig};
pub use wire::QuerySpec;
