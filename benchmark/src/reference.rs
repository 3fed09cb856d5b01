//! The reference loop: a fixed, harness-owned imitation of a served
//! request, timed in the gaps between the measured windows.
//!
//! The boxes this benchmark runs on share caches and memory with
//! other tenants, and their speed moves by a fifth for minutes at a
//! time. A run therefore measures the machine twice: with the program
//! under test, and with this loop, which calls nothing in the
//! repository, so no change to the product can move it. Reported
//! timings are scaled by `measured reference rate / REFERENCE_OPS_S`
//! (rates by its inverse): they read "at reference machine speed".
//! Between two sets of ten runs of `chem_large_exact` the baseline box
//! changed pace: throughput as the clock read it went from 5,131 to
//! 3,790 ops/s with a quartile spread of 21 % inside the slow set;
//! scaled, from 4,753 to 4,960 with a spread of 7 %.
//!
//! One reference operation uses what a real request uses: a loopback
//! round trip with request- and response-sized messages between a
//! client thread and a server thread, small allocations on both sides
//! (JSON), dependent loads over a buffer that misses the L2 cache
//! (VF2 over the feature graphs), and two spawned threads that each
//! popcount a shard-sized buffer (the scatter scan).

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Reference operations per second on the box the baseline was taken
/// on, in its usual state, with two clients. Only an anchor: it gives
/// scaled timings their unit and cancels out of every comparison made
/// with one copy of this file.
pub const REFERENCE_OPS_S: f64 = 10_500.0;

const REQUEST_BYTES: usize = 352;
const RESPONSE_BYTES: usize = 896;
/// Dependent loads per operation, over `CHASE_SLOTS` 4-byte slots:
/// 16 MiB, well past the L2 cache, so every load leaves the core.
const CHASE_STEPS: usize = 600;
const CHASE_SLOTS: usize = 1 << 22;
/// Words each of the two spawned threads popcounts (128 KiB).
const SCAN_WORDS: usize = 16 * 1024;
const SMALL_ALLOCS: usize = 60;

/// Buffers the operations read; built once per run.
pub struct Reference {
    chase: Vec<u32>,
    scan: Vec<u64>,
}

impl Reference {
    /// Make it before anything else in the process: the buffers then
    /// sit under every later memory peak, and [`Reference::resident_mb`]
    /// can be taken off `VmHWM` exactly.
    pub fn new() -> Reference {
        // Sattolo's shuffle: one cycle through every slot, so the
        // chase never falls into a short loop.
        let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..CHASE_SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        let scan = (0..SCAN_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        Reference { chase, scan }
    }

    /// Memory the buffers hold, in MB: the harness's, not the
    /// program's, so `rss_peak_mb` leaves it out.
    pub fn resident_mb(&self) -> f64 {
        (self.chase.len() * 4 + self.scan.len() * 8) as f64 / (1024.0 * 1024.0)
    }

    /// The server side of one operation.
    fn serve_one(&self, at: &mut u32, request: &[u8]) -> u64 {
        let parsed: Vec<Vec<u8>> = request
            .chunks(REQUEST_BYTES / SMALL_ALLOCS + 1)
            .map(<[u8]>::to_vec)
            .collect();
        for _ in 0..CHASE_STEPS {
            *at = self.chase[*at as usize];
        }
        let query = u64::from(*at) | 1;
        let scanned: u64 = std::thread::scope(|scope| {
            let legs: Vec<_> = (0..2)
                .map(|leg| {
                    scope.spawn(move || {
                        self.scan
                            .iter()
                            .map(|w| u64::from((w ^ (query << leg)).count_ones()))
                            .sum::<u64>()
                    })
                })
                .collect();
            legs.into_iter()
                .map(|l| l.join().expect("reference scan leg"))
                .sum()
        });
        scanned + parsed.len() as u64
    }

    /// One client and its server thread, ping-ponging until `stop`.
    /// Returns the pair's operations per second, timed from its first
    /// request to its last reply, so that connecting and spawning do
    /// not count and the rate does not depend on how long it ran.
    fn pair(&self, stop: &AtomicBool) -> std::io::Result<f64> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        std::thread::scope(|scope| {
            let server = scope.spawn(move || -> std::io::Result<()> {
                let (mut s, _) = listener.accept()?;
                s.set_nodelay(true)?;
                let mut request = [0u8; REQUEST_BYTES];
                let mut at = 0u32;
                while s.read_exact(&mut request).is_ok() {
                    let sum = self.serve_one(&mut at, &request);
                    let mut response = vec![0u8; RESPONSE_BYTES];
                    response[..8].copy_from_slice(&sum.to_le_bytes());
                    s.write_all(&response)?;
                }
                Ok(()) // the client hung up
            });
            let client = || -> std::io::Result<f64> {
                let mut c = TcpStream::connect(addr)?;
                c.set_nodelay(true)?;
                let mut response = [0u8; RESPONSE_BYTES];
                let mut ops = 0u64;
                let t = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    let request: Vec<u8> =
                        (0..REQUEST_BYTES).map(|i| (i as u64 + ops) as u8).collect();
                    c.write_all(&request)?;
                    c.read_exact(&mut response)?;
                    let fields: Vec<String> = response
                        .chunks(RESPONSE_BYTES / SMALL_ALLOCS + 1)
                        .map(|f| format!("{}", f[0]))
                        .collect();
                    black_box(fields);
                    ops += 1;
                }
                Ok(ops as f64 / t.elapsed().as_secs_f64())
            };
            let rate = client();
            server.join().expect("reference server thread")?;
            rate
        })
    }

    /// Runs `clients` pairs for `length` and returns operations per
    /// second, all pairs together.
    pub fn rate(&self, clients: usize, length: Duration) -> std::io::Result<f64> {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let pairs: Vec<_> = (0..clients)
                .map(|_| scope.spawn(|| self.pair(&stop)))
                .collect();
            std::thread::sleep(length);
            stop.store(true, Ordering::Relaxed);
            pairs
                .into_iter()
                .map(|p| p.join().expect("reference pair"))
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_completes_operations_and_stops_on_time() {
        let reference = Reference::new();
        let t = Instant::now();
        let rate = reference
            .rate(2, Duration::from_millis(50))
            .expect("loopback");
        assert!(rate > 0.0, "no reference operation completed");
        assert!(t.elapsed() < Duration::from_secs(5));
        assert!((16.0..17.0).contains(&reference.resident_mb()));
    }
}
