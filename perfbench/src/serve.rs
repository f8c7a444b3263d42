//! `serve_mixed`: an in-process detection server on loopback with a fresh
//! result cache per pass, driven by two closed-loop clients.  Each client
//! sends a seeded stream of SQED / SEPE-SQED submits, per-entry and
//! `batched`, drawn from a fixed key space of fast, conclusive jobs.  The
//! first sighting of a key misses and is computed and durably committed;
//! every repeat is a cache hit whose verdict must equal the cold one.
//!
//! The key space is split between the clients by mutation, so which
//! request misses does not depend on how the clients interleave.

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::ProcessorConfig;
use sepe_service::protocol::{mutation_by_name, Verdict};
use sepe_service::{
    Client, ClientConfig, ClientError, Endpoint, Server, ServerConfig, ServerReport, SubmitRequest,
    SubmitResult,
};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};

use crate::trace::Tracer;
use crate::{median, Op, Pass, Status, Workload};

/// Concurrent closed-loop clients (one per CPU of the reference machine).
pub const CLIENTS: usize = 2;
/// Requests each client sends per pass.
pub const REQUESTS_PER_CLIENT: usize = 40;
/// The verification methods of the key space.
const METHODS: [Method; 2] = [Method::Sqed, Method::SepeSqed];
/// The BMC bounds of the key space.
const BOUNDS: [usize; 2] = [2, 3];
/// The mutations of the key space: the first Table-1 bugs in the paper's
/// order.  Under the {ADD, ADDI} universe only the ADD bug can fire; the
/// others check clean.
const MUTATIONS: [&str; 6] = [
    "single-add",
    "single-sub",
    "single-xor",
    "single-or",
    "single-and",
    "single-slt",
];
/// Per-request conflict cap (never reached by these jobs).
const CONFLICT_CAP: u64 = 100_000;

/// The number of distinct cache keys.
pub const KEY_SPACE: usize = METHODS.len() * BOUNDS.len() * MUTATIONS.len();

/// The processor every request targets.
fn processor() -> ProcessorConfig {
    ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Addi])
}

/// xorshift64*: a tiny seeded generator, so the stream depends on the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6D_CDD1) >> 33) as usize % n
    }
}

/// Generates one client's request stream.
///
/// Every `REQUESTS_PER_CLIENT / groups` requests, the stream introduces the
/// next (method, bound) group: one request carrying all of the client's
/// keys of that group, the first sighting of each.  Between introductions
/// it repeats random subsets of already-introduced keys, per-entry or
/// `batched` at random.  The seed draws the repeats; the introductions sit
/// at fixed positions, so every seed computes the same keys in the same
/// requests and the cost of a pass does not depend on the seed.
fn stream(seed: u64, client: usize) -> Vec<SubmitRequest> {
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let owned: Vec<&str> = MUTATIONS
        .iter()
        .enumerate()
        .filter(|(i, _)| i % CLIENTS == client)
        .map(|(_, m)| *m)
        .collect();
    let groups: Vec<(Method, usize)> = METHODS
        .iter()
        .flat_map(|&m| BOUNDS.iter().map(move |&b| (m, b)))
        .collect();
    let every = REQUESTS_PER_CLIENT / groups.len();
    let request = |(method, bound): (Method, usize), mutations: Vec<&str>, batched| SubmitRequest {
        mutations: mutations.into_iter().map(str::to_string).collect(),
        batched,
        conflict_limit: Some(CONFLICT_CAP),
        ..SubmitRequest::new(method, bound, processor())
    };
    (0..REQUESTS_PER_CLIENT)
        .map(|i| {
            let introduced = (i / every + 1).min(groups.len());
            if i % every == 0 && i / every < groups.len() {
                // First sighting: batched at the deeper bound, per-entry at
                // the shallower one, whatever the seed.
                let group = groups[i / every];
                return request(group, owned.clone(), group.1 == BOUNDS[1]);
            }
            let group = groups[rng.below(introduced)];
            let mut pool = owned.clone();
            let entries = 1 + rng.below(pool.len());
            let mutations = (0..entries)
                .map(|_| pool.remove(rng.below(pool.len())))
                .collect();
            request(group, mutations, rng.below(2) == 0)
        })
        .collect()
}

/// A running server and its cache directory.
struct Running {
    dir: PathBuf,
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServerReport>>,
}

/// The workload.
pub struct ServeMixed {
    seed: u64,
    streams: Vec<Vec<SubmitRequest>>,
    server: Option<Running>,
    servers_started: u64,
}

impl ServeMixed {
    /// A workload whose request streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        ServeMixed {
            seed,
            streams: Vec::new(),
            server: None,
            servers_started: 0,
        }
    }
}

/// One request's result as its client saw it.
struct Sent {
    client: usize,
    index: usize,
    latency: Duration,
    result: Result<SubmitResult, ClientError>,
}

fn key(request: &SubmitRequest, label: &str) -> String {
    format!("{}|{}|{label}", request.method, request.bound)
}

impl Workload for ServeMixed {
    fn setup(&mut self) {
        self.streams = (0..CLIENTS).map(|c| stream(self.seed, c)).collect();
        self.servers_started += 1;
        let dir = PathBuf::from(".perfbench-cache").join(format!(
            "serve-{}-{}",
            std::process::id(),
            self.servers_started
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let endpoint = Endpoint::Tcp(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)));
        let config = ServerConfig {
            // Teardown happens with nothing in flight: no grace to wait out.
            drain_grace: Duration::from_millis(10),
            ..ServerConfig::new(endpoint, &dir)
        };
        let server = Server::bind(config).expect("bind the loopback server");
        let addr = server.local_addr().expect("a TCP endpoint has an address");
        // The listener is bound: connections queue until `run` accepts them.
        let handle = std::thread::spawn(move || server.run());
        self.server = Some(Running { dir, addr, handle });
    }

    fn teardown(&mut self) {
        if let Some(running) = self.server.take() {
            Client::new(Endpoint::Tcp(running.addr))
                .shutdown()
                .expect("graceful shutdown");
            running
                .handle
                .join()
                .expect("server thread")
                .expect("server drained");
            std::fs::remove_dir_all(&running.dir).expect("remove the cache directory");
            let _ = std::fs::remove_dir(".perfbench-cache");
        }
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let addr = self.server.as_ref().expect("set up").addr;
        let streams = &self.streams;
        let start = Instant::now();
        let mut sent: Vec<Sent> = std::thread::scope(|s| {
            let workers: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(client, requests)| {
                    s.spawn(move || {
                        let c = Client::with_config(ClientConfig {
                            seed: client as u64 + 1,
                            ..ClientConfig::new(Endpoint::Tcp(addr))
                        });
                        requests
                            .iter()
                            .enumerate()
                            .map(|(index, request)| {
                                let t = Instant::now();
                                let result = match tracer {
                                    None => c.submit(request),
                                    Some(tr) => {
                                        let op = (client * REQUESTS_PER_CLIENT + index) as u64;
                                        tr.op(op, "op", |ctx| {
                                            ctx.opaque("service.client", |_| c.submit(request))
                                        })
                                    }
                                };
                                Sent {
                                    client,
                                    index,
                                    latency: t.elapsed(),
                                    result,
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed();
        sent.sort_by_key(|s| (s.client, s.index));
        let stats = Client::new(Endpoint::Tcp(addr))
            .stats()
            .expect("stats reply");

        let mut pass = Pass {
            wall,
            ..Pass::default()
        };
        pass.counts.add(
            "service.server.busy_rejections",
            Client::counter(&stats, "busy_rejections") as f64,
        );
        // Cold verdict and first hit frame per key, per client.
        let mut cold: BTreeMap<String, Verdict> = BTreeMap::new();
        let mut hit_frames: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let (mut hit_lat, mut miss_lat) = (Vec::new(), Vec::new());
        let mut overheads = Vec::new();
        for s in &sent {
            let request = &streams[s.client][s.index];
            let label = format!("client{}/req{}", s.client, s.index);
            let status = match &s.result {
                Err(e) => Status::Failed(format!("submit failed: {e}")),
                Ok(r) => judge(request, r, &mut cold, &mut hit_frames),
            };
            if let Ok(r) = &s.result {
                let c = &mut pass.counts;
                c.add("service.cache.hits", r.done.from_cache as f64);
                c.add("service.cache.misses", r.done.computed as f64);
                c.add("core.engine.encodes", r.done.encodes as f64);
                c.add(
                    "service.client.retries",
                    f64::from(r.attempts.saturating_sub(1)),
                );
                let bytes: usize = r.raw_verdict_frames.iter().map(Vec::len).sum();
                c.add("service.protocol.reply_bytes", bytes as f64);
                let f = &mut pass.facts;
                let prefix = format!("client{}", s.client);
                *f.entry(format!("{prefix}.hits")).or_default() += r.done.from_cache;
                *f.entry(format!("{prefix}.misses")).or_default() += r.done.computed;
                *f.entry(format!("{prefix}.miss_requests")).or_default() +=
                    u64::from(r.done.computed > 0);
                *f.entry(format!("{prefix}.conflicts")).or_default() +=
                    r.verdicts.iter().map(|v| v.conflicts).sum::<u64>();
                *f.entry(format!("{prefix}.detected")).or_default() +=
                    r.verdicts.iter().filter(|v| v.detected).count() as u64;
                if r.done.computed > 0 {
                    miss_lat.push(s.latency.as_secs_f64());
                    if tracer.is_some() && !request.batched {
                        overheads.push(s.latency.as_secs_f64() - direct_secs(request, r));
                    }
                } else {
                    hit_lat.push(s.latency.as_secs_f64());
                }
            }
            pass.ops.push(Op {
                label,
                latency: s.latency,
                status,
            });
        }
        if !overheads.is_empty() {
            pass.counts
                .add("service.server.overhead_s", median(&overheads));
        }
        let requests = sent.len() as f64;
        pass.extra = vec![
            ("throughput_rps", requests / wall.as_secs_f64(), "req/s"),
            ("hit_p50_s", median(&hit_lat), "s"),
            ("miss_p50_s", median(&miss_lat), "s"),
            ("miss_share", miss_lat.len() as f64 / requests, "ratio"),
        ];
        pass
    }

    fn describe(&self) -> String {
        format!(
            "seed {}, {CLIENTS} closed-loop clients x {REQUESTS_PER_CLIENT} requests, key space {KEY_SPACE} (methods x bounds {BOUNDS:?} x {} mutations), fresh cache per pass",
            self.seed,
            MUTATIONS.len()
        )
    }
}

/// The oracle for one reply: every entry answered conclusively, no SQED
/// detection, every counterexample self-checked, and every hit equal to
/// the key's cold verdict (up to the `cached` flag) with frame bytes that
/// repeat exactly from hit to hit.
fn judge(
    request: &SubmitRequest,
    reply: &SubmitResult,
    cold: &mut BTreeMap<String, Verdict>,
    hit_frames: &mut BTreeMap<String, Vec<u8>>,
) -> Status {
    if reply.verdicts.len() != request.mutations.len() {
        return Status::Failed(format!(
            "{} verdicts for {} entries",
            reply.verdicts.len(),
            request.mutations.len()
        ));
    }
    let mut status = Status::Ok;
    for (verdict, frame) in reply.verdicts.iter().zip(&reply.raw_verdict_frames) {
        let k = key(request, &verdict.label);
        let problem = if verdict.inconclusive {
            Some(Status::Failed(format!(
                "{k}: inconclusive ({:?})",
                verdict.stop_reason
            )))
        } else if verdict.detected && verdict.witness_validated != Some(true) {
            Some(Status::Wrong(format!(
                "{k}: counterexample without a passing self-check"
            )))
        } else if verdict.detected && request.method == Method::Sqed {
            Some(Status::Wrong(format!(
                "{k}: SQED detected a single-instruction bug"
            )))
        } else if !verdict.cached {
            if cold.insert(k.clone(), verdict.clone()).is_some() {
                Some(Status::Failed(format!("{k}: committed key computed again")))
            } else {
                None
            }
        } else {
            let mut as_cold = verdict.clone();
            as_cold.cached = false;
            match cold.get(&k) {
                None => Some(Status::Wrong(format!(
                    "{k}: hit for a key this client never computed"
                ))),
                Some(c) if *c != as_cold => Some(Status::Wrong(format!(
                    "{k}: hit differs from the cold verdict"
                ))),
                Some(_) => match hit_frames.get(&k) {
                    Some(first) if first != frame => Some(Status::Wrong(format!(
                        "{k}: hit frame bytes differ between hits"
                    ))),
                    Some(_) => None,
                    None => {
                        hit_frames.insert(k, frame.clone());
                        None
                    }
                },
            }
        };
        match problem {
            Some(Status::Wrong(w)) => return Status::Wrong(w),
            Some(failed) if status == Status::Ok => status = failed,
            _ => {}
        }
    }
    status
}

/// Host time of the request's computed entries run directly on a
/// detector, with the configuration the server derives from the request.
fn direct_secs(request: &SubmitRequest, reply: &SubmitResult) -> f64 {
    let config = DetectorConfig::builder()
        .processor(request.processor.clone())
        .bound(request.bound)
        .conflict_limit(CONFLICT_CAP)
        .build();
    let detector = Detector::new(config);
    reply
        .verdicts
        .iter()
        .filter(|v| !v.cached)
        .map(|v| {
            let mutation = mutation_by_name(&v.label);
            let t = Instant::now();
            detector.check(request.method, mutation.as_ref());
            t.elapsed().as_secs_f64()
        })
        .sum()
}
