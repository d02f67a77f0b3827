//! `serve_hot` and `serve_cold`: open-loop traffic against the real
//! `hls_congest serve` daemon over loopback.
//!
//! * `serve_hot` mixes `predict` requests of 1–128 suite feature rows with
//!   `source` requests drawn from a pool smaller than the feature cache, so
//!   every repeat is a cache hit.
//! * `serve_cold` sends a fresh seeded MiniHLS kernel in every `source`
//!   request (every cache lookup misses) and hot-swaps between two
//!   gate-passing artifacts every [`SWAP_EVERY`] requests.
//!
//! The load generator is one process, one pipelined `TCP_NODELAY`
//! connection and two threads (sender and receiver). Frames are encoded
//! before a phase starts and each goes out in one write; every request is
//! timed from the moment it was due.

use crate::stats::{self, median, quantile, Rng};
use crate::trace::Tracer;
use crate::{kernels, paper, Args, Outcome};
use congestion_core::dataset::Target;
use congestion_core::features::FEATURE_COUNT;
use congestion_core::pipeline::CongestionFlow;
use congestion_core::predict::{CongestionPredictor, ModelKind, TrainOptions};
use congestion_core::CongestionDataset;
use mlkit::{CompiledEnsemble, Matrix};
use servekit::{
    GoldenBatch, ModelArtifact, ModelRegistry, Reply, ReplyStatus, Request, RequestBody,
    ValidationGate,
};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Cold,
}

/// Nominal open-loop rate (requests/s) of both workloads: about half the
/// lowest sustained rate of the baseline sweep (`serve_cold`, ~900 req/s
/// on the 2-core reference host), so the daemon is well under capacity.
const NOMINAL_RPS: f64 = 450.0;
/// p99 latency limit (ms) a rate must meet to count as sustained, from the
/// baseline probes: well under capacity, host stalls alone pushed p99 to
/// 10-70 ms; overloaded probes reached 120 ms to 2 s.
const LIMIT_MS: f64 = 100.0;
/// Daemons per run, each set up from scratch.
const ROUNDS: usize = 3;
/// The least requests per nominal window: p99 then has ten samples beyond
/// it.
const MIN_WINDOW: usize = 1000;
/// How a workload's rate ladders run (README, "Serving rounds").
struct LadderSpec {
    /// The first rung, as a multiple of the nominal rate: the rung under
    /// the lowest sustained rate of the workload's baseline probes.
    start: f64,
    /// Requests per probe.
    probe_requests: usize,
    /// Ladders per daemon, back to back.
    per_round: usize,
}

/// `serve_hot` has a sharp knee: longer probes end overloaded rungs far
/// over the limit and dilute short host stalls. `serve_cold`'s p99 under
/// capacity grows with probe length (20-250 ms at 900-1125 req/s with 2000
/// requests), so it runs twice as many short probes instead.
const fn ladder_spec(mix: Mix) -> LadderSpec {
    match mix {
        Mix::Hot => LadderSpec {
            start: 2.5,
            probe_requests: 2000,
            per_round: 1,
        },
        Mix::Cold => LadderSpec {
            start: 2.0,
            probe_requests: 1000,
            per_round: 2,
        },
    }
}
/// Rungs climb by this factor until one fails or [`LADDER_RUNGS`] ran.
const LADDER_STEP: f64 = 1.25;
const LADDER_RUNGS: usize = 12;
/// The latency a reply that is not `Ok` counts as when the ladder
/// interpolates p99: twenty times the limit, so it misses the limit by far
/// while the interpolation stays finite.
const FAILED_LATENCY_MS: f64 = 20.0 * LIMIT_MS;
/// Distinct row sets per predict size in `serve_hot`.
const PREDICT_VARIANTS: usize = 16;
/// Distinct kernels in `serve_hot`'s source pool (the cache holds 64).
const HOT_POOL: usize = 16;
/// `serve_cold` sends a swap every this many requests.
const SWAP_EVERY: usize = 250;
/// Outstanding requests during the saturation burst (under the daemon's
/// queue capacity, so nothing is shed).
const BURST_WINDOW: usize = 32;
/// Requests in the saturation burst.
const BURST_REQUESTS: usize = 2000;
/// Saturation bursts per round, back to back before the rate ladders: a
/// burst right after an overloaded ladder probe often ran ~30% slower.
const BURSTS: usize = 2;
/// Admission queue bound: a host stall of ~0.5 s at the nominal rate
/// queues instead of shedding (the default of 64 sheds after ~0.15 s).
const QUEUE_CAPACITY: &str = "256";
/// Swap-gate MAE band (pp) on the golden batch; the daemon's default of 25
/// rejects the suite-trained GBRT, whose held-out vertical MAE is ~26.
const MAE_BAND: &str = "40";
/// The generator counts as behind when its median send lateness exceeds
/// the first or its p99 lateness the second.
const LATE_P50_LIMIT_MS: f64 = 1.0;
const LATE_P99_LIMIT_MS: f64 = LIMIT_MS / 2.0;

// ---------------------------------------------------------------- inputs --

/// One request of a stream, in a form both the daemon (as a frame) and the
/// in-process reference can consume.
#[derive(Clone)]
enum Body {
    /// Indices of suite dataset rows.
    Predict(Vec<usize>),
    Source {
        name: String,
        text: String,
    },
    /// Swap to artifact 0 or 1.
    Swap(usize),
}

struct Item {
    id: u64,
    body: Body,
    frame: Vec<u8>,
}

/// Everything set-up prepares.
struct Prepared {
    data: CongestionDataset,
    artifacts: Vec<ModelArtifact>,
    artifact_paths: Vec<PathBuf>,
    golden_path: PathBuf,
    /// Held-out MAE of the served artifact (V, H).
    mae: (f64, f64),
}

fn train_artifact(
    train: &CongestionDataset,
    version: u64,
    effort: f64,
) -> Result<ModelArtifact, String> {
    let opts = TrainOptions {
        effort,
        ..TrainOptions::default()
    };
    let fit = |target| {
        CongestionPredictor::train(ModelKind::Gbrt, target, train, &opts)
            .compiled_ensemble()
            .cloned()
            .ok_or_else(|| "GBRT produced no compiled ensemble".to_string())
    };
    Ok(ModelArtifact {
        name: "gbrt".into(),
        version,
        feature_count: FEATURE_COUNT,
        trained_on: "suite-train-split".into(),
        vertical: fit(Target::Vertical)?,
        horizontal: fit(Target::Horizontal)?,
    })
}

fn mae_of(a: &ModelArtifact, test: &CongestionDataset) -> (f64, f64) {
    let n = test.len().max(1) as f64;
    let (mut v, mut h) = (0.0, 0.0);
    for i in 0..test.len() {
        let row = test.features_of(i);
        v += (a.vertical.predict_row(row) - test.samples[i].vertical).abs();
        h += (a.horizontal.predict_row(row) - test.samples[i].horizontal).abs();
    }
    (v / n, h / n)
}

fn prepare(mix: Mix, dir: &Path) -> Result<Prepared, String> {
    let suite = paper::build_suite(&mut Tracer::new(false))?;
    let data = suite.dataset;
    let (train, test) = data.split(0.2, 17);
    let mut artifacts = vec![train_artifact(&train, 1, 1.0)?];
    if mix == Mix::Cold {
        artifacts.push(train_artifact(&train, 2, 0.25)?);
    }
    let mut artifact_paths = Vec::new();
    for a in &artifacts {
        let path = dir.join(format!("model-v{}.json", a.version));
        a.save(&path).map_err(|e| e.to_string())?;
        artifact_paths.push(path);
    }
    let golden_path = dir.join("golden.csv");
    congestion_core::persist::save(&test, &golden_path).map_err(|e| e.to_string())?;
    let mae = mae_of(&artifacts[0], &test);
    Ok(Prepared {
        data,
        artifacts,
        artifact_paths,
        golden_path,
        mae,
    })
}

/// Encodes request bodies as length-prefixed frames. Predict bodies come
/// from a pool encoded once; ids are spliced into the encoded text.
struct Encoder {
    rows: HashMap<Vec<usize>, String>,
}

impl Encoder {
    fn new() -> Encoder {
        Encoder {
            rows: HashMap::new(),
        }
    }

    fn frame(
        &mut self,
        id: u64,
        body: &Body,
        data: &CongestionDataset,
        p: &Prepared,
    ) -> Result<Vec<u8>, String> {
        let tail = match body {
            Body::Predict(rows) => {
                if !self.rows.contains_key(rows) {
                    let r = rows.iter().map(|&i| data.features_of(i).to_vec()).collect();
                    let json = Request::predict(0, r).to_json();
                    self.rows.insert(rows.clone(), strip_id(json)?);
                }
                self.rows[rows].clone()
            }
            Body::Source { name, text } => strip_id(
                Request {
                    id: 0,
                    deadline_ms: None,
                    body: RequestBody::Source {
                        name: name.clone(),
                        text: text.clone(),
                    },
                }
                .to_json(),
            )?,
            Body::Swap(k) => strip_id(
                Request {
                    id: 0,
                    deadline_ms: None,
                    body: RequestBody::Swap {
                        path: p.artifact_paths[*k].display().to_string(),
                    },
                }
                .to_json(),
            )?,
        };
        let json = format!("{{\"id\":{id},{tail}");
        let mut frame = Vec::with_capacity(json.len() + 4);
        frame.extend_from_slice(&(json.len() as u32).to_le_bytes());
        frame.extend_from_slice(json.as_bytes());
        Ok(frame)
    }
}

fn strip_id(json: String) -> Result<String, String> {
    json.strip_prefix("{\"id\":0,")
        .or_else(|| json.strip_prefix("{\"id\":0.0,"))
        .map(str::to_string)
        .ok_or_else(|| {
            format!(
                "unexpected request encoding: {}",
                &json[..json.len().min(40)]
            )
        })
}

/// The seeded request generator of one run.
struct Stream {
    /// The suite dataset predict rows come from: the one its frames were
    /// encoded from, since each round builds its own.
    data: CongestionDataset,
    mix: Mix,
    rng: Rng,
    next_id: u64,
    pool: Vec<(String, String)>,
    predict_pool: Vec<Vec<usize>>,
    /// Remaining slots of the current `serve_hot` block.
    block: Vec<usize>,
    swaps: usize,
    encoder: Encoder,
}

impl Stream {
    fn new(mix: Mix, seed: u64, p: &Prepared) -> Stream {
        let mut rng = Rng::new(seed, 7);
        let mut predict_pool = Vec::new();
        for size in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            for _ in 0..PREDICT_VARIANTS {
                predict_pool.push((0..size).map(|_| rng.below(p.data.len())).collect());
            }
        }
        let pool = (0..HOT_POOL)
            .map(|i| kernels::pool_kernel(&mut rng, 1_000_000 + i as u64, i))
            .collect();
        Stream {
            mix,
            rng,
            next_id: 1,
            pool,
            predict_pool,
            block: Vec::new(),
            swaps: 0,
            encoder: Encoder::new(),
            data: p.data.clone(),
        }
    }

    fn body(&mut self) -> Body {
        match self.mix {
            Mix::Hot => {
                // Blocks of ten in a seeded order: one predict of each of the
                // eight sizes and two pool sources, so every window carries
                // the same mix.
                if self.block.is_empty() {
                    self.block = (0..10).collect();
                    self.rng.shuffle(&mut self.block);
                }
                match self.block.pop().expect("block refilled above") {
                    slot @ 0..=7 => {
                        let variant = self.rng.below(PREDICT_VARIANTS);
                        Body::Predict(self.predict_pool[slot * PREDICT_VARIANTS + variant].clone())
                    }
                    _ => {
                        let (name, text) = self.rng.pick(&self.pool).clone();
                        Body::Source { name, text }
                    }
                }
            }
            Mix::Cold => {
                if (self.next_id as usize).is_multiple_of(SWAP_EVERY) {
                    self.swaps += 1;
                    Body::Swap(self.swaps % 2)
                } else {
                    let (name, text) = kernels::source_kernel(&mut self.rng, self.next_id);
                    Body::Source { name, text }
                }
            }
        }
    }

    /// The next `n` requests, encoded.
    fn take(&mut self, n: usize, p: &Prepared) -> Result<Vec<Item>, String> {
        (0..n)
            .map(|_| {
                let id = self.next_id;
                let body = self.body();
                self.next_id += 1;
                let frame = self.encoder.frame(id, &body, &self.data, p)?;
                Ok(Item { id, body, frame })
            })
            .collect()
    }

    /// Every pool kernel once (fills the cache before `serve_hot` measures).
    fn warm_pool(&mut self, p: &Prepared) -> Result<Vec<Item>, String> {
        let pool = self.pool.clone();
        pool.into_iter()
            .map(|(name, text)| {
                let id = self.next_id;
                self.next_id += 1;
                let body = Body::Source { name, text };
                let frame = self.encoder.frame(id, &body, &self.data, p)?;
                Ok(Item { id, body, frame })
            })
            .collect()
    }
}

// ---------------------------------------------------------------- daemon --

/// A spawned `hls_congest serve`; killed and reaped if dropped while alive.
struct Daemon {
    child: Option<Child>,
    addr: String,
    metrics_path: PathBuf,
}

impl Daemon {
    fn spawn(args: &Args, p: &Prepared, dir: &Path, tag: &str) -> Result<Daemon, String> {
        let out_path = dir.join(format!("daemon-{tag}.out"));
        let err_path = dir.join(format!("daemon-{tag}.err"));
        let metrics_path = dir.join(format!("daemon-{tag}-metrics.json"));
        // Both pipes go to files for the daemon's whole life: a closed pipe
        // makes it panic while printing its shutdown summary.
        let stdout = File::create(&out_path).map_err(|e| e.to_string())?;
        let stderr = File::create(&err_path).map_err(|e| e.to_string())?;
        let child = Command::new(&args.daemon)
            .arg("serve")
            .arg("--model")
            .arg(&p.artifact_paths[0])
            .arg("--golden")
            .arg(&p.golden_path)
            .args([
                "--mae-band",
                MAE_BAND,
                "--addr",
                "127.0.0.1:0",
                "--serve-workers",
                "1",
                "--queue-capacity",
                QUEUE_CAPACITY,
            ])
            .arg("--metrics-out")
            .arg(&metrics_path)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
        let mut d = Daemon {
            child: Some(child),
            addr: String::new(),
            metrics_path,
        };
        let t = Instant::now();
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(rest) = text.split("congestd listening on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    d.addr = addr.to_string();
                    return Ok(d);
                }
            }
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!(
                    "daemon exited before listening ({status}): {}",
                    std::fs::read_to_string(&err_path).unwrap_or_default()
                ));
            }
            if t.elapsed() > Duration::from_secs(60) {
                return Err("daemon did not start listening within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Ask for a clean shutdown and wait for the exit; `Ok(true)` when the
    /// daemon exited with status 0.
    fn shutdown(mut self) -> Result<bool, String> {
        let req = Request {
            id: 0,
            deadline_ms: None,
            body: RequestBody::Shutdown,
        };
        let _ = servekit::request(self.addr.as_str(), &req);
        let mut child = self.child.take().expect("daemon is alive until shutdown");
        let t = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Ok(status.success()),
                Ok(None) if t.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit within 30 s of shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Counters and gauges of an `obskit.metrics.v1` snapshot.
fn read_metrics(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = faultkit::json::parse(&text).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for section in ["counters", "gauges"] {
        if let Some(obj) = doc.get(section).and_then(|v| v.as_obj()) {
            for (k, v) in obj {
                if let Some(x) = v.as_f64() {
                    out.insert(k.clone(), x);
                }
            }
        }
    }
    Ok(out)
}

// -------------------------------------------------------------- loadgen --

/// How a phase paces its requests.
enum Pace {
    /// Evenly spaced arrivals at this rate (requests/s).
    Open(f64),
    /// Closed window: at most this many requests outstanding.
    Window(usize),
}

/// What one phase measured, in request order.
struct Phase {
    /// Reply latency from the request's due time (ms).
    latency_ms: Vec<f64>,
    /// Reply latency from the actual send (ms).
    rtt_ms: Vec<f64>,
    /// How late the generator sent each request (ms).
    late_ms: Vec<f64>,
    replies: Vec<Reply>,
    wall_s: f64,
}

impl Phase {
    fn not_ok(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| r.status != ReplyStatus::Ok)
            .count()
    }

    fn p99(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }

    /// The p99 latency with every reply that is not `Ok` counted as at
    /// least [`FAILED_LATENCY_MS`].
    fn p99_failing_late(&self) -> f64 {
        let l: Vec<f64> = self
            .latency_ms
            .iter()
            .zip(&self.replies)
            .map(|(&l, r)| {
                if r.status == ReplyStatus::Ok {
                    l
                } else {
                    l.max(FAILED_LATENCY_MS)
                }
            })
            .collect();
        quantile(&l, 0.99)
    }

    /// Share of requests answered `Ok` within `limit_ms` of their due time.
    fn share_within(&self, limit_ms: f64) -> f64 {
        let met = self
            .latency_ms
            .iter()
            .zip(&self.replies)
            .filter(|(&l, r)| r.status == ReplyStatus::Ok && l <= limit_ms)
            .count();
        met as f64 / self.replies.len().max(1) as f64
    }

    /// The rate was sustained: 99% of requests answered `Ok` within the
    /// limit of their due time (the time a blocked send waits counts), and
    /// no growing backlog (the last quarter's mean
    /// latency is not above the first quarter's by more than half the limit).
    fn sustained(&self, limit_ms: f64) -> bool {
        let q = self.latency_ms.len() / 4;
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
        let growing = q > 0
            && mean(&self.latency_ms[self.latency_ms.len() - q..])
                > mean(&self.latency_ms[..q]) + limit_ms / 2.0;
        self.share_within(limit_ms) >= 0.99 && !growing
    }
}

fn drive(conn: &TcpStream, items: &[Item], pace: Pace) -> Result<Phase, String> {
    let n = items.len();
    let (rate, window) = match pace {
        Pace::Open(rate) => (Some(rate), usize::MAX),
        Pace::Window(w) => (None, w),
    };
    let received = (Mutex::new(0usize), Condvar::new());
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reader = conn.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, got) = std::thread::scope(|s| {
        let received = &received;
        let sender = s.spawn(move || -> std::io::Result<Vec<(Instant, Instant)>> {
            let mut times = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                let due = if let Some(rate) = rate {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                } else {
                    let (lock, cv) = received;
                    let mut done = lock.lock().expect("receiver never panics holding the lock");
                    while i - *done >= window {
                        done = cv
                            .wait(done)
                            .expect("receiver never panics holding the lock");
                    }
                    Instant::now()
                };
                let at = Instant::now();
                writer.write_all(&item.frame)?;
                times.push((due, at));
            }
            Ok(times)
        });
        let receiver = s.spawn(move || -> std::io::Result<Vec<(Instant, String)>> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let json = read_reply(&mut reader)?;
                out.push((Instant::now(), json));
                let (lock, cv) = received;
                *lock.lock().expect("sender never panics holding the lock") += 1;
                cv.notify_one();
            }
            Ok(out)
        });
        (sender.join(), receiver.join())
    });
    let sent = sent
        .map_err(|_| "sender thread panicked".to_string())?
        .map_err(|e| format!("send failed: {e}"))?;
    let got = got
        .map_err(|_| "receiver thread panicked".to_string())?
        .map_err(|e| format!("receive failed: {e}"))?;
    let wall_s = got
        .last()
        .map_or(0.0, |(t, _)| t.duration_since(start).as_secs_f64());
    let index: HashMap<u64, usize> = items.iter().enumerate().map(|(i, it)| (it.id, i)).collect();
    let mut replies: Vec<Option<(Instant, Reply)>> = (0..n).map(|_| None).collect();
    for (at, json) in got {
        let reply = Reply::from_json(&json).map_err(|e| format!("bad reply: {e}"))?;
        let i = *index
            .get(&reply.id)
            .ok_or_else(|| format!("reply for unknown id {}", reply.id))?;
        replies[i] = Some((at, reply));
    }
    let mut phase = Phase {
        latency_ms: Vec::with_capacity(n),
        rtt_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        replies: Vec::with_capacity(n),
        wall_s,
    };
    for ((due, at_send), r) in sent.into_iter().zip(replies) {
        let (at, reply) = r.ok_or("a request got no reply")?;
        phase
            .latency_ms
            .push(at.duration_since(due).as_secs_f64() * 1e3);
        phase
            .rtt_ms
            .push(at.duration_since(at_send).as_secs_f64() * 1e3);
        phase
            .late_ms
            .push(at_send.duration_since(due).as_secs_f64() * 1e3);
        phase.replies.push(reply);
    }
    Ok(phase)
}

fn read_reply(r: &mut impl Read) -> std::io::Result<String> {
    servekit::read_frame(r)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        )
    })
}

fn connect(d: &Daemon) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(d.addr.as_str()).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(conn)
}

// ------------------------------------------------------------ reference --

/// The reference answer for one request: bit patterns per artifact.
struct Expected {
    /// (vertical, horizontal) per artifact index.
    values: Vec<(Vec<u64>, Vec<u64>)>,
    lines: Vec<u32>,
}

fn bits(ens: &CompiledEnsemble, rows: &[Vec<f64>]) -> Vec<u64> {
    rows.iter().map(|r| ens.predict_row(r).to_bits()).collect()
}

/// The in-process reference: `extract_feature_rows` (for sources) and
/// `CompiledEnsemble::predict_row` on the same artifacts.
fn reference(
    item: &Item,
    p: &Prepared,
    data: &CongestionDataset,
) -> Result<Option<Expected>, String> {
    let (rows, lines) = match &item.body {
        Body::Swap(_) => return Ok(None),
        Body::Predict(idx) => (
            idx.iter().map(|&i| data.features_of(i).to_vec()).collect(),
            Vec::new(),
        ),
        Body::Source { name, text } => {
            let module = hls_ir::frontend::compile_named(text, name).map_err(|e| e.to_string())?;
            let flow = CongestionFlow::new();
            let design = flow.synthesize(&module).map_err(|e| e.to_string())?;
            congestion_core::extract_feature_rows(&design, &flow.device)
        }
    };
    Ok(Some(Expected {
        values: p
            .artifacts
            .iter()
            .map(|a| (bits(&a.vertical, &rows), bits(&a.horizontal, &rows)))
            .collect(),
        lines,
    }))
}

/// Count the wrong replies of a round: a predict or source reply whose
/// values are not bitwise equal to the in-process reference for the model
/// it names (a source reply also carries the reference's source lines),
/// or a failed swap. The reference of each distinct request body is
/// computed once.
fn verify(r: &Round, data: &CongestionDataset) -> Result<usize, String> {
    let names: Vec<String> =
        r.p.artifacts
            .iter()
            .map(ModelArtifact::display_name)
            .collect();
    let bursts = r.bursts.iter().map(|(items, phase)| (items, phase));
    let pairs: Vec<(&Item, &Reply)> = [(&r.nominal_items, &r.nominal)]
        .into_iter()
        .chain(bursts)
        .flat_map(|(items, phase)| items.iter().zip(&phase.replies))
        .collect();
    let key = |body: &Body| match body {
        Body::Predict(rows) => Some(format!("p{rows:?}")),
        Body::Source { text, .. } => Some(format!("s{text}")),
        Body::Swap(_) => None,
    };
    let mut distinct: HashMap<String, &Item> = HashMap::new();
    for (item, _) in &pairs {
        if let Some(k) = key(&item.body) {
            distinct.entry(k).or_insert(item);
        }
    }
    let todo: Vec<(String, &Item)> = distinct.into_iter().collect();
    let compute = |part: &[(String, &Item)]| -> Vec<(String, Result<Option<Expected>, String>)> {
        part.iter()
            .map(|(k, it)| (k.clone(), reference(it, &r.p, data)))
            .collect()
    };
    let computed = std::thread::scope(|s| {
        let (a, b) = todo.split_at(todo.len() / 2);
        let h = s.spawn(move || compute(a));
        let mut out = compute(b);
        out.extend(h.join().expect("reference thread does not panic"));
        out
    });
    let mut refs: HashMap<String, Expected> = HashMap::new();
    for (k, want) in computed {
        if let Some(want) = want? {
            refs.insert(k, want);
        }
    }
    let mut wrong = 0;
    for (item, reply) in pairs {
        let ok = reply.status == ReplyStatus::Ok;
        let Some(want) = key(&item.body).and_then(|k| refs.get(&k)) else {
            wrong += usize::from(!ok);
            continue;
        };
        let vb: Vec<u64> = reply.vertical.iter().map(|x| x.to_bits()).collect();
        let hb: Vec<u64> = reply.horizontal.iter().map(|x| x.to_bits()).collect();
        let equal = names
            .iter()
            .position(|n| *n == reply.model)
            .is_some_and(|k| want.values[k].0 == vb && want.values[k].1 == hb);
        wrong += usize::from(!(ok && equal && want.lines == reply.lines));
    }
    Ok(wrong)
}

/// Replay `items` in-process through the daemon's public calls, with a
/// span around each: decode, compile, synthesize, extract, predict,
/// encode, and registry install for swaps. Returns the replay wall time.
fn replay(items: &[Item], p: &Prepared, tracer: &mut Tracer, layers: &mut LayerSums) -> f64 {
    let gate = ValidationGate {
        expected_features: FEATURE_COUNT,
        mae_band: MAE_BAND.parse().expect("MAE_BAND is a number"),
        golden: congestion_core::persist::load(&p.golden_path)
            .ok()
            .map(|ds| {
                let rows = (0..ds.len()).map(|i| ds.features_of(i).to_vec()).collect();
                let v = ds.samples.iter().map(|s| s.vertical).collect();
                let h = ds.samples.iter().map(|s| s.horizontal).collect();
                GoldenBatch::new(rows, v, h, 512)
            }),
    };
    let mut registry = ModelRegistry::new(gate);
    let _ = registry.install(p.artifacts[0].clone());
    let flow = CongestionFlow::new();
    let t0 = Instant::now();
    for item in items {
        let json = std::str::from_utf8(&item.frame[4..]).expect("frames are UTF-8");
        let t = Instant::now();
        let req = tracer.span("servekit", "decode", || Request::from_json(json));
        layers.decode_s += t.elapsed().as_secs_f64();
        layers.frame_bytes += item.frame.len() as f64;
        let Ok(req) = req else { continue };
        let active = registry.active().expect("an artifact is installed");
        let reply = match req.body {
            RequestBody::Predict { rows } => {
                let mut m = Matrix::with_cols(FEATURE_COUNT);
                for r in &rows {
                    m.push_row(r);
                }
                predict(&active, req.id, &m, Vec::new(), tracer, layers)
            }
            RequestBody::Source { name, text } => {
                let t = Instant::now();
                let module = tracer.span("hls_ir", "compile_named", || {
                    hls_ir::frontend::compile_named(&text, &name)
                });
                layers.compile_s += t.elapsed().as_secs_f64();
                let Ok(module) = module else { continue };
                layers.ops += module.total_ops() as f64;
                let t = Instant::now();
                let design = tracer.span("hls_synth", "synthesize", || flow.synthesize(&module));
                layers.synth_s += t.elapsed().as_secs_f64();
                let Ok(design) = design else { continue };
                let t = Instant::now();
                let (rows, lines) = tracer.span("core", "extract_feature_rows", || {
                    congestion_core::extract_feature_rows(&design, &flow.device)
                });
                layers.extract_s += t.elapsed().as_secs_f64();
                layers.sources += 1.0;
                let mut m = Matrix::with_cols(FEATURE_COUNT);
                for r in &rows {
                    m.push_row(r);
                }
                predict(&active, req.id, &m, lines, tracer, layers)
            }
            RequestBody::Swap { .. } => {
                let Body::Swap(k) = item.body else { continue };
                let t = Instant::now();
                let _ = tracer.span("servekit", "install", || {
                    registry.install(p.artifacts[k].clone())
                });
                layers.swap_s += t.elapsed().as_secs_f64();
                layers.swaps += 1.0;
                Reply::status_only(req.id, ReplyStatus::Ok)
            }
            _ => continue,
        };
        let t = Instant::now();
        let json = tracer.span("servekit", "encode", || reply.to_json());
        layers.encode_s += t.elapsed().as_secs_f64();
        std::hint::black_box(json);
        layers.requests += 1.0;
    }
    t0.elapsed().as_secs_f64()
}

fn predict(
    a: &ModelArtifact,
    id: u64,
    m: &Matrix,
    lines: Vec<u32>,
    tracer: &mut Tracer,
    layers: &mut LayerSums,
) -> Reply {
    let mut v = vec![0.0; m.rows()];
    let mut h = vec![0.0; m.rows()];
    let t = Instant::now();
    tracer.span("mlkit", "predict_into", || {
        a.vertical.predict_into(m, &mut v);
        a.horizontal.predict_into(m, &mut h);
    });
    layers.predict_s += t.elapsed().as_secs_f64();
    layers.rows += m.rows() as f64;
    Reply {
        id,
        status: ReplyStatus::Ok,
        model: a.display_name(),
        vertical: v,
        horizontal: h,
        lines,
        ..Default::default()
    }
}

/// Busy time and work counts the replay accumulates per layer.
#[derive(Default)]
struct LayerSums {
    requests: f64,
    decode_s: f64,
    encode_s: f64,
    frame_bytes: f64,
    compile_s: f64,
    ops: f64,
    synth_s: f64,
    extract_s: f64,
    sources: f64,
    predict_s: f64,
    rows: f64,
    swap_s: f64,
    swaps: f64,
}

// ------------------------------------------------------------------ run --

/// One rate probe: (rate, p99 latency in ms, sustained).
type Probe = (f64, f64, bool);

/// What one daemon measured.
struct Round {
    p: Prepared,
    /// The nominal open-loop window.
    nominal_items: Vec<Item>,
    nominal: Phase,
    bursts: Vec<(Vec<Item>, Phase)>,
    /// The daemon's VmHWM after the nominal phase and bursts (MB).
    rss: f64,
    /// Each ladder's sustained rate and probes.
    ladders: Vec<(f64, Vec<Probe>)>,
}

pub fn run(args: &Args, mix: Mix) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = &args.work_dir;
    // The nominal phase lasts `--seconds` in all, one window per round;
    // the bursts and rate ladders are fixed in size and come on top.
    let window = MIN_WINDOW.max((NOMINAL_RPS * args.seconds / ROUNDS as f64).ceil() as usize);

    // Each round sets up from scratch (suite dataset, artifact training,
    // daemon start-up: the timed set-up), warms the daemon, then measures
    // a nominal open-loop window, saturation bursts and the rate ladders
    // on it. Several daemons also spread per-process effects such as thread
    // placement.
    let mut setup = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut stream: Option<Stream> = None;
    let mut all_metrics = Vec::new();
    let mut exit_ok = true;
    for k in 0..ROUNDS {
        let t = Instant::now();
        let p = prepare(mix, dir)?;
        let daemon = Daemon::spawn(args, &p, dir, &format!("round{k}"))?;
        setup.push(t.elapsed().as_secs_f64());
        let stream = stream.get_or_insert_with(|| Stream::new(mix, args.seed, &p));
        let conn = connect(&daemon)?;
        let warm = match mix {
            Mix::Hot => stream.warm_pool(&p)?,
            Mix::Cold => stream.take(20, &p)?,
        };
        let warm_phase = drive(&conn, &warm, Pace::Window(4))?;
        if warm_phase.not_ok() > 0 {
            return Err(format!("{} warm-up request(s) failed", warm_phase.not_ok()));
        }
        let nominal_items = stream.take(window, &p)?;
        let nominal = drive(&conn, &nominal_items, Pace::Open(NOMINAL_RPS))?;
        let mut bursts = Vec::new();
        for _ in 0..BURSTS {
            let items = stream.take(BURST_REQUESTS, &p)?;
            let phase = drive(&conn, &items, Pace::Window(BURST_WINDOW))?;
            bursts.push((items, phase));
        }
        let rss = stats::peak_rss_mb(&daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
        let ladders = (0..ladder_spec(mix).per_round)
            .map(|_| ladder(&conn, stream, &p, &nominal))
            .collect::<Result<Vec<_>, _>>()?;
        drop(conn);
        let metrics_path = daemon.metrics_path.clone();
        exit_ok &= daemon.shutdown()?;
        all_metrics.push(read_metrics(&metrics_path)?);
        rounds.push(Round {
            p,
            nominal_items,
            nominal,
            bursts,
            rss,
            ladders,
        });
    }
    let p = &rounds[0].p;
    let data = &stream.as_ref().expect("the rounds ran").data.clone();
    out.note(format!(
        "served {} (held-out MAE V {:.4} / H {:.4} pp)",
        p.artifacts[0].display_name(),
        p.mae.0,
        p.mae.1,
    ));

    // Output checks.
    let mut wrong = 0;
    let mut shed_or_degraded = 0;
    for r in &rounds {
        // Each round against its own artifacts (each round trains its own).
        wrong += verify(r, data)?;
        let bursts = r.bursts.iter().map(|(items, phase)| (items, phase));
        for (items, phase) in [(&r.nominal_items, &r.nominal)].into_iter().chain(bursts) {
            out.attempted += items.len() as u64;
            out.failed += phase.not_ok() as u64;
        }
        shed_or_degraded += r
            .nominal
            .replies
            .iter()
            .filter(|r| matches!(r.status, ReplyStatus::Overloaded | ReplyStatus::Degraded))
            .count();
    }
    out.failed = out.failed.max(wrong as u64);
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let late_p50 = per_round(&|r| median(&r.nominal.late_ms));
    let late_p99 = per_round(&|r| quantile(&r.nominal.late_ms, 0.99));
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    out.check("serve.replies_match_reference", wrong == 0);
    out.note(format!(
        "{wrong} repl(ies) differ from the in-process reference"
    ));
    out.check(
        "serve.no_shed_or_degraded_at_nominal",
        shed_or_degraded == 0,
    );
    out.check(
        "serve.cache_hits_plus_misses_eq_lookups",
        all_metrics.iter().all(|m| {
            get(m, "serve.cache.hits") + get(m, "serve.cache.misses")
                == get(m, "serve.cache.lookups")
        }),
    );
    if mix == Mix::Cold {
        out.check(
            "serve.cold_cache_never_hits",
            all_metrics
                .iter()
                .all(|m| get(m, "serve.cache.hits") == 0.0),
        );
    }
    // The generator fell behind when it starts sends late as a rule, or
    // its tail lateness alone takes half the latency limit.
    out.check(
        "serve.generator_on_time",
        late_p50 <= LATE_P50_LIMIT_MS && late_p99 <= LATE_P99_LIMIT_MS,
    );
    out.check("serve.daemon_exit_ok", exit_ok);
    for (k, r) in rounds.iter().enumerate() {
        let w = &r.nominal;
        out.note(format!(
            "round {k}: nominal {NOMINAL_RPS:.0} req/s, window of {window} (ms): p50 {:.3} / p99 {:.3} / late p99 {:.3}; bursts of {BURST_REQUESTS} (window {BURST_WINDOW}) {} s; VmHWM {:.2} MB",
            median(&w.latency_ms),
            w.p99(),
            quantile(&w.late_ms, 0.99),
            r.bursts
                .iter()
                .map(|(_, b)| format!("{:.3}", b.wall_s))
                .collect::<Vec<_>>()
                .join(" / "),
            r.rss
        ));
    }
    for (k, r) in rounds.iter().enumerate() {
        for (max_rate, probes) in &r.ladders {
            let probes: Vec<String> = probes
                .iter()
                .map(|(rate, p99, ok)| {
                    format!(
                        "{rate:.0}: p99 {p99:.1} ms{}",
                        if *ok { "" } else { " (over)" }
                    )
                })
                .collect();
            out.note(format!(
                "round {k}: max rate {max_rate:.1} req/s at p99 <= {LIMIT_MS} ms; probes {}",
                probes.join(", ")
            ));
        }
    }

    out.set("setup_s", median(&setup));
    // Latency at the nominal rate has a floor that interference only adds
    // to, so the latency figures are the lowest of the rounds' windows.
    // Throughput near saturation swings both ways between repetitions, and
    // the median of the bursts and of the ladders' rates was steadier across
    // seeds than their best (README, "Steadiness").
    let lowest = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let bursts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.bursts.iter().map(|(_, b)| b.wall_s))
        .collect();
    out.set("wall_s", median(&bursts));
    let rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.ladders.iter().map(|(rate, _)| *rate))
        .collect();
    out.set("max_rate_per_s", median(&rates));
    out.set("p50_ms", lowest(&|r| median(&r.nominal.latency_ms)));
    out.set("p99_ms", lowest(&|r| r.nominal.p99()));
    out.set("peak_rss_mb", per_round(&|r| r.rss));
    let nominal_items = &rounds[0].nominal_items;

    if args.trace {
        // The daemon's own counters, from a fresh daemon that sees only the
        // warm-up and round 0's nominal stream again.
        let daemon = Daemon::spawn(args, p, dir, "counters")?;
        let conn = connect(&daemon)?;
        let stream = stream.as_mut().expect("the rounds ran");
        let warm = match mix {
            Mix::Hot => stream.warm_pool(p)?,
            Mix::Cold => stream.take(20, p)?,
        };
        drive(&conn, &warm, Pace::Window(4))?;
        let nominal = drive(&conn, nominal_items, Pace::Open(NOMINAL_RPS))?;
        drop(conn);
        let metrics_path = daemon.metrics_path.clone();
        if !daemon.shutdown()? {
            return Err("the counters daemon exited non-zero".into());
        }
        let metrics = read_metrics(&metrics_path)?;
        let m = |k: &str| get(&metrics, k);
        let mut untraced = LayerSums::default();
        let base = replay(nominal_items, p, &mut Tracer::new(false), &mut untraced);
        let mut tracer = Tracer::new(true);
        let mut l = LayerSums::default();
        let traced_wall = replay(nominal_items, p, &mut tracer, &mut l);
        let by_layer = tracer.self_time_by_layer();
        let credited: f64 = by_layer.values().sum();
        out.layer("trace.wall_s", traced_wall);
        for (layer, v) in &by_layer {
            out.layer(&format!("trace.self_s.{layer}"), *v);
        }
        out.layer("trace.residual_s", traced_wall - credited);
        out.layer("trace.overhead_share", (traced_wall - base) / base);
        let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
        out.layer("servekit.decode_ms", per(l.decode_s * 1e3, l.requests));
        out.layer("servekit.encode_ms", per(l.encode_s * 1e3, l.requests));
        out.layer("servekit.frame_bytes", per(l.frame_bytes, l.requests));
        out.layer("servekit.swap_ms", per(l.swap_s * 1e3, l.swaps));
        out.layer("hls_ir.compile_ms", per(l.compile_s * 1e3, l.sources));
        out.layer("hls_ir.ops", l.ops);
        out.layer("hls_synth.synth_ms", per(l.synth_s * 1e3, l.sources));
        out.layer("core.extract_ms", per(l.extract_s * 1e3, l.sources));
        out.layer("core.rows", l.rows);
        out.layer("mlkit.predict_us_per_row", per(l.predict_s * 1e6, l.rows));
        out.layer("mlkit.rows", l.rows);
        // Client RTT minus the daemon's own admission-to-reply time.
        out.layer(
            "servekit.frontend_ms",
            median(&nominal.rtt_ms) - m("serve.latency_ms.p50"),
        );
        out.layer(
            "servekit.outside_service_ms",
            median(&nominal.rtt_ms) - per(base * 1e3, untraced.requests),
        );
        out.layer("serve.queue_depth_peak", m("serve.queue_depth_peak"));
        let completed = m("serve.completed");
        out.layer(
            "serve.batch.coalesced_share",
            per(m("serve.batch.coalesced_requests"), completed),
        );
        out.layer(
            "serve.batch.rows_per_batch",
            per(m("serve.batch.rows"), m("serve.batch.formed")),
        );
        out.layer("serve.latency_ms.p50", m("serve.latency_ms.p50"));
        out.layer("serve.latency_ms.p99", m("serve.latency_ms.p99"));
        out.layer(
            "serve.cache.hit_rate",
            per(m("serve.cache.hits"), m("serve.cache.lookups")),
        );
        out.layer("serve.cache.invalidations", m("serve.cache.invalidations"));
        out.layer("loadgen.late_p99_ms", late_p99);
        let sent: usize = rounds.iter().map(|r| r.nominal.replies.len()).sum();
        let failed: usize = rounds.iter().map(|r| r.nominal.not_ok()).sum();
        out.layer("loadgen.sent", sent as f64);
        out.layer("loadgen.ok", (sent - failed) as f64);
        out.layer("loadgen.failed", failed as f64);
        out.note(format!(
            "attribution: replay of the nominal stream {traced_wall:.3} s = {} + residual {:.4} s; \
             client RTT p50 {:.3} ms vs in-process {:.3} ms per request (front-end, queue and socket: {:.3} ms)",
            by_layer
                .iter()
                .map(|(k, v)| format!("{k} {v:.3} s"))
                .collect::<Vec<_>>()
                .join(" + "),
            traced_wall - credited,
            median(&nominal.rtt_ms),
            per(base * 1e3, untraced.requests),
            median(&nominal.rtt_ms) - per(base * 1e3, untraced.requests),
        ));
        std::fs::create_dir_all(args.trace_dir()).map_err(|e| e.to_string())?;
        let name = match mix {
            Mix::Hot => "serve_hot",
            Mix::Cold => "serve_cold",
        };
        tracer
            .write(
                &args
                    .trace_dir()
                    .join(format!("{name}-seed{}.json", args.seed)),
            )
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// Find the highest open-loop rate the daemon sustains: probe a fixed
/// ladder of rates from [`LadderSpec::start`] times the nominal rate up by
/// [`LADDER_STEP`] until a rung fails, then interpolate (in log space)
/// between the highest sustained rung (or the nominal window) and the
/// failed rung, where the p99 latency crosses the limit. Latency, which
/// rises before throughput stops rising, moves the estimate smoothly
/// between rungs. Returns the rate and every probe.
fn ladder(
    conn: &TcpStream,
    stream: &mut Stream,
    p: &Prepared,
    nominal: &Phase,
) -> Result<(f64, Vec<Probe>), String> {
    let mut probes: Vec<Probe> = Vec::new();
    let spec = ladder_spec(stream.mix);
    let mut rate = NOMINAL_RPS * spec.start;
    while probes.len() < LADDER_RUNGS && probes.last().is_none_or(|pr| pr.2) {
        let items = stream.take(spec.probe_requests, p)?;
        let phase = drive(conn, &items, Pace::Open(rate))?;
        probes.push((rate, phase.p99_failing_late(), phase.sustained(LIMIT_MS)));
        rate *= LADDER_STEP;
        // Let the daemon drain whatever an overloaded probe left queued.
        std::thread::sleep(Duration::from_millis(100));
    }
    let hi = *probes.last().expect("the ladder probes at least one rung");
    if hi.2 {
        return Ok((hi.0, probes));
    }
    let lo = match probes.len() {
        1 => (NOMINAL_RPS, nominal.p99_failing_late(), true),
        n => probes[n - 2],
    };
    let frac = if lo.1 < LIMIT_MS && hi.1 > lo.1 {
        ((LIMIT_MS / lo.1).ln() / (hi.1 / lo.1).ln()).clamp(0.0, 1.0)
    } else {
        0.0
    };
    Ok(((lo.0.ln() + frac * (hi.0.ln() - lo.0.ln())).exp(), probes))
}
