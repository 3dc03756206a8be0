//! The end-to-end leg: an `rrs serve`-style server on a loopback port,
//! driven over the wire protocol by a single-process load generator.

use crate::workload::{check_results, Entries, Input, Loop, Oracle, Storage, Workload, SHARDS};
use rrs_core::RunResult;
use rrs_service::net::wire::{encode_message_into, MsgStream};
use rrs_service::net::{Request, Response, PROTO_VERSION};
use rrs_service::{
    Codec, DiskBackend, DiskConfig, FaultPlan, IngestMode, MemoryBackend, NetServer, RetryPolicy,
    ServiceStats, StorageBackend, Supervisor, SupervisorConfig, TenantId,
};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Restarts timed per repetition (the `recovery_ms` samples).
const RESTARTS: usize = 3;

/// Socket read/write timeout: an epoch not acknowledged within it fails.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// A run's private data directory under the checkout, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(root: &Path, tag: &str) -> Result<TempDir, String> {
        let path = root.join(tag);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("create data dir {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The supervisor configuration `rrs serve` uses, with the workload's
/// checkpoint cadence.
pub fn supervisor_config(w: &Workload) -> SupervisorConfig {
    SupervisorConfig {
        shards: SHARDS,
        queue_capacity: 64,
        checkpoint_every: w.checkpoint_every,
        retry: RetryPolicy::default(),
        shed: Default::default(),
        ingest: IngestMode::Batched,
    }
}

pub fn backend(w: &Workload, dir: &Path) -> Box<dyn StorageBackend> {
    match w.storage {
        Storage::Memory => Box::new(MemoryBackend::new()),
        Storage::Disk => Box::new(DiskBackend::new(DiskConfig::new(dir))),
    }
}

/// Starts the service the way `rrs serve` does: a `NetServer` over a
/// batched `Supervisor` on an ephemeral loopback port. Over an existing
/// disk data dir this is a cold-start recovery.
pub fn start_server(w: &Workload, dir: &Path) -> Result<NetServer, String> {
    let sup = Supervisor::with_storage(supervisor_config(w), &FaultPlan::none(), backend(w, dir))
        .map_err(|e| format!("supervisor start: {e}"))?;
    NetServer::start(sup, "127.0.0.1:0").map_err(|e| format!("server start: {e}"))
}

/// Write half of a connection: encodes requests straight into one frame
/// buffer per epoch.
pub struct Sender {
    stream: TcpStream,
    body: Vec<u8>,
    frames: Vec<u8>,
}

impl Sender {
    fn push(&mut self, req: &Request) -> Result<(), String> {
        encode_message_into(req, Codec::Binary, false, &mut self.body, &mut self.frames)
            .map(|_| ())
            .map_err(|e| format!("encode: {e}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        let res = self
            .stream
            .write_all(&self.frames)
            .map_err(|e| format!("send: {e}"));
        self.frames.clear();
        res
    }

    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        self.push(req)?;
        self.flush()
    }

    /// One epoch: its `SubmitBatch` (when any tenant is busy) and its
    /// `Tick`, in one socket write.
    pub fn epoch(&mut self, epoch: u64, entries: Entries) -> Result<(), String> {
        if !entries.is_empty() {
            self.push(&Request::SubmitBatch { epoch, entries })?;
        }
        self.push(&Request::Tick { epoch, parties: 1 })?;
        self.flush()
    }
}

/// Read half of a connection, with the ack-order checks.
pub struct Receiver {
    msgs: MsgStream,
    seqs: Vec<u64>,
}

impl Receiver {
    pub fn recv(&mut self) -> Result<Response, String> {
        self.msgs
            .recv::<Response>()
            .map_err(|e| format!("recv: {e}"))
    }

    /// Consumes epoch `epoch`'s responses, checking that acks arrive in
    /// epoch order and that no shard's seq goes backwards.
    pub fn ack(&mut self, epoch: u64, had_batch: bool) -> Result<(), String> {
        if had_batch {
            match self.recv()? {
                Response::Queued { epoch: e, .. } if e == epoch => {}
                other => return Err(format!("epoch {epoch}: expected Queued, got {other:?}")),
            }
        }
        match self.recv()? {
            Response::TickAck { epoch: e, seqs } if e == epoch => {
                if seqs.len() != SHARDS {
                    return Err(format!(
                        "epoch {epoch}: {} seqs for {SHARDS} shards",
                        seqs.len()
                    ));
                }
                if seqs.iter().zip(&self.seqs).any(|(new, old)| new < old) {
                    return Err(format!(
                        "epoch {epoch}: shard seqs went backwards ({:?} after {:?})",
                        seqs, self.seqs
                    ));
                }
                self.seqs = seqs;
                Ok(())
            }
            other => Err(format!("epoch {epoch}: expected TickAck, got {other:?}")),
        }
    }
}

/// Dials, greets, and splits the connection into its two halves.
pub fn connect(server: &NetServer) -> Result<(Sender, Receiver), String> {
    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for res in [
        stream.set_read_timeout(Some(SOCKET_TIMEOUT)),
        stream.set_write_timeout(Some(SOCKET_TIMEOUT)),
    ] {
        res.map_err(|e| format!("socket timeout: {e}"))?;
    }
    let write = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    let msgs = MsgStream::new(stream).map_err(|e| format!("socket: {e}"))?;
    let mut tx = Sender {
        stream: write,
        body: Vec::new(),
        frames: Vec::new(),
    };
    let mut rx = Receiver {
        msgs,
        seqs: Vec::new(),
    };
    tx.send(&Request::Hello {
        proto: PROTO_VERSION,
        client: 1,
    })?;
    match rx.recv()? {
        Response::Hello { shards, .. } if shards == SHARDS => Ok((tx, rx)),
        other => Err(format!("expected Hello for {SHARDS} shards, got {other:?}")),
    }
}

fn request(tx: &mut Sender, rx: &mut Receiver, req: &Request) -> Result<Response, String> {
    tx.send(req)?;
    rx.recv()
}

pub fn stats(tx: &mut Sender, rx: &mut Receiver) -> Result<ServiceStats, String> {
    match request(tx, rx, &Request::Stats)? {
        Response::Stats { stats } => Ok(*stats),
        other => Err(format!("expected Stats, got {other:?}")),
    }
}

pub fn finish(tx: &mut Sender, rx: &mut Receiver) -> Result<Vec<(TenantId, RunResult)>, String> {
    match request(tx, rx, &Request::Finish)? {
        Response::Results { results } => Ok(results),
        other => Err(format!("expected Results, got {other:?}")),
    }
}

/// A started server with a connected, registered client.
pub struct Session {
    /// Held for the session's lifetime; dropping it is the crash.
    #[allow(dead_code)]
    pub server: NetServer,
    pub tx: Sender,
    pub rx: Receiver,
}

/// Set-up as `setup_s` counts it: trace generation, server start, connect
/// and tenant registration.
pub fn setup(w: &Workload, seed: u64, dir: &Path) -> Result<(Input, Session, f64), String> {
    let start = Instant::now();
    let input = w.generate(seed);
    let server = start_server(w, dir)?;
    let (mut tx, mut rx) = connect(&server)?;
    for (t, spec) in input.specs.iter().enumerate() {
        match request(
            &mut tx,
            &mut rx,
            &Request::AddTenant {
                id: t as TenantId,
                spec: spec.clone(),
            },
        )? {
            Response::Ok => {}
            other => return Err(format!("add tenant {t}: {other:?}")),
        }
    }
    Ok((
        input,
        Session { server, tx, rx },
        start.elapsed().as_secs_f64(),
    ))
}

/// What one pass over the input measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// First send to last ack.
    pub elapsed: Duration,
    /// Per-epoch ack latency, from the epoch's send.
    pub ack_ns: Vec<u64>,
    /// How late the sender sent each epoch after the window let it
    /// through (or, when paced, after its due time if that was later).
    pub late_ns: Vec<u64>,
    pub acked: u64,
    /// Spans recorded by a traced pass: `(epoch, send start, ack)` offsets
    /// from the pass start, in nanoseconds.
    pub spans: Vec<(u64, u64, u64)>,
}

/// A failed pass: what broke and how many epochs were acked before it.
pub struct Failure {
    pub check: String,
    pub acked: u64,
}

fn fail(check: String, acked: u64) -> Failure {
    Failure { check, acked }
}

/// Drives every epoch of `epochs` through the session in the workload's
/// closed loop. `trace` additionally records a span per epoch.
pub fn drive(
    w: &Workload,
    s: &mut Session,
    epochs: Vec<Entries>,
    trace: bool,
) -> Result<Drive, Failure> {
    let (window, rate) = match w.pacing {
        Loop::Closed { window } => (window.max(1), None),
        Loop::Paced { epochs_per_s } => (1, Some(epochs_per_s)),
    };
    let mut out = Drive::default();
    let mut inflight: VecDeque<(u64, bool, Instant)> = VecDeque::with_capacity(window + 1);
    let t0 = Instant::now();
    let total = epochs.len();
    let mut pending = epochs.into_iter();
    let mut next = 1u64;
    // When the window last let a send through: the sender is late by the
    // time from there, or from the epoch's due time if later, to its send.
    let mut opened = t0;
    while out.acked < total as u64 {
        if inflight.len() < window {
            if let Some(entries) = pending.next() {
                let had_batch = !entries.is_empty();
                let mut ready = opened;
                if let Some(rate) = rate {
                    let due = t0 + Duration::from_secs_f64((next - 1) as f64 / rate);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    ready = ready.max(due);
                }
                let at = Instant::now();
                out.late_ns.push((at - ready).as_nanos() as u64);
                s.tx.epoch(next, entries).map_err(|e| fail(e, out.acked))?;
                inflight.push_back((next, had_batch, at));
                next += 1;
                continue;
            }
        }
        let (epoch, had_batch, at) = inflight.pop_front().expect("an epoch is in flight");
        s.rx.ack(epoch, had_batch).map_err(|e| fail(e, out.acked))?;
        let now = Instant::now();
        opened = now;
        out.ack_ns.push((now - at).as_nanos() as u64);
        if trace {
            out.spans.push((
                epoch,
                (at - t0).as_nanos() as u64,
                (now - t0).as_nanos() as u64,
            ));
        }
        out.acked += 1;
    }
    out.elapsed = t0.elapsed();
    Ok(out)
}

/// One repetition's measurements.
pub struct Rep {
    pub setup_s: f64,
    pub drive: Drive,
    pub jobs: u64,
    pub recovery_ms: Vec<f64>,
    pub disk_bytes: u64,
    /// CPU time the hypervisor gave to other guests during the
    /// repetition, in clock ticks over all CPUs.
    pub steal: u64,
    /// The whole repetition, set-up to last restart.
    pub wall: Duration,
}

/// Checks a live server's view after the last ack: every tenant ran every
/// round and conserves jobs.
fn check_stats(check: &str, stats: &ServiceStats, input: &Input) -> Result<(), String> {
    let arrived: u64 = stats.tenants.iter().map(|(_, p)| p.arrived).sum();
    let rounds = input.epochs.len() as u64;
    if stats.tenants.len() != input.specs.len()
        || stats.tenants.iter().any(|(_, p)| p.rounds != rounds)
        || arrived != input.jobs
        || !stats.conserves_jobs()
    {
        return Err(format!(
            "{check}: server reports {} tenants, arrived {arrived} of {} jobs, rounds {:?} \
             of {rounds}, conservation {}",
            stats.tenants.len(),
            input.jobs,
            stats
                .tenants
                .iter()
                .map(|(_, p)| p.rounds)
                .collect::<Vec<_>>(),
            stats.conserves_jobs()
        ));
    }
    Ok(())
}

/// One full repetition: set up, drive every epoch, check, then crash the
/// server after its last ack and time its restarts. Durable workloads
/// restart on the same data dir (without `Finish` before the crash) and
/// must `Finish` with the oracle's results; memory workloads `Finish`
/// before the crash and restart empty, which is the floor under the
/// durable restart.
pub fn rep(
    w: &Workload,
    seed: u64,
    reference: &Input,
    oracle: &Oracle,
    dir: &Path,
    trace: bool,
) -> Result<Rep, Failure> {
    let start = Instant::now();
    let steal = crate::report::steal_ticks();
    let f0 = |e: String| fail(e, 0);
    let (input, mut s, setup_s) = setup(w, seed, dir).map_err(f0)?;
    if input != *reference {
        return Err(f0("input not reproducible from the seed".into()));
    }
    let drive = drive(w, &mut s, input.epochs, trace)?;
    let input = reference;
    let acked = drive.acked;
    let f = |e: String| fail(e, acked);
    let live = stats(&mut s.tx, &mut s.rx).map_err(f)?;
    check_stats("stats after last ack", &live, input).map_err(f)?;
    let mut recovery_ms = Vec::with_capacity(RESTARTS);
    if w.storage == Storage::Memory {
        let results = finish(&mut s.tx, &mut s.rx).map_err(f)?;
        check_results("finish", input, oracle, &results).map_err(f)?;
    }
    drop(s);
    for restart in 0..RESTARTS {
        let start = Instant::now();
        let server = start_server(w, dir).map_err(f)?;
        let (mut tx, mut rx) = connect(&server).map_err(f)?;
        let restored = stats(&mut tx, &mut rx).map_err(f)?;
        recovery_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if w.storage == Storage::Disk {
            check_stats("stats after restart", &restored, input).map_err(f)?;
            if restart + 1 == RESTARTS {
                let results = finish(&mut tx, &mut rx).map_err(f)?;
                check_results("finish after restart", input, oracle, &results).map_err(f)?;
            }
        }
    }
    Ok(Rep {
        setup_s,
        drive,
        jobs: input.jobs,
        recovery_ms,
        disk_bytes: live.storage.bytes_written,
        steal: crate::report::steal_ticks().saturating_sub(steal),
        wall: start.elapsed(),
    })
}
