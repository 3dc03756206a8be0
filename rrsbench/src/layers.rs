//! The traced run: outside-in timings of the public calls into each layer,
//! made from this file around the calls, and the layer budget built from
//! them by subtraction.
//!
//! Each layer is driven on its own over the workload's full input:
//!
//! | layer      | calls timed                                             |
//! |------------|---------------------------------------------------------|
//! | engine     | `StreamingEngine::step` (the lone-engine oracle replay) |
//! | tenant     | `Tenant::submit` + `tick`, then `snapshot` / `restore`  |
//! | shard      | `ShardHandle::send` SubmitBatch + Tick → `wait_applied` |
//! | storage    | `ShardStore::append`, `commit_begin` → `commit_wait`,   |
//! |            | `put_checkpoint`, `StorageBackend::open_shard`          |
//! | supervisor | in-process `Supervisor::submit` and `tick`              |
//! | wire       | `encode_message_into` / `decode_message` of one epoch   |
//! | net        | `NetSink` submit + `tick` against a `NetServer`         |
//!
//! Self time per epoch is a layer's time minus its children's: tenant −
//! engine, shard − tenant, supervisor − shard − storage, net − supervisor −
//! wire (engine and tenant on the critical path: the slowest shard's sum).
//! The self times add up to the net layer's serial epoch time; the
//! remainder is the end-to-end epoch time of the workload's own loop minus
//! that sum (pipelining makes it negative, a paced loop's idle time positive).

use crate::drive::{self, supervisor_config, TempDir};
use crate::report::{mean, median, quantile, Report};
use crate::workload::{
    arrivals_of, check_results, critical_path, Entries, Input, Oracle, Storage, Workload, SHARDS,
};
use rrs_service::net::wire::{decode_message, encode_message_into};
use rrs_service::net::{Request, Response};
use rrs_service::storage::frame;
use rrs_service::{
    shard_for, spawn_shard_with, Checkpoint, Codec, Command, FaultPlan, NetServer, NetSink,
    ServiceResult, ShardFaults, ShardSnapshot, ShardStore, SinkConfig, Supervisor, Tenant,
    TenantId, WalRecord, WorkerConfig,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

fn ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn us(nanos: f64) -> f64 {
    nanos / 1e3
}

/// `(p50, p99)` of `samples`, in microseconds.
fn p50_p99_us(samples: &[u64]) -> (f64, f64) {
    (
        us(quantile(samples, 0.5) as f64),
        us(quantile(samples, 0.99) as f64),
    )
}

/// Runs every traced leg and returns the per-layer report and the epochs
/// attempted.
pub fn traced(
    w: &Workload,
    seed: u64,
    input: &Input,
    oracle: &Oracle,
    root: &Path,
    budget: Duration,
) -> Result<(Report, u64), String> {
    let epochs = input.epochs.len() as u64;
    let mut r = Report::default();

    // End-to-end legs, untraced and traced, alternating.
    let start = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut ack_samples = 0;
    let mut late_ns = Vec::new();
    while plain.is_empty() || start.elapsed() < budget / 2 {
        for trace in [false, true] {
            let dir = TempDir::new(root, "e2e")?;
            let rep = drive::rep(w, seed, input, oracle, dir.path(), trace)
                .map_err(|f| format!("end-to-end leg: {}", f.check))?;
            let d = rep.drive;
            if trace {
                // First send to last ack, read back from the spans.
                let first = d.spans.iter().map(|span| span.1).min().unwrap_or(0);
                let last = d.spans.iter().map(|span| span.2).max().unwrap_or(0);
                spanned.push(rep.jobs as f64 / ((last - first) as f64 / 1e9));
            } else {
                plain.push(rep.jobs as f64 / d.elapsed.as_secs_f64());
                ack_samples += d.ack_ns.len();
                late_ns.extend(d.late_ns);
            }
        }
    }
    let jobs_per_s = median(&plain);
    let epoch_ns = input.jobs as f64 / jobs_per_s / epochs as f64 * 1e9;

    let engine_ns = critical_path(&oracle.step_ns);
    let steps: Vec<u64> = oracle.step_ns.iter().flatten().copied().collect();
    let tenant = tenant_leg(input, oracle)?;
    let tenant_cp = critical_path(&tenant.epoch_ns);
    let shard = shard_leg(input, oracle)?;
    let storage = {
        let dir = TempDir::new(root, "storage")?;
        storage_leg(w, input, dir.path())?
    };
    let sup = {
        let dir = TempDir::new(root, "supervisor")?;
        supervisor_leg(w, input, oracle, dir.path())?
    };
    let wire = wire_leg(input)?;
    let net = {
        let dir = TempDir::new(root, "net")?;
        net_leg(w, input, oracle, dir.path())?
    };

    // engine
    let (p50, p99) = p50_p99_us(&steps);
    r.add_sampled("engine.step_us_p50", p50, "us", steps.len());
    r.add_sampled("engine.step_us_p99", p99, "us", steps.len());
    r.add("engine.busy_s", steps.iter().sum::<u64>() as f64 / 1e9, "s");
    let executed: u64 = oracle.results.iter().map(|x| x.executed).sum();
    r.add("engine.executed", executed as f64, "count");
    r.add(
        "engine.dropped",
        oracle.results.iter().map(|x| x.dropped_jobs).sum::<u64>() as f64,
        "count",
    );
    r.add(
        "engine.reconfig_cost",
        oracle.results.iter().map(|x| x.cost.reconfig).sum::<u64>() as f64,
        "count",
    );
    r.add(
        "engine.executed_ratio",
        executed as f64 / input.jobs as f64,
        "ratio",
    );
    // tenant
    r.add_sampled(
        "tenant.tick_us_p50",
        us(quantile(&tenant.tick_ns, 0.5) as f64),
        "us",
        tenant.tick_ns.len(),
    );
    r.add_sampled(
        "tenant.snapshot_us",
        us(median(&tenant.snapshot_ns)),
        "us",
        tenant.snapshot_ns.len(),
    );
    r.add("tenant.snapshot_bytes", tenant.snapshot_bytes as f64, "B");
    r.add("tenant.restore_ms", tenant.restore_ns as f64 / 1e6, "ms");
    // shard
    let (p50, p99) = p50_p99_us(&shard);
    r.add_sampled("shard.tick_roundtrip_us_p50", p50, "us", shard.len());
    r.add_sampled("shard.tick_roundtrip_us_p99", p99, "us", shard.len());
    // supervisor
    let (tick_p50, tick_p99) = p50_p99_us(&sup.tick_ns);
    let self_ns: Vec<u64> = sup
        .tick_ns
        .iter()
        .zip(&engine_ns)
        .map(|(t, e)| t.saturating_sub(*e))
        .collect();
    r.add_sampled(
        "supervisor.submit_us_p50",
        us(quantile(&sup.submit_ns, 0.5) as f64),
        "us",
        sup.submit_ns.len(),
    );
    r.add_sampled("supervisor.tick_us_p50", tick_p50, "us", sup.tick_ns.len());
    r.add_sampled("supervisor.tick_us_p99", tick_p99, "us", sup.tick_ns.len());
    r.add_sampled(
        "supervisor.checkpoint_tick_ms_p50",
        quantile(&sup.checkpoint_tick_ns, 0.5) as f64 / 1e6,
        "ms",
        sup.checkpoint_tick_ns.len(),
    );
    r.add_sampled(
        "supervisor.self_us_p50",
        us(quantile(&self_ns, 0.5) as f64),
        "us",
        self_ns.len(),
    );
    // storage
    let (commit_p50, commit_p99) = p50_p99_us(&storage.commit_ns);
    r.add_sampled(
        "storage.append_us_p50",
        us(quantile(&storage.append_ns, 0.5) as f64),
        "us",
        storage.append_ns.len(),
    );
    r.add_sampled(
        "storage.commit_us_p50",
        commit_p50,
        "us",
        storage.commit_ns.len(),
    );
    r.add_sampled(
        "storage.commit_us_p99",
        commit_p99,
        "us",
        storage.commit_ns.len(),
    );
    r.add_sampled(
        "storage.put_checkpoint_ms_p50",
        quantile(&storage.put_ns, 0.5) as f64 / 1e6,
        "ms",
        storage.put_ns.len(),
    );
    r.add("storage.open_ms", storage.open_ns as f64 / 1e6, "ms");
    r.add("storage.fsyncs", storage.fsyncs as f64, "count");
    r.add("storage.bytes_written", storage.bytes_written as f64, "B");
    r.add(
        "storage.checkpoint_bytes",
        storage.checkpoint_bytes as f64,
        "B",
    );
    r.add(
        "storage.bytes_per_job",
        storage.bytes_written as f64 / input.jobs as f64,
        "B/job",
    );
    // wire
    r.add_sampled(
        "wire.encode_us_p50",
        us(quantile(&wire.encode_ns, 0.5) as f64),
        "us",
        wire.encode_ns.len(),
    );
    r.add_sampled(
        "wire.decode_us_p50",
        us(quantile(&wire.decode_ns, 0.5) as f64),
        "us",
        wire.decode_ns.len(),
    );
    r.add(
        "wire.bytes_per_job",
        wire.bytes as f64 / input.jobs as f64,
        "B/job",
    );
    // net
    let rtt_p50 = us(quantile(&net.epoch_ns, 0.5) as f64);
    r.add_sampled(
        "net.self_us_p50",
        rtt_p50 - tick_p50,
        "us",
        net.epoch_ns.len(),
    );
    r.add("net.frames", net.frames as f64, "count");
    r.add(
        "net.bytes_per_job",
        net.bytes as f64 / input.jobs as f64,
        "B/job",
    );
    r.add("net.reconnects", net.reconnects as f64, "count");
    // load generator
    r.add_sampled(
        "loadgen.late_p99_ms",
        quantile(&late_ns, 0.99) as f64 / 1e6,
        "ms",
        late_ns.len(),
    );
    r.add("loadgen.ack_samples", ack_samples as f64, "count");
    let overhead_pct = (jobs_per_s - median(&spanned)) / jobs_per_s * 100.0;
    r.add_sampled("trace.overhead_pct", overhead_pct, "%", plain.len());

    // The layer budget: mean microseconds per epoch.
    let per_epoch = |total: f64| us(total / epochs as f64);
    let engine_us = us(mean(&engine_ns));
    let tenant_us = us(mean(&tenant_cp));
    let shard_us = us(mean(&shard));
    let storage_us = per_epoch(storage.total_ns as f64);
    let sup_us = us(mean(&sup.epoch_ns));
    let wire_us = us(mean(&wire.epoch_ns));
    let net_us = us(mean(&net.epoch_ns));
    let rows = [
        ("engine", engine_us),
        ("tenant", tenant_us - engine_us),
        ("shard", shard_us - tenant_us),
        ("storage", storage_us),
        ("supervisor", sup_us - shard_us - storage_us),
        ("wire", wire_us),
        ("net", net_us - sup_us - wire_us),
    ];
    let explained: f64 = rows.iter().map(|(_, v)| v).sum();
    let epoch_us = us(epoch_ns);
    eprintln!(
        "{:<16} layer budget, mean us per epoch ({epochs} epochs):",
        w.name
    );
    for (name, value) in rows {
        r.add(&format!("budget.{name}_us"), value, "us");
        eprintln!(
            "{:<16}   {name:<12} {value:>10.2} us {:>6.1}%",
            w.name,
            value / epoch_us * 100.0
        );
    }
    let remainder = epoch_us - explained;
    r.add("budget.remainder_us", remainder, "us");
    r.add("budget.epoch_us", epoch_us, "us");
    eprintln!(
        "{:<16}   {:<12} {remainder:>10.2} us {:>6.1}%\n{:<16}   {:<12} {epoch_us:>10.2} us (end-to-end, untraced; trace overhead {:.2}%)",
        w.name,
        "remainder",
        remainder / epoch_us * 100.0,
        w.name,
        "epoch",
        overhead_pct,
    );
    Ok((r, epochs * (plain.len() + spanned.len()) as u64))
}

struct TenantLeg {
    /// `epoch_ns[tenant][epoch]`: submit + tick.
    epoch_ns: Vec<Vec<u64>>,
    tick_ns: Vec<u64>,
    snapshot_ns: Vec<f64>,
    snapshot_bytes: u64,
    restore_ns: u64,
}

fn tenant_leg(input: &Input, oracle: &Oracle) -> Result<TenantLeg, String> {
    let mut leg = TenantLeg {
        epoch_ns: Vec::new(),
        tick_ns: Vec::new(),
        snapshot_ns: Vec::new(),
        snapshot_bytes: 0,
        restore_ns: 0,
    };
    let mut results = Vec::new();
    for (t, spec) in input.specs.iter().enumerate() {
        let id = t as TenantId;
        let mut tenant = Tenant::new(spec.clone()).map_err(|e| format!("tenant leg: {e}"))?;
        let mut times = Vec::with_capacity(input.epochs.len());
        for entries in &input.epochs {
            let start = Instant::now();
            tenant
                .submit(arrivals_of(entries, id))
                .map_err(|e| format!("tenant submit: {e}"))?;
            let tick = Instant::now();
            tenant.tick().map_err(|e| format!("tenant tick: {e}"))?;
            leg.tick_ns.push(ns(tick));
            times.push(ns(start));
        }
        leg.epoch_ns.push(times);
        let start = Instant::now();
        let snapshot = tenant.snapshot();
        leg.snapshot_ns.push(ns(start) as f64);
        leg.snapshot_bytes += frame::encode_value_with(&snapshot, Codec::Binary)
            .map_err(|e| format!("encode tenant snapshot: {e}"))?
            .len() as u64;
        let start = Instant::now();
        let restored =
            Tenant::restore(snapshot.clone()).map_err(|e| format!("tenant restore: {e}"))?;
        leg.restore_ns += ns(start);
        if restored.snapshot() != snapshot {
            return Err(format!(
                "tenant leg: tenant {t} restored to a different state"
            ));
        }
        results.push((
            id,
            restored
                .finish()
                .map_err(|e| format!("tenant finish: {e}"))?,
        ));
    }
    check_results("tenant leg", input, oracle, &results)?;
    Ok(leg)
}

/// Per-epoch round trip through the shard workers: each shard gets its
/// batch and tick, then the leg waits until every shard applied them.
fn shard_leg(input: &Input, oracle: &Oracle) -> Result<Vec<u64>, String> {
    let mut handles = Vec::new();
    for shard in 0..SHARDS {
        let mut tenants = BTreeMap::new();
        for (t, spec) in input.specs.iter().enumerate() {
            if shard_for(t as TenantId, SHARDS) == shard {
                tenants.insert(
                    t as TenantId,
                    Tenant::new(spec.clone()).map_err(|e| e.to_string())?,
                );
            }
        }
        handles.push(
            spawn_shard_with(WorkerConfig::new(shard, 64), ShardFaults::none(), tenants)
                .map_err(|e| format!("spawn shard: {e}"))?,
        );
    }
    let mut seqs = [0u64; SHARDS];
    let mut times = Vec::with_capacity(input.epochs.len());
    for entries in &input.epochs {
        let mut split: [Entries; SHARDS] = Default::default();
        for (t, arrivals) in entries {
            split[shard_for(*t, SHARDS)].push((*t, arrivals.clone()));
        }
        let start = Instant::now();
        for ((handle, batch), seq) in handles.iter().zip(split).zip(seqs.iter_mut()) {
            if !batch.is_empty() {
                *seq += 1;
                handle
                    .send(Command::SubmitBatch {
                        entries: batch,
                        seq: *seq,
                    })
                    .map_err(|e| format!("shard send: {e}"))?;
            }
            *seq += 1;
            handle
                .send(Command::Tick { seq: *seq })
                .map_err(|e| format!("shard send: {e}"))?;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        for (handle, seq) in handles.iter().zip(seqs) {
            handle
                .wait_applied(seq, deadline)
                .map_err(|e| format!("shard wait: {e}"))?;
        }
        times.push(ns(start));
    }
    let mut results = Vec::new();
    for handle in handles {
        results.extend(handle.finish().map_err(|e| format!("shard finish: {e}"))?);
    }
    check_results("shard leg", input, oracle, &results)?;
    Ok(times)
}

struct StorageLeg {
    append_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    put_ns: Vec<u64>,
    /// Every timed storage call, summed.
    total_ns: u64,
    open_ns: u64,
    fsyncs: u64,
    bytes_written: u64,
    checkpoint_bytes: u64,
}

/// The workload's journal records through each shard's store, with the
/// supervisor's checkpoint cadence; the states checkpointed come from
/// tenants advanced alongside, untimed.
fn storage_leg(w: &Workload, input: &Input, dir: &Path) -> Result<StorageLeg, String> {
    let err = |e: rrs_service::ServiceError| format!("storage leg: {e}");
    let mut backend = drive::backend(w, dir);
    let mut stores = Vec::new();
    let mut tenants: Vec<BTreeMap<TenantId, Tenant>> = Vec::new();
    for shard in 0..SHARDS {
        let mut store = backend
            .open_shard(shard, ShardFaults::none())
            .map_err(err)?;
        let mut owned = BTreeMap::new();
        for (t, spec) in input.specs.iter().enumerate() {
            let id = t as TenantId;
            if shard_for(id, SHARDS) == shard {
                store
                    .append(&WalRecord::AddTenant {
                        id,
                        spec: spec.clone(),
                    })
                    .map_err(err)?;
                owned.insert(id, Tenant::new(spec.clone()).map_err(err)?);
            }
        }
        store.commit().map_err(err)?;
        stores.push(store);
        tenants.push(owned);
    }
    let mut leg = StorageLeg {
        append_ns: Vec::new(),
        commit_ns: Vec::new(),
        put_ns: Vec::new(),
        total_ns: 0,
        open_ns: 0,
        fsyncs: 0,
        bytes_written: 0,
        checkpoint_bytes: 0,
    };
    let mut newest = [0u64; SHARDS];
    for (e, entries) in input.epochs.iter().enumerate() {
        let ticks = e as u64 + 1;
        for (shard, (store, owned)) in stores.iter_mut().zip(tenants.iter_mut()).enumerate() {
            let batch: Vec<_> = entries
                .iter()
                .filter(|(t, _)| shard_for(*t, SHARDS) == shard)
                .cloned()
                .collect();
            let mut records = Vec::with_capacity(2);
            if !batch.is_empty() {
                for (t, arrivals) in &batch {
                    owned
                        .get_mut(t)
                        .expect("tenant on its shard")
                        .submit(arrivals)
                        .map_err(err)?;
                }
                records.push(WalRecord::SubmitBatch { entries: batch });
            }
            records.push(WalRecord::Tick);
            for record in &records {
                let start = Instant::now();
                store.append(record).map_err(err)?;
                leg.append_ns.push(ns(start));
            }
            let start = Instant::now();
            store.commit_begin().map_err(err)?;
            store.commit_wait().map_err(err)?;
            leg.commit_ns.push(ns(start));
            for tenant in owned.values_mut() {
                tenant.tick().map_err(err)?;
            }
            if w.checkpoint_every > 0 && ticks.is_multiple_of(w.checkpoint_every) {
                newest[shard] =
                    put_checkpoint(store.as_mut(), shard, owned, ticks, &mut leg.put_ns)
                        .map_err(err)?;
            }
        }
    }
    // One more checkpoint of the final state, so that workloads without
    // a checkpoint cadence still price one on their backend.
    let ticks = input.epochs.len() as u64;
    for (shard, (store, owned)) in stores.iter_mut().zip(&tenants).enumerate() {
        newest[shard] =
            put_checkpoint(store.as_mut(), shard, owned, ticks, &mut leg.put_ns).map_err(err)?;
    }
    leg.total_ns = leg
        .append_ns
        .iter()
        .chain(&leg.commit_ns)
        .chain(&leg.put_ns)
        .sum();
    leg.checkpoint_bytes = newest.iter().sum();
    let stats = backend.stats();
    leg.fsyncs = stats.fsyncs;
    leg.bytes_written = stats.bytes_written;
    let ends: Vec<u64> = stores.iter().map(|s| s.end()).collect();
    drop(stores);
    drop(backend);
    // Reopen: the read path a cold start pays before any replay.
    let mut backend = drive::backend(w, dir);
    let start = Instant::now();
    let reopened = (0..SHARDS)
        .map(|shard| backend.open_shard(shard, ShardFaults::none()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    leg.open_ns = ns(start);
    if w.storage == Storage::Disk && reopened.iter().map(|s| s.end()).collect::<Vec<_>>() != ends {
        return Err("storage leg: reopened stores end at different offsets".into());
    }
    Ok(leg)
}

/// Puts a checkpoint of `owned` at the store's end, timing the put, and
/// returns its binary-encoded size.
fn put_checkpoint(
    store: &mut dyn ShardStore,
    shard: usize,
    owned: &BTreeMap<TenantId, Tenant>,
    ticks: u64,
    put_ns: &mut Vec<u64>,
) -> ServiceResult<u64> {
    let checkpoint = Checkpoint {
        snapshot: ShardSnapshot {
            shard,
            tenants: owned.iter().map(|(&id, t)| (id, t.snapshot())).collect(),
        },
        wal_offset: store.end(),
        ticks,
    };
    let bytes = frame::encode_value_with(&checkpoint, Codec::Binary)?.len() as u64;
    let start = Instant::now();
    store.put_checkpoint(checkpoint)?;
    put_ns.push(ns(start));
    Ok(bytes)
}

struct SupervisorLeg {
    submit_ns: Vec<u64>,
    tick_ns: Vec<u64>,
    checkpoint_tick_ns: Vec<u64>,
    /// Per epoch: every submit plus the tick.
    epoch_ns: Vec<u64>,
}

fn supervisor_leg(
    w: &Workload,
    input: &Input,
    oracle: &Oracle,
    dir: &Path,
) -> Result<SupervisorLeg, String> {
    let err = |e: rrs_service::ServiceError| format!("supervisor leg: {e}");
    let mut sup = Supervisor::with_storage(
        supervisor_config(w),
        &FaultPlan::none(),
        drive::backend(w, dir),
    )
    .map_err(err)?;
    for (t, spec) in input.specs.iter().enumerate() {
        sup.add_tenant(t as TenantId, spec.clone()).map_err(err)?;
    }
    let mut leg = SupervisorLeg {
        submit_ns: Vec::new(),
        tick_ns: Vec::new(),
        checkpoint_tick_ns: Vec::new(),
        epoch_ns: Vec::new(),
    };
    for (e, entries) in input.epochs.iter().enumerate() {
        let batch = entries.clone();
        let start = Instant::now();
        for (t, arrivals) in batch {
            let submit = Instant::now();
            sup.submit(t, arrivals).map_err(err)?;
            leg.submit_ns.push(ns(submit));
        }
        let tick = Instant::now();
        sup.tick().map_err(err)?;
        let tick_ns = ns(tick);
        leg.tick_ns.push(tick_ns);
        leg.epoch_ns.push(ns(start));
        if w.checkpoint_every > 0 && (e as u64 + 1).is_multiple_of(w.checkpoint_every) {
            leg.checkpoint_tick_ns.push(tick_ns);
        }
    }
    if leg.checkpoint_tick_ns.is_empty() {
        // No checkpoint cadence: price the checkpoint work a checkpoint
        // tick would add, on every shard, after the last epoch.
        let start = Instant::now();
        for shard in 0..SHARDS {
            sup.checkpoint(shard).map_err(err)?;
        }
        leg.checkpoint_tick_ns.push(ns(start));
    }
    if leg.checkpoint_tick_ns.len() >= 4 {
        let n = leg.checkpoint_tick_ns.len();
        let quarters: Vec<f64> = (0..4)
            .map(|q| mean(&leg.checkpoint_tick_ns[q * n / 4..(q + 1) * n / 4]) / 1e6)
            .collect();
        eprintln!(
            "{:<16} supervisor checkpoint tick ms, mean by quarter of the input: {quarters:.2?}",
            w.name
        );
    }
    let results: Vec<_> = sup.finish().map_err(err)?.into_iter().collect();
    check_results("supervisor leg", input, oracle, &results)?;
    Ok(leg)
}

struct WireLeg {
    encode_ns: Vec<u64>,
    decode_ns: Vec<u64>,
    epoch_ns: Vec<u64>,
    /// Request frame bytes over the whole input.
    bytes: u64,
}

/// Encodes and decodes each epoch's messages: the `SubmitBatch` and
/// `Tick` requests and their `Queued` and `TickAck` responses.
fn wire_leg(input: &Input) -> Result<WireLeg, String> {
    let mut leg = WireLeg {
        encode_ns: Vec::new(),
        decode_ns: Vec::new(),
        epoch_ns: Vec::new(),
        bytes: 0,
    };
    let (mut body, mut requests, mut responses) = (Vec::new(), Vec::new(), Vec::new());
    for (e, entries) in input.epochs.iter().enumerate() {
        let epoch = e as u64 + 1;
        let jobs = entries.iter().flat_map(|(_, a)| a).map(|&(_, k)| k).sum();
        let mut reqs = Vec::with_capacity(2);
        let mut resps = Vec::with_capacity(2);
        if !entries.is_empty() {
            reqs.push(Request::SubmitBatch {
                epoch,
                entries: entries.clone(),
            });
            resps.push(Response::Queued { epoch, jobs });
        }
        reqs.push(Request::Tick { epoch, parties: 1 });
        resps.push(Response::TickAck {
            epoch,
            seqs: vec![2 * epoch; SHARDS],
        });
        requests.clear();
        responses.clear();
        let start = Instant::now();
        let encode = (|| {
            for req in &reqs {
                encode_message_into(req, Codec::Binary, false, &mut body, &mut requests)?;
            }
            for resp in &resps {
                encode_message_into(resp, Codec::Binary, false, &mut body, &mut responses)?;
            }
            Ok::<_, rrs_service::ServiceError>(())
        })();
        let encode_ns = ns(start);
        encode.map_err(|e| format!("wire encode: {e}"))?;
        let start = Instant::now();
        let mut decoded_reqs = Vec::with_capacity(2);
        let mut pos = 0;
        while pos < requests.len() {
            let (req, used) = decode_message::<Request>(&requests[pos..])
                .map_err(|e| format!("wire decode: {e:?}"))?;
            decoded_reqs.push(req);
            pos += used;
        }
        let mut decoded_resps = Vec::with_capacity(2);
        pos = 0;
        while pos < responses.len() {
            let (resp, used) = decode_message::<Response>(&responses[pos..])
                .map_err(|e| format!("wire decode: {e:?}"))?;
            decoded_resps.push(resp);
            pos += used;
        }
        let decode_ns = ns(start);
        if decoded_reqs != reqs || decoded_resps != resps {
            return Err(format!("wire leg: epoch {epoch} did not round-trip"));
        }
        leg.encode_ns.push(encode_ns);
        leg.decode_ns.push(decode_ns);
        leg.epoch_ns.push(encode_ns + decode_ns);
        leg.bytes += requests.len() as u64;
    }
    Ok(leg)
}

struct NetLeg {
    /// Per epoch: the submits plus `NetSink::tick` with one epoch in
    /// flight, i.e. the client's ack round trip.
    epoch_ns: Vec<u64>,
    frames: u64,
    bytes: u64,
    reconnects: u64,
}

fn net_leg(w: &Workload, input: &Input, oracle: &Oracle, dir: &Path) -> Result<NetLeg, String> {
    let err = |e: rrs_service::ServiceError| format!("net leg: {e}");
    let sup = Supervisor::with_storage(
        supervisor_config(w),
        &FaultPlan::none(),
        drive::backend(w, dir),
    )
    .map_err(err)?;
    let server = NetServer::start(sup, "127.0.0.1:0").map_err(err)?;
    let config = SinkConfig {
        max_inflight: 0,
        ..SinkConfig::default()
    };
    let mut sink = NetSink::connect(&server.addr().to_string(), 1, config).map_err(err)?;
    for (t, spec) in input.specs.iter().enumerate() {
        sink.add_tenant(t as TenantId, spec.clone()).map_err(err)?;
    }
    let mut epoch_ns = Vec::with_capacity(input.epochs.len());
    for entries in &input.epochs {
        let batch = entries.clone();
        let start = Instant::now();
        for (t, arrivals) in batch {
            sink.submit(t, arrivals);
        }
        sink.tick().map_err(err)?;
        epoch_ns.push(ns(start));
    }
    let counters = sink.counters();
    let results: Vec<_> = sink.finish().map_err(err)?.into_iter().collect();
    check_results("net leg", input, oracle, &results)?;
    if counters.epochs_acked != input.epochs.len() as u64 {
        return Err(format!(
            "net leg: {} of {} epochs acked",
            counters.epochs_acked,
            input.epochs.len()
        ));
    }
    Ok(NetLeg {
        epoch_ns,
        frames: counters.frames_sent,
        bytes: counters.bytes_sent + counters.bytes_received,
        reconnects: counters.reconnects,
    })
}
