//! The named workloads, their seeded inputs, and the lone-engine oracle.

use rrs_core::{ColorId, CostModel, RunResult, StreamingEngine};
use rrs_service::{shard_for, PolicySpec, TenantId, TenantSpec};
use rrs_workloads::{Datacenter, MultiTenantLoad, WorkloadSpec};
use std::time::Instant;

/// Shards in every server the benchmark starts (one per core of the
/// two-core machine the benchmark is sized for).
pub const SHARDS: usize = 2;

/// How the load generator paces epochs.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Send the next epoch once fewer than `window` are unacknowledged.
    Closed { window: usize },
    /// One epoch in flight, at a fixed offered rate: epoch `e` is sent
    /// `e / epochs_per_s` seconds after the start, or on the previous
    /// epoch's ack if that comes later.
    Paced { epochs_per_s: f64 },
}

/// Where the server keeps its journal and checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Memory,
    /// Disk with fsync on and pipelined (the `DiskConfig` defaults).
    Disk,
}

/// One named workload: a fixed input size in rounds plus the service
/// configuration it runs against.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub tenants: u64,
    /// Per-tenant arrival distribution; `horizon` is the input size in
    /// rounds (epochs).
    pub datacenter: Datacenter,
    pub policies: &'static [PolicySpec],
    pub n: usize,
    pub delta: u64,
    pub storage: Storage,
    pub checkpoint_every: u64,
    pub pacing: Loop,
}

const MIXED: &[PolicySpec] = &[
    PolicySpec::DlruEdf,
    PolicySpec::Dlru,
    PolicySpec::Edf,
    PolicySpec::GreedyPending,
];

/// Every workload, in the order `--workload all` runs them.
pub fn all() -> Vec<Workload> {
    vec![
        // Tiny engine work per epoch, so the fixed per-epoch path (wire,
        // socket, server lock, supervisor journaling, shard hand-off)
        // dominates. Memory storage and no checkpoints bypass storage.
        Workload {
            name: "small-epochs",
            tenants: 4,
            datacenter: Datacenter {
                horizon: 1024,
                ..Datacenter::default()
            },
            policies: MIXED,
            n: 4,
            delta: 2,
            storage: Storage::Memory,
            checkpoint_every: 0,
            pacing: Loop::Closed { window: 1 },
        },
        // 512 colours and 64 resources per tenant: the paper's policy
        // dominates the epoch, so engine work shows here and not above.
        Workload {
            name: "engine-heavy",
            tenants: 4,
            datacenter: Datacenter {
                interactive_services: 384,
                batch_services: 128,
                peak_rate: 0.5,
                horizon: 1024,
                ..Datacenter::default()
            },
            policies: &[PolicySpec::DlruEdf],
            n: 64,
            delta: 4,
            storage: Storage::Memory,
            checkpoint_every: 0,
            pacing: Loop::Closed { window: 8 },
        },
        // Disk storage with the default checkpoint cadence over a history
        // long enough that per-epoch cost grows with it (checkpoints carry
        // the whole arrival log), offered at a fixed rate that is a
        // workload parameter, never derived from measured capacity. One
        // epoch in flight, so a stall of the shared disk delays the epoch
        // it hits and not the ones due behind it, and the tail reads the
        // checkpoint ticks.
        Workload {
            name: "durable-history",
            tenants: 8,
            datacenter: Datacenter {
                horizon: 1024,
                ..Datacenter::default()
            },
            policies: MIXED,
            n: 4,
            delta: 2,
            storage: Storage::Disk,
            checkpoint_every: 32,
            pacing: Loop::Paced {
                epochs_per_s: 1600.0,
            },
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// One epoch's `SubmitBatch` entries: `(tenant, arrivals)` in tenant order,
/// idle tenants left out.
pub type Entries = Vec<(TenantId, Vec<(ColorId, u64)>)>;

/// A workload's generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub specs: Vec<TenantSpec>,
    /// One entry list per epoch; the input size is `epochs.len()` rounds.
    pub epochs: Vec<Entries>,
    pub jobs: u64,
}

impl Workload {
    pub fn rounds(&self) -> u64 {
        self.datacenter.horizon
    }

    /// The tenants' specs and per-epoch arrivals for `seed`: tenant `t`
    /// draws its own trace from `MultiTenantLoad`'s per-tenant seed.
    pub fn generate(&self, seed: u64) -> Input {
        let load = MultiTenantLoad::new(
            WorkloadSpec::Datacenter(self.datacenter.clone()),
            self.tenants,
            seed,
        );
        let traces = load.traces();
        let specs = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| {
                let policy = self.policies[t % self.policies.len()];
                TenantSpec::new(policy, trace.colors().clone(), self.n, self.delta)
            })
            .collect();
        let mut jobs = 0;
        let epochs = (0..self.rounds())
            .map(|round| {
                traces
                    .iter()
                    .enumerate()
                    .filter_map(|(t, trace)| {
                        let arrivals = trace.arrivals_at(round);
                        jobs += arrivals.iter().map(|&(_, k)| k).sum::<u64>();
                        (!arrivals.is_empty()).then_some((t as TenantId, arrivals))
                    })
                    .collect()
            })
            .collect();
        Input {
            specs,
            epochs,
            jobs,
        }
    }
}

/// Per-tenant arrivals of one epoch (empty for idle tenants).
pub fn arrivals_of(entries: &Entries, tenant: TenantId) -> &[(ColorId, u64)] {
    entries
        .iter()
        .find(|(t, _)| *t == tenant)
        .map_or(&[], |(_, a)| a.as_slice())
}

/// The lone-`StreamingEngine` replay every service result must equal, with
/// each `StreamingEngine::step` timed (the engine layer's trace).
pub struct Oracle {
    pub results: Vec<RunResult>,
    /// `step_ns[tenant][epoch]`.
    pub step_ns: Vec<Vec<u64>>,
}

impl Oracle {
    pub fn replay(input: &Input) -> Result<Oracle, String> {
        let mut results = Vec::new();
        let mut step_ns = Vec::new();
        for (t, spec) in input.specs.iter().enumerate() {
            let policy = spec
                .policy
                .build(&spec.colors, spec.n, spec.delta)
                .map_err(|e| format!("oracle policy for tenant {t}: {e}"))?;
            let mut engine = StreamingEngine::with_speed(
                spec.colors.clone(),
                policy,
                spec.n,
                CostModel::new(spec.delta),
                spec.policy.speed(),
            )
            .map_err(|e| format!("oracle engine for tenant {t}: {e}"))?;
            let mut times = Vec::with_capacity(input.epochs.len());
            for entries in &input.epochs {
                let arrivals = arrivals_of(entries, t as TenantId);
                let start = Instant::now();
                engine
                    .step(arrivals)
                    .map_err(|e| format!("oracle step: {e}"))?;
                times.push(start.elapsed().as_nanos() as u64);
            }
            results.push(engine.finish().map_err(|e| format!("oracle finish: {e}"))?);
            step_ns.push(times);
        }
        Ok(Oracle { results, step_ns })
    }
}

/// Per-epoch time on the critical path from per-tenant times
/// (`per_tenant[tenant][epoch]`): the slowest shard's sum, since shards
/// run their tenants in parallel.
pub fn critical_path(per_tenant: &[Vec<u64>]) -> Vec<u64> {
    let epochs = per_tenant.first().map_or(0, Vec::len);
    (0..epochs)
        .map(|e| {
            let mut by_shard = [0u64; SHARDS];
            for (t, times) in per_tenant.iter().enumerate() {
                by_shard[shard_for(t as TenantId, SHARDS)] += times[e];
            }
            by_shard.into_iter().max().unwrap_or(0)
        })
        .collect()
}

/// The correctness gate on a set of final results: each tenant's
/// `RunResult` equals the oracle's, and conserves jobs.
pub fn check_results(
    check: &str,
    input: &Input,
    oracle: &Oracle,
    results: &[(TenantId, RunResult)],
) -> Result<(), String> {
    if results.len() != oracle.results.len() {
        return Err(format!(
            "{check}: {} tenant results, expected {}",
            results.len(),
            oracle.results.len()
        ));
    }
    let mut executed = 0;
    let mut dropped = 0;
    for (t, result) in results {
        let expected = oracle
            .results
            .get(*t as usize)
            .ok_or_else(|| format!("{check}: unknown tenant {t} in results"))?;
        if result != expected {
            return Err(format!(
                "{check}: tenant {t} differs from the lone-engine oracle \
                 (executed {} vs {}, dropped {} vs {}, cost {:?} vs {:?})",
                result.executed,
                expected.executed,
                result.dropped_jobs,
                expected.dropped_jobs,
                result.cost,
                expected.cost
            ));
        }
        executed += result.executed;
        dropped += result.dropped_jobs;
    }
    if executed + dropped != input.jobs {
        return Err(format!(
            "{check}: job conservation broken: executed {executed} + dropped {dropped} \
             != arrived {}",
            input.jobs
        ));
    }
    Ok(())
}

/// The oracle itself must conserve jobs, or every comparison against it
/// is meaningless.
pub fn check_oracle(input: &Input, oracle: &Oracle) -> Result<(), String> {
    let results: Vec<(TenantId, RunResult)> = oracle
        .results
        .iter()
        .cloned()
        .enumerate()
        .map(|(t, r)| (t as TenantId, r))
        .collect();
    check_results("oracle", input, oracle, &results)
}
