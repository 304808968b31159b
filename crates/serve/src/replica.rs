//! The replicated shard tier: mode-0 shard layout and the modeled replica
//! ranks the router dispatches attempts to.
//!
//! ## Layout
//!
//! A [`ShardMap`] partitions the store's mode-0 rows into `S` contiguous
//! blocks by the paper's §3.4 rule ([`block_range`]); each shard is served
//! by `k` replica engines, and replica `r` of shard `s` occupies *world
//! rank* `s·k + r`. Every replica of a shard holds an identical
//! [`shard_tucker`] slice, so any of them answers a shard-local query
//! bit-identically.
//!
//! ## Fault semantics
//!
//! Each replica rank keeps its own monotone op counter — one op per
//! *attempt* routed to it — and interprets an attached
//! [`FaultPlan`](tucker_mpisim::FaultPlan) against `(world rank, op)`
//! exactly like the mpisim runtime does for sends and recvs:
//!
//! * `Crash` — the replica registers itself in the shared
//!   [`CrashRegistry`] and serves nothing, now or ever again; the router
//!   fails the attempt over to a surviving replica.
//! * `Drop` — the attempt is lost in transit (no work done, no clock
//!   advance); the router retries after backoff.
//! * `Delay { vt, .. }` — the attempt is served but takes `vt` extra
//!   virtual seconds, which can push the query past its timeout budget.
//! * `Corrupt` — the attempt is served, but one bit of the response
//!   payload is flipped *after* the replica fingerprints it; the router's
//!   own CRC-32 over the received bytes disagrees with the replica's, the
//!   answer is discarded, and the attempt fails over (a wrong-CRC payload
//!   is never returned to a client).

use crate::engine::{tensor_crc, Engine, EngineConfig};
use crate::error::ServeError;
use crate::obs::EngineSpan;
use crate::plan::OrderPolicy;
use crate::query::Query;
use crate::store::TuckerStore;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use tucker_core::shard_tucker;
use tucker_core::TuckerTensor;
use tucker_dtensor::{block_owner, block_range};
use tucker_mpisim::{CrashRegistry, FaultKind, FaultPlan};
use tucker_tensor::codec::{write_scalars, IoScalar, Source};
use tucker_tensor::{SlabSel, Tensor};

/// The mode-0 shard partition: `rows` global rows over `shards` contiguous
/// blocks, front-loaded per [`block_range`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    rows: usize,
    shards: usize,
}

impl ShardMap {
    /// A partition of `rows` mode-0 rows into `shards` blocks.
    pub fn new(rows: usize, shards: usize) -> Self {
        assert!(
            shards >= 1 && shards <= rows,
            "shard map: {shards} shards over {rows} rows"
        );
        ShardMap { rows, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Global mode-0 rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        block_range(self.rows, self.shards, s)
    }

    /// The shard owning global row `row`.
    pub fn owner(&self, row: usize) -> usize {
        block_owner(self.rows, self.shards, row)
    }

    /// Split a global mode-0 selection into per-shard, shard-local pieces,
    /// in ascending shard (= ascending global row) order. Each piece is a
    /// contiguous run of the arithmetic progression, so it is again a
    /// `(start, step, count)` selection — shifted into the shard's local
    /// coordinates.
    pub fn split(&self, sel: SlabSel) -> Vec<(usize, SlabSel)> {
        let (start, step, count) = sel;
        let mut out: Vec<(usize, SlabSel)> = Vec::new();
        for k in 0..count {
            let row = start + k * step;
            let shard = self.owner(row);
            let local = row - self.range(shard).start;
            match out.last_mut() {
                Some((s, (_, _, c))) if *s == shard => *c += 1,
                _ => out.push((shard, (local, step, 1))),
            }
        }
        out
    }
}

/// Outcome of one attempt on one replica rank.
pub(crate) enum Attempt<T> {
    /// The replica answered. `crc` is the replica's own fingerprint of what
    /// it computed — the router must re-fingerprint `tensor` and compare to
    /// detect in-flight corruption.
    Served {
        /// Response payload as received (possibly corrupted in transit).
        tensor: Tensor<T>,
        /// The replica's CRC-32 of the payload it actually computed.
        crc: u32,
        /// Virtual time the response arrived.
        finish: f64,
        /// Engine plan-step spans recorded inside the service window
        /// (empty unless span recording is on), offsets relative to the
        /// attempt's start.
        sub: Vec<EngineSpan>,
    },
    /// The replica died on this attempt (it is now in the registry).
    Crashed {
        /// Virtual time the death was observed.
        at: f64,
    },
    /// The attempt was lost in transit; nothing was served.
    Dropped {
        /// Virtual time the loss was detected.
        at: f64,
    },
    /// The query itself is unservable (e.g. malformed); retrying elsewhere
    /// cannot help.
    Failed(ServeError),
}

/// The replica ranks: one [`Engine`] per world rank, with per-rank op
/// counters, virtual clocks, fault schedules, and a shared [`CrashRegistry`].
pub struct ReplicaTier<T: IoScalar> {
    map: ShardMap,
    replicas: usize,
    dims: Vec<usize>,
    engines: Vec<Engine<T>>,
    cfg: EngineConfig,
    ops: Vec<u64>,
    clocks: Vec<f64>,
    faults: Vec<HashMap<u64, FaultKind>>,
    registry: Arc<CrashRegistry>,
}

impl<T: IoScalar> ReplicaTier<T> {
    /// Shard `tk` into `shards` mode-0 blocks and stand up `replicas`
    /// engines per shard, with `plan`'s faults armed against world ranks.
    /// Requires [`OrderPolicy::Exact`] — the tier's bit-identity contract
    /// is meaningless under cost-ordered (tolerance-equal) execution.
    pub fn new(
        tk: &TuckerTensor<T>,
        shards: usize,
        replicas: usize,
        cfg: EngineConfig,
        plan: &FaultPlan,
    ) -> Self {
        assert!(replicas >= 1, "need at least one replica per shard");
        assert_eq!(
            cfg.order_policy,
            OrderPolicy::Exact,
            "replicated tier requires the bit-identical Exact policy"
        );
        let dims = tk.original_dims();
        assert!(!dims.is_empty(), "tier needs at least one mode");
        let map = ShardMap::new(dims[0], shards);
        let parts = shard_tucker(tk, shards);
        let world = shards * replicas;
        let mut engines = Vec::with_capacity(world);
        for part in &parts {
            for _ in 0..replicas {
                engines
                    .push(Engine::new(TuckerStore::from_tucker(part.clone()), cfg.clone()));
            }
        }
        let faults = (0..world).map(|rank| plan.for_rank(rank)).collect();
        ReplicaTier {
            map,
            replicas,
            dims,
            engines,
            cfg,
            ops: vec![0; world],
            clocks: vec![0.0; world],
            faults,
            registry: Arc::new(CrashRegistry::new(world)),
        }
    }

    /// Swap every replica onto a newly published decomposition without
    /// restarting the tier: the new tensor is re-sharded over the *same*
    /// shard layout, each rank's engine gets its shard slice (contraction
    /// caches invalidated), and everything that encodes tier history — op
    /// counters, virtual clocks, armed fault schedules, and the crash
    /// registry — is preserved, so crashed ranks stay crashed and pending
    /// faults still fire on the ops they were keyed to.
    ///
    /// The swap is validated before any state changes: the new tensor must
    /// keep the mode count and still have at least one mode-0 row per
    /// shard. On error the tier is untouched and keeps serving the old
    /// generation.
    pub fn hot_swap(&mut self, tk: &TuckerTensor<T>, generation: u64) -> Result<(), ServeError> {
        let dims = tk.original_dims();
        if dims.len() != self.dims.len() {
            return Err(ServeError::BadQuery(format!(
                "hot swap changes mode count: {} -> {}",
                self.dims.len(),
                dims.len()
            )));
        }
        let shards = self.map.shards();
        if dims.is_empty() || dims[0] < shards {
            return Err(ServeError::BadQuery(format!(
                "hot swap needs >= {shards} mode-0 rows, got {:?}",
                dims.first()
            )));
        }
        let parts = shard_tucker(tk, shards);
        for (s, part) in parts.iter().enumerate() {
            for r in 0..self.replicas {
                let rank = s * self.replicas + r;
                self.engines[rank]
                    .swap_store(TuckerStore::from_tucker_generation(part.clone(), generation));
            }
        }
        self.map = ShardMap::new(dims[0], shards);
        self.dims = dims;
        Ok(())
    }

    /// The generation currently served (all live replicas agree: swaps are
    /// tier-wide and atomic with respect to the dispatch loop).
    pub fn generation(&self) -> u64 {
        self.engines.first().map_or(0, |e| e.store().generation())
    }

    /// The engine configuration every replica runs with.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shard partition.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Global (unsharded) tensor dimensions the tier serves.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Total replica ranks (`shards × replicas`).
    pub fn world_size(&self) -> usize {
        self.engines.len()
    }

    /// World rank of replica `r` of shard `s`.
    pub fn rank(&self, shard: usize, replica: usize) -> usize {
        debug_assert!(shard < self.map.shards() && replica < self.replicas);
        shard * self.replicas + replica
    }

    /// The shard a world rank serves.
    pub fn shard_of(&self, rank: usize) -> usize {
        rank / self.replicas
    }

    /// The shared crash registry (the router's failover oracle).
    pub fn registry(&self) -> &Arc<CrashRegistry> {
        &self.registry
    }

    /// Replica `rank`'s virtual busy-until clock.
    pub(crate) fn clock(&self, rank: usize) -> f64 {
        self.clocks[rank]
    }

    /// Toggle engine plan-step span recording on every replica.
    pub(crate) fn set_span_recording(&mut self, on: bool) {
        for e in &mut self.engines {
            e.set_span_recording(on);
        }
    }

    /// Route one attempt of shard-local query `q` to `rank`, arriving at
    /// virtual time `at`. Consumes one op on the rank and interprets any
    /// fault scheduled there.
    pub(crate) fn attempt(&mut self, rank: usize, q: &Query, at: f64) -> Attempt<T> {
        if self.registry.is_crashed(rank) {
            // Defensive: the router filters dead replicas, but a rank can
            // die between the filter and the attempt in future schedules.
            return Attempt::Crashed { at };
        }
        let op = self.ops[rank];
        self.ops[rank] += 1;
        let fault = self.faults[rank].get(&op).cloned();
        match fault {
            Some(FaultKind::Crash) => {
                self.registry.mark(rank, op, "serve");
                Attempt::Crashed { at }
            }
            Some(FaultKind::Drop { .. }) => Attempt::Dropped { at },
            fault => {
                let start = at.max(self.clocks[rank]);
                let out = match self.engines[rank].execute(q) {
                    Ok(out) => out,
                    Err(e) => return Attempt::Failed(e),
                };
                let sub = self.engines[rank].take_spans();
                let mut tensor = out.tensor;
                let mut service = out.cost.seconds;
                // The replica fingerprints what it computed *before* the
                // wire can damage it.
                let crc = tensor_crc(&tensor);
                match fault {
                    Some(FaultKind::Delay { vt, .. }) => service += vt.max(0.0),
                    Some(FaultKind::Corrupt { element, bit }) => {
                        flip_payload_bit(&mut tensor, element, bit);
                    }
                    _ => {}
                }
                let finish = start + service;
                self.clocks[rank] = finish;
                Attempt::Served { tensor, crc, finish, sub }
            }
        }
    }
}

/// Flip one bit of one element of a payload in place (indices reduced
/// modulo the payload size), mirroring mpisim's in-transit `Corrupt` fault.
fn flip_payload_bit<T: IoScalar>(t: &mut Tensor<T>, element: usize, bit: u32) {
    if t.is_empty() {
        return;
    }
    let idx = element % t.len();
    let mut bytes = Vec::with_capacity(8);
    write_scalars(&mut bytes, &t.data()[idx..=idx]).expect("vec write cannot fail");
    let bit = (bit % (T::TAG * 8)) as usize;
    bytes[bit / 8] ^= 1 << (bit % 8);
    t.data_mut()[idx] = Source::from_slice(&bytes).scalars(1).expect("one scalar was written")[0];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthetic_store;

    #[test]
    fn shard_map_split_covers_selections_in_order() {
        let m = ShardMap::new(10, 4); // blocks 0..3, 3..6, 6..8, 8..10
        assert_eq!(m.range(0), 0..3);
        assert_eq!(m.owner(0), 0);
        assert_eq!(m.owner(9), 3);
        // Contiguous selection spanning three shards.
        assert_eq!(
            m.split((2, 1, 5)),
            vec![(0, (2, 1, 1)), (1, (0, 1, 3)), (2, (0, 1, 1))]
        );
        // Strided selection: rows 1, 4, 7 land in shards 0, 1, 2.
        assert_eq!(
            m.split((1, 3, 3)),
            vec![(0, (1, 3, 1)), (1, (1, 3, 1)), (2, (1, 3, 1))]
        );
        // Wholly inside one shard keeps one local piece.
        assert_eq!(m.split((3, 1, 3)), vec![(1, (0, 1, 3))]);
        // Every split conserves the total count and stays in-range.
        for &(start, step, count) in
            &[(0usize, 1usize, 10usize), (0, 2, 5), (1, 4, 3), (9, 1, 1)]
        {
            let pieces = m.split((start, step, count));
            assert_eq!(pieces.iter().map(|&(_, (_, _, c))| c).sum::<usize>(), count);
            for &(s, (lstart, lstep, lcount)) in &pieces {
                assert_eq!(lstep, step);
                assert!(lstart + (lcount - 1) * lstep < m.range(s).len());
            }
        }
    }

    #[test]
    fn crash_fault_registers_and_sticks() {
        let tk = synthetic_store::<f64>(&[12, 6, 5], &[4, 3, 2]);
        let plan = FaultPlan::new().crash(1, 0);
        let mut tier = ReplicaTier::new(&tk, 2, 2, EngineConfig::default(), &plan);
        assert_eq!(tier.world_size(), 4);
        assert_eq!(tier.rank(1, 1), 3);
        assert_eq!(tier.shard_of(3), 1);
        let q = Query::parse("0,0,0").unwrap();
        // Rank 1's first attempt fires the crash and registers the death.
        assert!(matches!(tier.attempt(1, &q, 0.0), Attempt::Crashed { .. }));
        assert!(tier.registry().is_crashed(1));
        assert_eq!(tier.registry().get(1).unwrap().phase, "serve");
        // Dead replicas stay dead for later attempts.
        assert!(matches!(tier.attempt(1, &q, 1.0), Attempt::Crashed { .. }));
        // Its shard-mate is untouched.
        match tier.attempt(0, &q, 0.0) {
            Attempt::Served { tensor, crc, .. } => {
                assert_eq!(tensor_crc(&tensor), crc);
                assert_eq!(tensor.len(), 1);
            }
            _ => panic!("rank 0 must serve"),
        }
    }

    #[test]
    fn corrupt_fault_breaks_the_crc_exactly_once() {
        let tk = synthetic_store::<f64>(&[8, 6, 5], &[4, 3, 2]);
        let plan = FaultPlan::new().corrupt(0, 0, 3, 17);
        let mut tier = ReplicaTier::new(&tk, 1, 1, EngineConfig::default(), &plan);
        let q = Query::parse("0:4,0:3,1").unwrap();
        match tier.attempt(0, &q, 0.0) {
            Attempt::Served { tensor, crc, .. } => {
                assert_ne!(tensor_crc(&tensor), crc, "flip must break the fingerprint")
            }
            _ => panic!("corrupt attempts still serve"),
        }
        // The fault is keyed to op 0; op 1 serves clean.
        match tier.attempt(0, &q, 0.0) {
            Attempt::Served { tensor, crc, .. } => assert_eq!(tensor_crc(&tensor), crc),
            _ => panic!("second attempt serves clean"),
        }
    }
}
