//! The sharded trajectory store: key-range shards over a space-time key.
//!
//! The paper hosts the trajectory graph in JanusGraph on one edge node
//! (§4.2); a city-scale deployment serving millions of user queries needs
//! the store partitioned so ingest on one shard never stalls reads on
//! another. [`ShardedTrajectoryGraph`] routes every vertex to a shard by a
//! deterministic hash of its **space-time key** — the camera's region
//! (`camera / cameras_per_region`) crossed with its arrival time bucket
//! (`first_seen_ms / time_bucket_ms`) — so detections that are near each
//! other in space and time land on the same shard, and a trajectory walk
//! mostly stays shard-local. Handoff edges whose endpoints hash to
//! different shards are tracked in a cross-shard edge index.
//!
//! # Identity with the flat graph
//!
//! Vertex ids are allocated from one store-level counter (serialised by
//! the event-index lock), so ids are contiguous and identical to what the
//! flat [`TrajectoryGraph`] would assign for the same stream — at *any*
//! shard count. [`ShardedTrajectoryGraph::to_flat`] rebuilds the exact
//! flat graph (vertices in id order, edges in global insertion order via
//! per-edge sequence numbers), which is what keeps the golden fingerprints
//! byte-identical and makes shard-vs-flat equivalence property-testable.
//!
//! # Lock order
//!
//! One total order, everywhere: `index` → `shards[0..n]` ascending →
//! `cross`. Writers touch at most two shard locks (both ends of an edge,
//! acquired ascending); readers either take one shard lock (point
//! lookups, camera queries) or all of them (a read transaction for
//! trajectory walks — still concurrent with other readers).
//! Deadlock-freedom follows from the total order; the concurrency stress
//! test in `tests/storage_concurrency.rs` exercises it.

use crate::federation::VertexAllocator;
use crate::graph::{GraphError, TrajectoryEdge, TrajectoryGraph, VertexRecord};
use crate::query::{trajectory_over, Direction, EdgeSource, QueryOptions, TrajectoryQueryResult};
use coral_net::{EventId, VertexId};
use coral_topology::CameraId;
use coral_vision::ColorHistogram;
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Dense directory slot of an id a private store does not hold although
/// it holds a higher one (only adopting an id out of order leaves one).
const TOMBSTONE: u16 = u16::MAX;

/// Configuration of the sharded trajectory store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Number of key-range shards (≥ 1). `1` degenerates to a single
    /// shard whose behaviour is byte-identical to the flat graph.
    pub shard_count: usize,
    /// Width of the time bucket in the space-time routing key, ms.
    pub time_bucket_ms: u64,
    /// Cameras per geographic region in the space-time routing key:
    /// camera `c` belongs to region `c / cameras_per_region`.
    pub cameras_per_region: u32,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            shard_count: 1,
            time_bucket_ms: 60_000,
            cameras_per_region: 16,
        }
    }
}

/// An edge plus its global insertion sequence number and the shard of the
/// *other* endpoint (so traversals hop shards without a directory lookup).
#[derive(Debug, Clone, Copy)]
struct SeqEdge {
    edge: TrajectoryEdge,
    seq: u64,
    peer_shard: u16,
}

/// One independently-lockable shard.
#[derive(Debug, Default)]
struct Shard {
    vertices: BTreeMap<VertexId, VertexRecord>,
    out_edges: BTreeMap<VertexId, Vec<SeqEdge>>,
    in_edges: BTreeMap<VertexId, Vec<SeqEdge>>,
    /// Vertices by detecting camera, ascending by id (push order — ids are
    /// allocated monotonically under the index lock).
    by_camera: BTreeMap<CameraId, Vec<VertexId>>,
}

/// The store-level vertex directory: event → vertex and vertex → shard.
/// Held for writing across the whole of `insert_event`, which serialises
/// vertex allocation and makes `dir` membership imply shard residency.
#[derive(Debug)]
struct EventIndex {
    by_event: HashMap<EventId, VertexId>,
    dir: Directory,
}

/// Vertex id → shard holding it.
#[derive(Debug)]
enum Directory {
    /// A private store allocates its own ids densely from 0: `slots[v]` is
    /// the shard of `v` and `slots.len()` the next vertex id.
    Dense(Vec<u16>),
    /// A region store sharing the federation's allocator holds only some
    /// ids; the others live in other regions. Keyed by id, so memory
    /// follows the vertices held, not the federation's id span. `end` is
    /// the highest id held + 1.
    Sparse {
        shards: HashMap<VertexId, u16>,
        end: u64,
    },
}

impl Directory {
    fn new(shared_alloc: bool) -> Self {
        if shared_alloc {
            Directory::Sparse {
                shards: HashMap::new(),
                end: 0,
            }
        } else {
            Directory::Dense(Vec::new())
        }
    }

    /// The shard holding `v`, if this store has it.
    fn get(&self, v: VertexId) -> Option<u16> {
        match self {
            Directory::Dense(slots) => slots.get(v.0 as usize).copied().filter(|&s| s != TOMBSTONE),
            Directory::Sparse { shards, .. } => shards.get(&v).copied(),
        }
    }

    /// Records that `v` lives on `shard`; `false` (and no change) if the
    /// store already holds `v`.
    fn set(&mut self, v: VertexId, shard: u16) -> bool {
        match self {
            Directory::Dense(slots) => {
                let slot = v.0 as usize;
                if slot >= slots.len() {
                    slots.resize(slot, TOMBSTONE);
                    slots.push(shard);
                } else if slots[slot] == TOMBSTONE {
                    slots[slot] = shard;
                } else {
                    return false;
                }
            }
            Directory::Sparse { shards, end } => match shards.entry(v) {
                Entry::Occupied(_) => return false,
                Entry::Vacant(slot) => {
                    slot.insert(shard);
                    *end = (*end).max(v.0.saturating_add(1));
                }
            },
        }
        true
    }

    /// One past the highest id held: the snapshot's `next_vertex`.
    fn end(&self) -> u64 {
        match self {
            Directory::Dense(slots) => slots.len() as u64,
            Directory::Sparse { end, .. } => *end,
        }
    }
}

/// The sharded, concurrently-readable trajectory store.
///
/// See the module docs for the key scheme, identity guarantees and lock
/// order.
#[derive(Debug)]
pub struct ShardedTrajectoryGraph {
    config: StorageConfig,
    index: RwLock<EventIndex>,
    shards: Vec<RwLock<Shard>>,
    /// Handoff edges whose endpoints live on different shards, keyed by
    /// `(from, to)`.
    cross: RwLock<BTreeMap<(VertexId, VertexId), f64>>,
    /// Physical edge count across all shards.
    edge_count: AtomicUsize,
    /// The vertex-id / edge-sequence plane. Private by default (fresh per
    /// store — byte-identical to the pre-federation counters); shared
    /// across every region's store in a federated deployment.
    alloc: Arc<VertexAllocator>,
    /// Whether `alloc` is shared with other stores (changes snapshot
    /// restore semantics: shared counters only ratchet forward).
    shared_alloc: bool,
    /// Longest in-view interval seen, ms: bounds how far before a query
    /// window a vertex's routing bucket can start, making bucket-range
    /// shard pruning sound.
    max_interval_ms: AtomicU64,
    /// Bumped on every structural change (vertex, edge, restore);
    /// versions the flat-view cache in `EdgeStorageNode`.
    mutations: AtomicU64,
}

/// Deterministic space-time routing hash (FNV-1a over the two key words).
/// Fixed constants, never the std hasher: routing must be identical
/// across processes, runs and restores.
fn space_time_hash(region: u64, bucket: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [region, bucket] {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl ShardedTrajectoryGraph {
    /// Creates an empty store with `config` (shard_count clamped to ≥ 1)
    /// and a private id plane.
    pub fn new(config: StorageConfig) -> Self {
        Self::build(config, Arc::new(VertexAllocator::new()), false)
    }

    /// Creates an empty store drawing vertex ids and edge sequence
    /// numbers from a shared [`VertexAllocator`] — one region of a
    /// federated deployment.
    pub fn with_allocator(config: StorageConfig, alloc: Arc<VertexAllocator>) -> Self {
        Self::build(config, alloc, true)
    }

    fn build(config: StorageConfig, alloc: Arc<VertexAllocator>, shared_alloc: bool) -> Self {
        let n = config.shard_count.max(1);
        Self {
            config: StorageConfig {
                shard_count: n,
                ..config
            },
            index: RwLock::new(EventIndex {
                by_event: HashMap::new(),
                dir: Directory::new(shared_alloc),
            }),
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            cross: RwLock::new(BTreeMap::new()),
            edge_count: AtomicUsize::new(0),
            alloc,
            shared_alloc,
            max_interval_ms: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
        }
    }

    /// The id plane this store draws from.
    pub fn allocator(&self) -> &Arc<VertexAllocator> {
        &self.alloc
    }

    /// The store configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The shard a detection at `camera` / `first_seen_ms` routes to.
    pub fn route(&self, camera: CameraId, first_seen_ms: u64) -> usize {
        let n = self.config.shard_count;
        if n == 1 {
            return 0;
        }
        let region = u64::from(camera.0) / u64::from(self.config.cameras_per_region.max(1));
        let bucket = first_seen_ms / self.config.time_bucket_ms.max(1);
        (space_time_hash(region, bucket) % n as u64) as usize
    }

    /// Inserts (or finds) the vertex for a detection event. Idempotent by
    /// event id; the original attributes win, as in the flat graph.
    pub fn insert_event(
        &self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<coral_geo::Heading>,
        ground_truth: Option<coral_vision::GroundTruthId>,
    ) -> VertexId {
        self.insert_event_with_signature(
            event,
            first_seen_ms,
            last_seen_ms,
            heading,
            None,
            ground_truth,
        )
    }

    /// Inserts a vertex carrying its appearance signature.
    pub fn insert_event_with_signature(
        &self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<coral_geo::Heading>,
        signature: Option<ColorHistogram>,
        ground_truth: Option<coral_vision::GroundTruthId>,
    ) -> VertexId {
        let mut idx = self.index.write();
        if let Some(&v) = idx.by_event.get(&event) {
            return v;
        }
        // Allocation under the index write lock: ids this store assigns
        // are in insertion order (and with a private allocator, exactly
        // the dense directory's length).
        let id = VertexId(self.alloc.allocate_vertex());
        self.store_vertex(
            &mut idx,
            VertexRecord {
                id,
                event,
                camera: event.camera,
                first_seen_ms,
                last_seen_ms,
                heading,
                signature,
                ground_truth,
            },
        );
        id
    }

    /// Adopts a vertex another region allocated: inserts the record at
    /// its existing federation-wide `id` instead of allocating a fresh
    /// one. Idempotent keep-first by event id, like
    /// [`ShardedTrajectoryGraph::insert_event`]; the id plane is advanced
    /// past `id` so a private allocator can never re-issue it.
    #[allow(clippy::too_many_arguments)]
    pub fn adopt_event(
        &self,
        id: VertexId,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<coral_geo::Heading>,
        signature: Option<ColorHistogram>,
        ground_truth: Option<coral_vision::GroundTruthId>,
    ) -> VertexId {
        let mut idx = self.index.write();
        if let Some(&v) = idx.by_event.get(&event) {
            return v;
        }
        self.alloc.observe_vertex(id.0);
        self.store_vertex(
            &mut idx,
            VertexRecord {
                id,
                event,
                camera: event.camera,
                first_seen_ms,
                last_seen_ms,
                heading,
                signature,
                ground_truth,
            },
        );
        id
    }

    /// Commits `record` into its routed shard and the directory (the
    /// index write lock is already held by the caller).
    fn store_vertex(&self, idx: &mut EventIndex, record: VertexRecord) {
        let id = record.id;
        let event = record.event;
        let shard = self.route(event.camera, record.first_seen_ms);
        // Publish the interval bound before the record becomes visible so
        // bucket-range pruning never misses a long-dwell vertex.
        self.max_interval_ms.fetch_max(
            record.last_seen_ms.saturating_sub(record.first_seen_ms),
            Ordering::SeqCst,
        );
        let fresh = idx.dir.set(id, shard as u16);
        debug_assert!(fresh, "vertex id {id} assigned twice");
        {
            let mut s = self.shards[shard].write();
            s.vertices.insert(id, record);
            // Adoption can arrive out of id order; keep the per-camera
            // list ascending (local inserts always append).
            let ids = s.by_camera.entry(event.camera).or_default();
            match ids.last() {
                Some(&last) if last > id => {
                    let pos = ids.partition_point(|&v| v < id);
                    ids.insert(pos, id);
                }
                _ => ids.push(id),
            }
        }
        idx.by_event.insert(event, id);
        self.mutations.fetch_add(1, Ordering::SeqCst);
    }

    /// Inserts a weighted re-identification edge `from → to`. Exact
    /// `(from, to)` replays (at-least-once redelivery) are dropped
    /// keep-first, so every endpoint pair is stored at most once.
    ///
    /// # Errors
    ///
    /// Fails on unknown endpoints, self-loops or invalid weights — in the
    /// same order as the flat graph, so error behaviour is equivalent.
    pub fn insert_edge(&self, from: VertexId, to: VertexId, weight: f64) -> Result<(), GraphError> {
        let (sf, st) = {
            let idx = self.index.read();
            let sf = idx.dir.get(from).ok_or(GraphError::UnknownVertex(from))? as usize;
            let st = idx.dir.get(to).ok_or(GraphError::UnknownVertex(to))? as usize;
            (sf, st)
        };
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight(weight));
        }
        let edge = TrajectoryEdge { from, to, weight };
        if sf == st {
            let mut s = self.shards[sf].write();
            if has_out_edge(&s, from, to) {
                return Ok(());
            }
            let seq = self.alloc.allocate_edge_seq();
            s.out_edges.entry(from).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: st as u16,
            });
            s.in_edges.entry(to).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: sf as u16,
            });
        } else {
            // Cross-shard: lock both ends, ascending (the lock order).
            let (lo, hi) = (sf.min(st), sf.max(st));
            let mut g_lo = self.shards[lo].write();
            let mut g_hi = self.shards[hi].write();
            let (out_shard, in_shard) = if sf == lo {
                (&mut *g_lo, &mut *g_hi)
            } else {
                (&mut *g_hi, &mut *g_lo)
            };
            if has_out_edge(out_shard, from, to) {
                return Ok(());
            }
            let seq = self.alloc.allocate_edge_seq();
            out_shard.out_edges.entry(from).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: st as u16,
            });
            in_shard.in_edges.entry(to).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: sf as u16,
            });
            drop(g_hi);
            drop(g_lo);
            self.cross.write().entry((from, to)).or_insert(weight);
        }
        self.edge_count.fetch_add(1, Ordering::SeqCst);
        self.mutations.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Looks up a vertex (cloned out of its shard).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] for unassigned ids.
    pub fn vertex(&self, id: VertexId) -> Result<VertexRecord, GraphError> {
        let shard = self
            .index
            .read()
            .dir
            .get(id)
            .ok_or(GraphError::UnknownVertex(id))?;
        let s = self.shards[shard as usize].read();
        s.vertices
            .get(&id)
            .cloned()
            .ok_or(GraphError::UnknownVertex(id))
    }

    /// The vertex created for `event`, if any.
    pub fn vertex_for_event(&self, event: EventId) -> Option<VertexId> {
        self.index.read().by_event.get(&event).copied()
    }

    /// Number of vertices this store holds (owned plus adopted).
    pub fn vertex_count(&self) -> usize {
        self.index.read().by_event.len()
    }

    /// Number of edges across all shards (equals the flat graph's count).
    pub fn edge_count(&self) -> usize {
        self.edge_count.load(Ordering::SeqCst)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of handoff edges whose endpoints live on different shards.
    pub fn cross_shard_edge_count(&self) -> usize {
        self.cross.read().len()
    }

    /// Structural version stamp: bumped on every vertex insert, edge
    /// insert and restore.
    pub fn mutation_stamp(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    /// Opens a read transaction holding every shard's read lock (taken in
    /// ascending order). Concurrent with other readers and with nothing
    /// held across user code that could re-enter the store.
    pub fn read_txn(&self) -> ShardReadTxn<'_> {
        ShardReadTxn {
            guards: self.shards.iter().map(|s| s.read()).collect(),
            locate: HashMap::new(),
        }
    }

    /// Queries the trajectory of the vehicle seen at `seed` under a read
    /// transaction — answers are identical to the flat graph's
    /// [`crate::trajectory`] on the merged view.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] for an invalid seed.
    pub fn trajectory(
        &self,
        seed: VertexId,
        opts: QueryOptions,
    ) -> Result<TrajectoryQueryResult, GraphError> {
        let mut txn = self.read_txn();
        trajectory_over(&mut txn, seed, opts)
    }

    /// The shards a camera-region query over `[start_ms, end_ms]` can
    /// touch, given the routing key and the observed interval bound.
    fn shards_for_window(&self, region: u64, start_ms: u64, end_ms: u64) -> Vec<usize> {
        let n = self.config.shard_count;
        if n == 1 {
            return vec![0];
        }
        let bucket_ms = self.config.time_bucket_ms.max(1);
        let lo = start_ms.saturating_sub(self.max_interval_ms.load(Ordering::SeqCst)) / bucket_ms;
        let hi = end_ms / bucket_ms;
        if hi.saturating_sub(lo) + 1 >= n as u64 {
            return (0..n).collect();
        }
        let mut shards: Vec<usize> = (lo..=hi)
            .map(|b| (space_time_hash(region, b) % n as u64) as usize)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Vertices detected by `camera` whose in-view interval overlaps
    /// `[start_ms, end_ms]`, ascending by id. Shards outside the window's
    /// bucket range are pruned without locking them.
    pub fn vehicles_through_camera(
        &self,
        camera: CameraId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<VertexId> {
        let region = u64::from(camera.0) / u64::from(self.config.cameras_per_region.max(1));
        let mut out = Vec::new();
        for shard in self.shards_for_window(region, start_ms, end_ms) {
            let s = self.shards[shard].read();
            if let Some(ids) = s.by_camera.get(&camera) {
                for id in ids {
                    let r = &s.vertices[id];
                    if r.first_seen_ms <= end_ms && r.last_seen_ms >= start_ms {
                        out.push(*id);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Vertices (any camera) whose in-view interval overlaps
    /// `[start_ms, end_ms]`, ascending by id — the space-time-window scan.
    pub fn scan_window(&self, start_ms: u64, end_ms: u64) -> Vec<VertexId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            for (id, r) in &s.vertices {
                if r.first_seen_ms <= end_ms && r.last_seen_ms >= start_ms {
                    out.push(*id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The `k` stored detections nearest to `query` (Bhattacharyya
    /// distance) under `max_distance`, best first, ties by id — identical
    /// ranking to the flat graph's stable sort over ascending ids.
    pub fn nearest_by_signature(
        &self,
        query: &ColorHistogram,
        k: usize,
        max_distance: f64,
    ) -> Vec<(VertexId, f64)> {
        let mut scored: Vec<(VertexId, f64)> = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            for r in s.vertices.values() {
                let Some(sig) = r.signature.as_ref() else {
                    continue;
                };
                if sig.bins().len() != query.bins().len() {
                    continue;
                }
                let d = query.bhattacharyya_distance(sig);
                if d <= max_distance {
                    scored.push((r.id, d));
                }
            }
        }
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Rebuilds the merged flat graph: vertices in id order, edges in
    /// global insertion (sequence) order. For any single-writer stream
    /// this is byte-identical to ingesting the stream into a flat
    /// [`TrajectoryGraph`] directly.
    pub fn to_flat(&self) -> TrajectoryGraph {
        let idx = self.index.read();
        let guards: Vec<RwLockReadGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.read()).collect();
        let mut records: Vec<&VertexRecord> =
            guards.iter().flat_map(|g| g.vertices.values()).collect();
        records.sort_by_key(|r| r.id);
        let mut flat = TrajectoryGraph::new();
        for r in records {
            let id = flat.insert_event_with_signature(
                r.event,
                r.first_seen_ms,
                r.last_seen_ms,
                r.heading,
                r.signature.clone(),
                r.ground_truth,
            );
            debug_assert_eq!(id, r.id, "flat rebuild must reassign identical ids");
        }
        let mut edges: Vec<(u64, TrajectoryEdge)> = guards
            .iter()
            .flat_map(|g| g.out_edges.values().flatten())
            .map(|se| (se.seq, se.edge))
            .collect();
        edges.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, e) in edges {
            let _ = flat.insert_edge(e.from, e.to, e.weight);
        }
        drop(guards);
        drop(idx);
        flat
    }

    /// (Snapshot support.) Exports the store content: config meta, next
    /// vertex id / edge seq / interval bound, and per-shard records and
    /// out-edges. Vertex creation is frozen for the duration (index read
    /// lock); edges race benignly — an edge not fully captured is simply
    /// absent, never torn, because in-edges are rebuilt from out-edges.
    pub(crate) fn export(&self) -> ExportedStore {
        let idx = self.index.read();
        let guards: Vec<RwLockReadGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.read()).collect();
        let shards = guards
            .iter()
            .map(|g| ExportedShard {
                records: g.vertices.values().cloned().collect(),
                edges: g
                    .out_edges
                    .values()
                    .flatten()
                    .map(|se| (se.edge, se.seq))
                    .collect(),
            })
            .collect();
        ExportedStore {
            shard_count: self.config.shard_count,
            time_bucket_ms: self.config.time_bucket_ms,
            cameras_per_region: self.config.cameras_per_region,
            next_vertex: idx.dir.end(),
            edge_seq: self.alloc.next_edge_seq_hint(),
            max_interval_ms: self.max_interval_ms.load(Ordering::SeqCst),
            shards,
        }
    }

    /// (Snapshot support.) Replaces this store's content with `state`,
    /// atomically with respect to readers (all locks held for writing, in
    /// the lock order). The shard layout of the snapshot must match this
    /// store's config; in-edges, the event index, the directory and the
    /// cross-shard index are rebuilt from the exported out-edges.
    pub(crate) fn import(&self, state: ExportedStore) -> Result<(), ImportError> {
        if state.shard_count != self.config.shard_count {
            return Err(ImportError::ShardCountMismatch {
                store: self.config.shard_count,
                snapshot: state.shard_count,
            });
        }
        // Validate everything before touching the store, so a rejected
        // snapshot never half-applies.
        let dir = self.import_directory(&state)?;
        let mut pairs = HashSet::new();
        for (si, shard) in state.shards.iter().enumerate() {
            for (edge, _) in &shard.edges {
                if dir.get(edge.from) != Some(si as u16) || dir.get(edge.to).is_none() {
                    return Err(ImportError::DanglingEdge(edge.from, edge.to));
                }
                // Ingest stores each endpoint pair once, and the read path
                // relies on it: a repeated pair can only be a corrupt file.
                if !pairs.insert((edge.from, edge.to)) {
                    return Err(ImportError::DuplicateEdge(edge.from, edge.to));
                }
            }
        }
        drop(pairs);

        let mut idx = self.index.write();
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let mut cross = self.cross.write();
        idx.by_event.clear();
        idx.dir = dir;
        cross.clear();
        let mut edge_total = 0usize;
        for g in guards.iter_mut() {
            **g = Shard::default();
        }
        for (si, shard) in state.shards.into_iter().enumerate() {
            for r in shard.records {
                idx.by_event.insert(r.event, r.id);
                let g = &mut guards[si];
                g.by_camera.entry(r.camera).or_default().push(r.id);
                g.vertices.insert(r.id, r);
            }
            for (edge, seq) in shard.edges {
                let to_shard = idx.dir.get(edge.to).expect("validated above");
                guards[si]
                    .out_edges
                    .entry(edge.from)
                    .or_default()
                    .push(SeqEdge {
                        edge,
                        seq,
                        peer_shard: to_shard,
                    });
                edge_total += 1;
                if to_shard as usize != si {
                    cross.entry((edge.from, edge.to)).or_insert(edge.weight);
                }
            }
        }
        // by_camera must be ascending by id (BTreeMap insert order isn't).
        for g in guards.iter_mut() {
            for ids in g.by_camera.values_mut() {
                ids.sort_unstable();
            }
        }
        // Rebuild in-edges from out-edges in global sequence order so
        // restored in-lists match a deterministic re-ingest.
        let mut all: Vec<(u64, TrajectoryEdge, u16)> = Vec::with_capacity(edge_total);
        for (si, g) in guards.iter().enumerate() {
            for se in g.out_edges.values().flatten() {
                all.push((se.seq, se.edge, si as u16));
            }
        }
        all.sort_unstable_by_key(|&(seq, _, _)| seq);
        for (seq, edge, from_shard) in all {
            let to_shard = idx.dir.get(edge.to).expect("validated above") as usize;
            guards[to_shard]
                .in_edges
                .entry(edge.to)
                .or_default()
                .push(SeqEdge {
                    edge,
                    seq,
                    peer_shard: from_shard,
                });
        }

        self.edge_count.store(edge_total, Ordering::SeqCst);
        self.alloc
            .restore(state.next_vertex, state.edge_seq, self.shared_alloc);
        self.max_interval_ms
            .store(state.max_interval_ms, Ordering::SeqCst);
        self.mutations.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Rebuilds the vertex → shard directory of `state`, each id in
    /// exactly one shard. A private store's ids must be dense: each is
    /// below the record count and none repeats, so together they are
    /// exactly `0..records` and the directory never outgrows the records.
    /// A store sharing its allocator keeps only the ids it holds, however
    /// far apart. The manifest's `next_vertex` sizes nothing: it
    /// must equal the rebuilt directory's end (highest id + 1), which is
    /// what export writes.
    fn import_directory(&self, state: &ExportedStore) -> Result<Directory, ImportError> {
        let records = state.shards.iter().map(|s| s.records.len()).sum::<usize>();
        let mut dir = Directory::new(self.shared_alloc);
        if let Directory::Sparse { shards, .. } = &mut dir {
            shards.reserve(records);
        }
        for (si, shard) in state.shards.iter().enumerate() {
            for r in &shard.records {
                let in_range = match dir {
                    Directory::Dense(_) => r.id.0 < records as u64,
                    Directory::Sparse { .. } => r.id.0 < u64::MAX,
                };
                if !in_range {
                    return Err(ImportError::VertexOutOfRange(r.id));
                }
                if !dir.set(r.id, si as u16) {
                    return Err(ImportError::DuplicateVertex(r.id));
                }
            }
        }
        if state.next_vertex != dir.end() {
            return Err(ImportError::NextVertexMismatch {
                next_vertex: state.next_vertex,
                records_end: dir.end(),
            });
        }
        Ok(dir)
    }
}

/// Raw store content exchanged with the snapshot codec.
#[derive(Debug)]
pub(crate) struct ExportedStore {
    pub shard_count: usize,
    pub time_bucket_ms: u64,
    pub cameras_per_region: u32,
    pub next_vertex: u64,
    pub edge_seq: u64,
    pub max_interval_ms: u64,
    pub shards: Vec<ExportedShard>,
}

/// One shard's records and out-edges (with sequence numbers).
#[derive(Debug)]
pub(crate) struct ExportedShard {
    pub records: Vec<VertexRecord>,
    pub edges: Vec<(TrajectoryEdge, u64)>,
}

/// Structural problems found while importing exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ImportError {
    ShardCountMismatch { store: usize, snapshot: usize },
    VertexOutOfRange(VertexId),
    DuplicateVertex(VertexId),
    NextVertexMismatch { next_vertex: u64, records_end: u64 },
    DanglingEdge(VertexId, VertexId),
    DuplicateEdge(VertexId, VertexId),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::ShardCountMismatch { store, snapshot } => write!(
                f,
                "snapshot has {snapshot} shards but the store is configured for {store}"
            ),
            ImportError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            ImportError::DuplicateVertex(v) => write!(f, "vertex {v} appears in two shards"),
            ImportError::NextVertexMismatch {
                next_vertex,
                records_end,
            } => write!(
                f,
                "next_vertex {next_vertex} does not match the stored ids, which end at {records_end}"
            ),
            ImportError::DanglingEdge(from, to) => write!(
                f,
                "edge {from} -> {to} does not start on its shard or ends at no stored vertex"
            ),
            ImportError::DuplicateEdge(from, to) => write!(f, "edge {from} -> {to} stored twice"),
        }
    }
}

fn has_out_edge(s: &Shard, from: VertexId, to: VertexId) -> bool {
    s.out_edges
        .get(&from)
        .is_some_and(|v| v.iter().any(|e| e.edge.to == to))
}

/// A read transaction over every shard: the [`EdgeSource`] behind
/// concurrent trajectory queries. Holds all shard read guards; memoises
/// vertex→shard placements (seeded by the per-edge peer-shard hints) so a
/// walk only probes shards for its seed.
#[derive(Debug)]
pub struct ShardReadTxn<'a> {
    guards: Vec<RwLockReadGuard<'a, Shard>>,
    locate: HashMap<VertexId, u16>,
}

impl ShardReadTxn<'_> {
    fn shard_of(&mut self, v: VertexId) -> Option<u16> {
        if let Some(&s) = self.locate.get(&v) {
            return Some(s);
        }
        for (i, g) in self.guards.iter().enumerate() {
            if g.vertices.contains_key(&v) {
                self.locate.insert(v, i as u16);
                return Some(i as u16);
            }
        }
        None
    }
}

impl EdgeSource for ShardReadTxn<'_> {
    fn contains(&mut self, v: VertexId) -> bool {
        self.shard_of(v).is_some()
    }

    fn neighbors(&mut self, v: VertexId, dir: Direction, out: &mut Vec<TrajectoryEdge>) {
        let Some(shard) = self.shard_of(v) else {
            return;
        };
        let Self { guards, locate } = self;
        let g = &guards[shard as usize];
        let list = match dir {
            Direction::Forward => g.out_edges.get(&v),
            Direction::Backward => g.in_edges.get(&v),
        };
        let Some(list) = list else {
            return;
        };
        for se in list {
            let neighbor = match dir {
                Direction::Forward => se.edge.to,
                Direction::Backward => se.edge.from,
            };
            locate.entry(neighbor).or_insert(se.peer_shard);
            out.push(se.edge);
        }
    }
}
