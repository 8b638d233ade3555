//! Federation support: the shared id plane and the cross-region union
//! view.
//!
//! A federated deployment gives each region its own
//! [`EdgeStorageNode`] pool, but the trajectory
//! graph is logically one city-wide graph. Two pieces make that work
//! without any cross-region coordination on the hot path:
//!
//! - [`VertexAllocator`] — one atomic id plane shared by every region's
//!   store. Vertex ids and edge sequence numbers are drawn from the same
//!   counters a single flat store would use, so the ids a federated
//!   deployment assigns are *identical* to the single-region deployment's
//!   ids for the same event stream, and the global edge-sequence order
//!   reproduces flat insertion order. (In a real deployment this would be
//!   per-region id ranges or lamport pairs; the simulation keeps the
//!   stronger property so federation-vs-flat equivalence is exactly
//!   testable.)
//! - [`merged_flat`] — the union read view. Each boundary-crossing edge is
//!   committed twice (once in the downstream region's store, once via
//!   replication in the upstream region's store) and each boundary vertex
//!   exists as an owner original plus adopted copies. The union merges
//!   per-region exports, preferring the owner region's vertex record
//!   (adopted copies carry approximate in-view intervals) and
//!   deduplicating edges keep-min-sequence — which, because a primary
//!   commit always precedes its replicated copy in the shared sequence
//!   order, is exactly the flat graph's keep-first rule.

use crate::graph::{TrajectoryEdge, TrajectoryGraph, VertexRecord};
use crate::server::EdgeStorageNode;
use crate::shard::ShardedTrajectoryGraph;
use coral_net::VertexId;
use coral_topology::CameraId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared vertex-id / edge-sequence plane of a federated deployment.
///
/// Every region's [`ShardedTrajectoryGraph`] holds an `Arc` of the same
/// allocator; a store created stand-alone gets a private one, which makes
/// the single-region default byte-identical to the pre-federation store.
#[derive(Debug, Default)]
pub struct VertexAllocator {
    next_vertex: AtomicU64,
    next_edge_seq: AtomicU64,
}

impl VertexAllocator {
    /// A fresh allocator with both counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next vertex id.
    pub(crate) fn allocate_vertex(&self) -> u64 {
        self.next_vertex.fetch_add(1, Ordering::SeqCst)
    }

    /// Allocates the next global edge sequence number.
    pub(crate) fn allocate_edge_seq(&self) -> u64 {
        self.next_edge_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Records that vertex `id` exists somewhere in the federation (an
    /// adopted copy): the counter never hands it out again.
    pub(crate) fn observe_vertex(&self, id: u64) {
        self.next_vertex.fetch_max(id + 1, Ordering::SeqCst);
    }

    /// The next vertex id that would be allocated.
    pub fn next_vertex_hint(&self) -> u64 {
        self.next_vertex.load(Ordering::SeqCst)
    }

    /// The next edge sequence number that would be allocated.
    pub fn next_edge_seq_hint(&self) -> u64 {
        self.next_edge_seq.load(Ordering::SeqCst)
    }

    /// Restores the counters from a snapshot. A private (single-store)
    /// allocator adopts the snapshot values exactly — the pre-federation
    /// restore semantics; a shared allocator only ratchets forward, since
    /// other regions may already hold higher ids.
    pub(crate) fn restore(&self, next_vertex: u64, next_edge_seq: u64, shared: bool) {
        if shared {
            self.next_vertex.fetch_max(next_vertex, Ordering::SeqCst);
            self.next_edge_seq
                .fetch_max(next_edge_seq, Ordering::SeqCst);
        } else {
            self.next_vertex.store(next_vertex, Ordering::SeqCst);
            self.next_edge_seq.store(next_edge_seq, Ordering::SeqCst);
        }
    }
}

/// Merges per-region stores into the single flat [`TrajectoryGraph`] the
/// equivalent single-region deployment would have built.
///
/// `owner_region(camera)` names the region whose store is authoritative
/// for that camera's detections; where a vertex exists in several stores
/// (an owner original plus adopted boundary copies), the owner's record
/// wins, so the approximate in-view intervals on adopted copies are
/// invisible to readers. Edges are replayed in global sequence order and
/// deduplicated by the flat graph's own keep-first check, which keeps the
/// primary commit and drops replicated copies.
///
/// Requires the stores to share one [`VertexAllocator`] (ids dense across
/// the union); with a single store this degenerates to
/// [`ShardedTrajectoryGraph::to_flat`].
pub fn merged_flat(
    stores: &[&ShardedTrajectoryGraph],
    owner_region: impl Fn(CameraId) -> usize,
) -> TrajectoryGraph {
    struct Candidate {
        owned: bool,
        record: VertexRecord,
    }
    let mut records: BTreeMap<VertexId, Candidate> = BTreeMap::new();
    let mut edges: Vec<(u64, TrajectoryEdge)> = Vec::new();
    for (region, store) in stores.iter().enumerate() {
        let export = store.export();
        for shard in export.shards {
            for record in shard.records {
                let owned = owner_region(record.camera) == region;
                match records.entry(record.id) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(Candidate { owned, record });
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        if owned && !e.get().owned {
                            e.insert(Candidate { owned, record });
                        }
                    }
                }
            }
            edges.extend(shard.edges.iter().map(|&(edge, seq)| (seq, edge)));
        }
    }
    let mut flat = TrajectoryGraph::new();
    for (id, cand) in &records {
        let r = &cand.record;
        let assigned = flat.insert_event_with_signature(
            r.event,
            r.first_seen_ms,
            r.last_seen_ms,
            r.heading,
            r.signature.clone(),
            r.ground_truth,
        );
        debug_assert_eq!(assigned, *id, "union rebuild must reassign identical ids");
    }
    edges.sort_unstable_by_key(|&(seq, _)| seq);
    for (_, e) in edges {
        let _ = flat.insert_edge(e.from, e.to, e.weight);
    }
    flat
}

/// [`merged_flat`] over [`EdgeStorageNode`] handles — the form the
/// runtime and evaluation harness hold.
pub fn merged_flat_of_nodes(
    nodes: &[EdgeStorageNode],
    owner_region: impl Fn(CameraId) -> usize,
) -> TrajectoryGraph {
    let stores: Vec<&ShardedTrajectoryGraph> = nodes.iter().map(|n| n.sharded()).collect();
    merged_flat(&stores, owner_region)
}

/// A shared allocator plus the per-region stores drawn from it — the
/// storage half of every deployment, one region or many.
#[derive(Debug, Clone)]
pub struct FederatedStores {
    allocator: Arc<VertexAllocator>,
    nodes: Vec<EdgeStorageNode>,
}

impl FederatedStores {
    /// Creates `regions` stores (at least one) sharing one fresh
    /// allocator, each retaining up to `frame_capacity_per_camera` raw
    /// frames per camera with the given shard configuration.
    ///
    /// A one-region federation's store is exactly
    /// [`EdgeStorageNode::with_config`]: its allocator is private, so a
    /// snapshot restore resets the id counters instead of only ratcheting
    /// them forward (no other region can hold higher ids).
    pub fn new(
        regions: usize,
        frame_capacity_per_camera: usize,
        config: crate::shard::StorageConfig,
    ) -> Self {
        if regions <= 1 {
            let node = EdgeStorageNode::with_config(frame_capacity_per_camera, config);
            let allocator = Arc::clone(node.sharded().allocator());
            return Self {
                allocator,
                nodes: vec![node],
            };
        }
        let allocator = Arc::new(VertexAllocator::new());
        let nodes = (0..regions)
            .map(|_| {
                EdgeStorageNode::with_allocator(
                    frame_capacity_per_camera,
                    config.clone(),
                    Arc::clone(&allocator),
                )
            })
            .collect();
        Self { allocator, nodes }
    }

    /// The shared id plane.
    pub fn allocator(&self) -> &Arc<VertexAllocator> {
        &self.allocator
    }

    /// The per-region stores, indexed by region.
    pub fn nodes(&self) -> &[EdgeStorageNode] {
        &self.nodes
    }

    /// The store serving region `r`.
    pub fn node(&self, r: usize) -> &EdgeStorageNode {
        &self.nodes[r]
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.nodes.len()
    }

    /// The city-wide union view (see [`merged_flat`]).
    pub fn union(&self, owner_region: impl Fn(CameraId) -> usize) -> TrajectoryGraph {
        merged_flat_of_nodes(&self.nodes, owner_region)
    }

    /// Runs `f` over the city-wide graph: a one-region federation's cached
    /// flat view ([`EdgeStorageNode::with_graph`]), else a freshly built
    /// [`FederatedStores::union`].
    pub fn with_union<R>(
        &self,
        owner_region: impl Fn(CameraId) -> usize,
        f: impl FnOnce(&TrajectoryGraph) -> R,
    ) -> R {
        match self.nodes.as_slice() {
            [only] => only.with_graph(f),
            nodes => f(&merged_flat_of_nodes(nodes, owner_region)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::StorageConfig;
    use coral_net::EventId;
    use coral_vision::TrackId;

    fn eid(cam: u32, track: u64) -> EventId {
        EventId {
            camera: CameraId(cam),
            track: TrackId(track),
        }
    }

    /// Camera `c` belongs to region `c % 2`.
    fn owner(c: CameraId) -> usize {
        (c.0 % 2) as usize
    }

    #[test]
    fn shared_allocator_assigns_flat_identical_ids() {
        let fed = FederatedStores::new(2, 4, StorageConfig::default());
        let a = fed.node(0).insert_event(eid(0, 1), 0, 1_000, None, None);
        let b = fed
            .node(1)
            .insert_event(eid(1, 1), 2_000, 3_000, None, None);
        let c = fed
            .node(0)
            .insert_event(eid(2, 1), 4_000, 5_000, None, None);
        assert_eq!((a, b, c), (VertexId(0), VertexId(1), VertexId(2)));
        // Idempotent re-insert does not burn an id.
        assert_eq!(fed.node(1).insert_event(eid(1, 1), 9, 9, None, None), b);
        assert_eq!(fed.allocator().next_vertex_hint(), 3);
    }

    #[test]
    fn union_prefers_owner_records_and_dedups_replicated_edges() {
        let fed = FederatedStores::new(2, 4, StorageConfig::default());
        // Owner originals: cam0 in region 0, cam1 in region 1.
        let a = fed.node(0).insert_event(eid(0, 1), 0, 1_000, None, None);
        let b = fed
            .node(1)
            .insert_event(eid(1, 1), 6_000, 7_500, None, None);
        // Downstream (region 1) commits the boundary edge against an
        // adopted copy of `a` carrying an approximate interval.
        fed.node(1)
            .adopt_event(a, eid(0, 1), 900, 900, None, None, None);
        fed.node(1).insert_edge(a, b, 0.2).unwrap();
        // Replication delivers the edge to the upstream region, twice.
        for _ in 0..2 {
            fed.node(0)
                .adopt_event(b, eid(1, 1), 6_000, 7_500, None, None, None);
            fed.node(0).insert_edge(a, b, 0.2).unwrap();
        }
        let union = fed.union(owner);
        assert_eq!(union.vertex_count(), 2);
        assert_eq!(union.edge_count(), 1);
        // The owner record (true interval) wins over the adopted copy.
        let rec = union.vertex(a).unwrap();
        assert_eq!((rec.first_seen_ms, rec.last_seen_ms), (0, 1_000));
        assert_eq!(
            union.out_edges(a),
            vec![TrajectoryEdge {
                from: a,
                to: b,
                weight: 0.2
            }]
        );
    }

    #[test]
    fn union_of_one_store_matches_to_flat() {
        let fed = FederatedStores::new(1, 4, StorageConfig::default());
        let a = fed.node(0).insert_event(eid(0, 1), 0, 100, None, None);
        let b = fed.node(0).insert_event(eid(1, 1), 200, 300, None, None);
        fed.node(0).insert_edge(a, b, 0.5).unwrap();
        let union = fed.union(|_| 0);
        let flat = fed.node(0).sharded().to_flat();
        assert_eq!(union.vertex_count(), flat.vertex_count());
        assert_eq!(union.edge_count(), flat.edge_count());
        assert_eq!(union.out_edges(a), flat.out_edges(a));
    }

    #[test]
    fn one_region_restore_resets_ids_like_a_private_store() {
        let dir =
            std::env::temp_dir().join(format!("coral-federation-restore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fed = FederatedStores::new(1, 4, StorageConfig::default());
        let private = EdgeStorageNode::with_config(4, StorageConfig::default());
        let stores = [
            (fed.node(0), dir.join("fed")),
            (&private, dir.join("private")),
        ];
        for (store, snap) in &stores {
            let a = store.insert_event(eid(0, 1), 0, 100, None, None);
            let b = store.insert_event(eid(1, 1), 200, 300, None, None);
            store.insert_edge(a, b, 0.5).unwrap();
            store.snapshot_to(snap).unwrap();
            // Run ahead of the snapshot, then roll back to it.
            store.insert_event(eid(2, 1), 400, 500, None, None);
            store.insert_event(eid(3, 1), 600, 700, None, None);
            store.restore_from_snapshot(snap).unwrap();
        }
        // Ids restart at the snapshot's counter, not past the ids issued
        // after it (what a shared allocator's ratchet would give).
        let next: Vec<VertexId> = stores
            .iter()
            .map(|(store, _)| store.insert_event(eid(4, 1), 800, 900, None, None))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(next, vec![VertexId(2), VertexId(2)]);
        assert_eq!(fed.allocator().next_vertex_hint(), 3);
    }

    #[test]
    fn region_store_restores_its_own_snapshot() {
        let dir =
            std::env::temp_dir().join(format!("coral-federation-region-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fed = FederatedStores::new(2, 4, StorageConfig::default());
        let a = fed.node(0).insert_event(eid(0, 1), 0, 100, None, None);
        let b = fed.node(1).insert_event(eid(1, 1), 200, 300, None, None);
        let c = fed.node(0).insert_event(eid(2, 1), 400, 500, None, None);
        fed.node(0).insert_edge(a, c, 0.5).unwrap();
        let view = |store: &EdgeStorageNode| {
            let s = store.stats();
            let walk = store
                .query_trajectory(a, crate::QueryOptions::default())
                .unwrap();
            (s.vertices, s.edges, walk.best_track())
        };
        let before = view(fed.node(0));
        fed.node(0).snapshot_to(&dir).unwrap();
        fed.node(0).insert_event(eid(4, 1), 600, 700, None, None);
        // Region 0 never held `b`: its id is simply absent from the
        // restored directory, not a missing vertex.
        let restored = fed.node(0).restore_from_snapshot(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        restored.unwrap();
        assert_eq!(view(fed.node(0)), before);
        assert_eq!(before, (2, 1, vec![a, c]));
        assert_eq!(fed.node(0).vertex_for_event(eid(1, 1)), None);
        assert_eq!(fed.node(1).vertex_for_event(eid(1, 1)), Some(b));
        // The shared counter only ratchets forward: no id is re-issued.
        let d = fed.node(0).insert_event(eid(5, 1), 800, 900, None, None);
        assert_eq!(d, VertexId(4));
        fed.node(0).insert_edge(c, d, 0.1).unwrap();
    }

    #[test]
    fn replication_is_order_insensitive() {
        // Apply the same replicated boundary edges in two different
        // orders (with duplicates); the unions must be identical.
        let build = |order: &[usize]| {
            let fed = FederatedStores::new(2, 4, StorageConfig::default());
            let a = fed.node(0).insert_event(eid(0, 1), 0, 1_000, None, None);
            let b = fed
                .node(1)
                .insert_event(eid(1, 1), 2_000, 3_000, None, None);
            let c = fed
                .node(0)
                .insert_event(eid(2, 2), 4_000, 5_000, None, None);
            fed.node(1)
                .adopt_event(a, eid(0, 1), 800, 800, None, None, None);
            fed.node(1).insert_edge(a, b, 0.1).unwrap();
            fed.node(0).insert_edge(b, c, 0.3).unwrap_err(); // b unknown upstream yet
                                                             // Replication set: (adopt b upstream + edge a->b), and the
                                                             // downstream-bound copy of b->c's upstream vertex.
            let ops: Vec<Box<dyn Fn() + '_>> = vec![
                Box::new(|| {
                    fed.node(0)
                        .adopt_event(b, eid(1, 1), 2_000, 3_000, None, None, None);
                    fed.node(0).insert_edge(a, b, 0.1).unwrap();
                }),
                Box::new(|| {
                    fed.node(1)
                        .adopt_event(c, eid(2, 2), 4_000, 5_000, None, None, None);
                    fed.node(1).insert_edge(b, c, 0.3).unwrap();
                }),
            ];
            for &i in order {
                ops[i]();
            }
            drop(ops);
            let union = fed.union(owner);
            let mut desc: Vec<String> = union
                .vertices()
                .map(|v| {
                    format!(
                        "{:?} out={:?} in={:?}",
                        v,
                        union.out_edges(v.id),
                        union.in_edges(v.id)
                    )
                })
                .collect();
            desc.sort();
            desc
        };
        assert_eq!(build(&[0, 1]), build(&[1, 0, 1, 0]));
    }
}
