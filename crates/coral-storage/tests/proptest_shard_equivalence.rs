//! Property tests: the sharded store is observationally equivalent to the
//! flat reference graph at every shard count, also when every edge is
//! redelivered (at-least-once delivery replays an inform).
//!
//! Vertex ids are allocated globally (in insertion order) regardless of
//! which shard a record lands on, so equivalence here is exact — same ids,
//! same records, same adjacency — not merely isomorphic.

use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_storage::{
    trajectory, QueryOptions, ShardedTrajectoryGraph, StorageConfig, TrajectoryGraph,
};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, TrackId};
use proptest::prelude::*;

/// Shard counts exercised for every generated stream. 1 is the
/// byte-identity default; 7 is coprime with the camera/bucket mix so
/// routing scatters.
const SHARD_AXIS: [usize; 4] = [1, 2, 3, 7];

const CAMERAS: u32 = 6;

fn eid(cam: u32, track: u64) -> EventId {
    EventId {
        camera: CameraId(cam),
        track: TrackId(track),
    }
}

/// A deterministic appearance signature for event `i` (2 bins/channel =
/// 8 bins): distinct per vertex so nearest-by-signature has real ordering
/// to preserve.
fn sig(i: usize) -> ColorHistogram {
    let bins: Vec<f64> = (0..8)
        .map(|j| ((i * 7 + j * 13) % 11) as f64 / 11.0 + 0.01)
        .collect();
    ColorHistogram::from_bins(2, bins).expect("8 bins for 2 bins/channel")
}

fn config(shard_count: usize) -> StorageConfig {
    StorageConfig {
        shard_count,
        // Small bucket + region so a ~30-event stream crosses many
        // routing keys (events are ~950 ms apart).
        time_bucket_ms: 2_000,
        cameras_per_region: 2,
    }
}

/// Ingests the stream into the flat reference graph.
fn build_flat(n: usize, edges: &[(usize, usize, f64)]) -> TrajectoryGraph {
    let mut g = TrajectoryGraph::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            g.insert_event_with_signature(
                eid((i as u32) % CAMERAS, i as u64),
                i as u64 * 950,
                i as u64 * 950 + 400,
                Some(Heading::ALL[i % Heading::ALL.len()]),
                Some(sig(i)),
                None,
            )
        })
        .collect();
    for &(a, b, w) in edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            let _ = g.insert_edge(vs[a], vs[b], w);
        }
    }
    g
}

/// Ingests the same stream into a sharded store; `replays` (non-empty,
/// 1 = once) repeats each edge insert, modelling at-least-once
/// redelivery. Each replay carries a different weight, so a replay that
/// displaced the first-delivered edge would show in the comparison with
/// the flat graph.
fn build_sharded(
    n: usize,
    edges: &[(usize, usize, f64)],
    cfg: StorageConfig,
    replays: &[usize],
) -> ShardedTrajectoryGraph {
    let g = ShardedTrajectoryGraph::new(cfg);
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            g.insert_event_with_signature(
                eid((i as u32) % CAMERAS, i as u64),
                i as u64 * 950,
                i as u64 * 950 + 400,
                Some(Heading::ALL[i % Heading::ALL.len()]),
                Some(sig(i)),
                None,
            )
        })
        .collect();
    let pairs = || {
        edges
            .iter()
            .enumerate()
            .map(|(k, &(a, b, w))| (k, a % n, b % n, w))
            .filter(|&(_, a, b, _)| a < b)
    };
    for (_, a, b, w) in pairs() {
        g.insert_edge(vs[a], vs[b], w).unwrap();
    }
    // Redeliveries arrive late, in reverse order, after other edges of
    // the same vertices.
    for (k, a, b, w) in pairs().rev() {
        for r in 1..replays[k % replays.len()] {
            g.insert_edge(vs[a], vs[b], w + r as f64 * 0.25).unwrap();
        }
    }
    g
}

proptest! {
    #[test]
    fn sharded_store_flattens_to_the_flat_graph(
        n in 2usize..32,
        raw_edges in proptest::collection::vec((0usize..32, 0usize..32, 0.0f64..1.0), 0..80),
        replays in proptest::collection::vec(1usize..4, 1..20),
    ) {
        let flat = build_flat(n, &raw_edges);
        for k in SHARD_AXIS {
            let sharded = build_sharded(n, &raw_edges, config(k), &replays);
            prop_assert_eq!(sharded.vertex_count(), flat.vertex_count());
            prop_assert_eq!(sharded.edge_count(), flat.edge_count());
            let merged = sharded.to_flat();
            prop_assert_eq!(merged.vertex_count(), flat.vertex_count());
            prop_assert_eq!(merged.edge_count(), flat.edge_count());
            for v in flat.vertices() {
                prop_assert_eq!(merged.vertex(v.id).unwrap(), v, "vertex {} at {} shards", v.id, k);
                prop_assert_eq!(
                    merged.out_edges(v.id), flat.out_edges(v.id),
                    "out-edges of {} at {} shards", v.id, k
                );
                prop_assert_eq!(
                    merged.in_edges(v.id), flat.in_edges(v.id),
                    "in-edges of {} at {} shards", v.id, k
                );
                prop_assert_eq!(merged.vertex_for_event(v.event), Some(v.id));
            }
        }
    }

    #[test]
    fn queries_match_the_flat_reference_at_every_shard_count(
        n in 2usize..32,
        raw_edges in proptest::collection::vec((0usize..32, 0usize..32, 0.0f64..1.0), 0..80),
        seed_idx in 0usize..32,
        replays in proptest::collection::vec(1usize..4, 1..20),
    ) {
        let flat = build_flat(n, &raw_edges);
        let seed = VertexId((seed_idx % n) as u64);
        let horizon = n as u64 * 950 + 500;
        let flat_traj = trajectory(&flat, seed, QueryOptions::default()).unwrap();
        for k in SHARD_AXIS {
            let sharded = build_sharded(n, &raw_edges, config(k), &replays);
            prop_assert_eq!(
                &sharded.trajectory(seed, QueryOptions::default()).unwrap(),
                &flat_traj,
                "trajectory at {} shards", k
            );
            for cam in 0..CAMERAS {
                for (lo, hi) in [(0, horizon), (horizon / 3, 2 * horizon / 3)] {
                    prop_assert_eq!(
                        sharded.vehicles_through_camera(CameraId(cam), lo, hi),
                        flat.vehicles_through_camera(CameraId(cam), lo, hi),
                        "camera {} window [{}, {}] at {} shards", cam, lo, hi, k
                    );
                }
            }
            prop_assert_eq!(
                sharded.scan_window(horizon / 4, horizon / 2),
                flat.scan_window(horizon / 4, horizon / 2)
            );
            prop_assert_eq!(
                sharded.nearest_by_signature(&sig(seed_idx), 4, 1.0),
                flat.nearest_by_signature(&sig(seed_idx), 4, 1.0)
            );
        }
    }
}
