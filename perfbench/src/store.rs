//! `store_mixed_rw`: the trajectory store on its own, under an open-loop
//! mix of writes and reads.
//!
//! Set-up pre-loads an [`EdgeStorageNode`] (default [`StorageConfig`])
//! with a seeded stream shaped like the 10×10 city's store: 100 cameras,
//! vehicles hopping between neighbouring cameras a few seconds apart, an
//! edge for most hops (about 0.77 per vertex) and a colour-histogram
//! signature on every vertex. Then, for the measured window, one writer
//! thread appends events and edges and calls `compact_step`, and one
//! reader thread issues `query_trajectory`, `vehicles_through_camera`,
//! `scan_window` and `find_by_appearance`, each at a fixed rate. Every
//! request's latency counts from the time it was due.

use crate::stats::{run_open_loop, OpTiming, Summary, WallClock};
use crate::trace::Recorder;
use crate::{fnv, Metric, Outcome, RunContext, SplitMix};
use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_obs::Registry;
use coral_storage::{EdgeStorageNode, QueryOptions, StorageConfig, TrajectoryGraph};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, GroundTruthId, HistogramConfig, TrackId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Vertices loaded before the window: with 512-bin signatures about
/// 50 MB, well beyond any L2.
const PRELOAD_VERTICES: usize = 12_000;
/// Grid side: 10×10 cameras.
const SIDE: u32 = 10;
/// Distinct appearance signatures vehicles draw from.
const PROTOTYPES: usize = 256;
/// Mean stream time between consecutive detections (the 10×10 city
/// stores about 9 vertices per sim-second).
const STREAM_GAP_MS: u64 = 111;
/// Vehicles in flight at once: a vehicle's consecutive detections land
/// a few seconds apart.
const IN_FLIGHT: usize = 40;
/// A hop gets a re-identification edge with this probability.
const EDGE_PROB: f64 = 0.88;
/// Mean detections per vehicle.
const MEAN_HOPS: f64 = 8.0;

/// Pre-loads per run; `setup_s` is their median. A pre-load takes about
/// 20 ms, so the store sets up more often than the city workloads'
/// [`crate::SETUPS`]: a median of nine is not moved by the first one,
/// which also pays for process start, or by one stalled by the host.
const SETUPS: usize = 9;

/// Write requests per event: the event plus its ~0.77 edges.
const WRITES_PER_EVENT: f64 = 1.77;
/// Writer: one `compact_step` per this many write requests.
const COMPACT_EVERY: u64 = 64;

/// Offered load of the open-loop window.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Writer: events per second, each with its ~0.77 edges.
    pub events_per_s: f64,
    /// Reader: queries per second.
    pub reads_per_s: f64,
}

/// The load `store_mixed_rw` runs at: half the highest load at which
/// `store_sweep --seconds 30` (the benchmark's run length) met its limit
/// on a 2-vCPU host (800/s of each; at 1200/s the backlog grew through
/// the window), so the shard locks are contended but the run is well
/// short of the knee. See the README's "Calibrating the store's load".
pub const RATES: Rates = Rates {
    events_per_s: 400.0,
    reads_per_s: 400.0,
};

/// One generated write.
#[derive(Debug, Clone)]
enum Write {
    Event {
        camera: u32,
        track: u64,
        first_ms: u64,
        last_ms: u64,
        heading: Heading,
        prototype: usize,
        vehicle: u64,
    },
    /// Edge between two earlier events, by stream index.
    Edge {
        from: usize,
        to: usize,
        weight: f64,
    },
    Compact,
}

/// The seeded stream generator.
struct Stream {
    rng: SplitMix,
    t_ms: u64,
    events: usize,
    next_vehicle: u64,
    next_track: u64,
    /// (vehicle, camera, prototype, last event index)
    flying: Vec<(u64, u32, usize, Option<usize>)>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix(seed ^ 0x5708_E5EE),
            t_ms: 0,
            events: 0,
            next_vehicle: 0,
            next_track: 0,
            flying: Vec::new(),
        }
    }

    fn new_vehicle(&mut self) -> (u64, u32, usize, Option<usize>) {
        let v = self.next_vehicle;
        self.next_vehicle += 1;
        let camera = self.rng.below(u64::from(SIDE * SIDE)) as u32;
        let proto = self.rng.below(PROTOTYPES as u64) as usize;
        (v, camera, proto, None)
    }

    /// The next detection, plus the edge from the vehicle's previous
    /// detection when the hop was re-identified.
    fn next(&mut self, out: &mut Vec<Write>) {
        while self.flying.len() < IN_FLIGHT {
            let v = self.new_vehicle();
            self.flying.push(v);
        }
        self.t_ms += 1 + self.rng.below(2 * STREAM_GAP_MS);
        let slot = self.rng.below(IN_FLIGHT as u64) as usize;
        let (vehicle, camera, proto, prev) = self.flying[slot];
        // Hop to a grid neighbour (or stay, at the border).
        let (r, c) = (camera / SIDE, camera % SIDE);
        let (heading, next) = match self.rng.below(4) {
            0 if r > 0 => (Heading::North, camera - SIDE),
            1 if c + 1 < SIDE => (Heading::East, camera + 1),
            2 if r + 1 < SIDE => (Heading::South, camera + SIDE),
            3 if c > 0 => (Heading::West, camera - 1),
            _ => (Heading::North, camera),
        };
        let idx = self.events;
        self.events += 1;
        let track = self.next_track;
        self.next_track += 1;
        let dwell = 1_500 + self.rng.below(4_000);
        out.push(Write::Event {
            camera: next,
            track,
            first_ms: self.t_ms,
            last_ms: self.t_ms + dwell,
            heading,
            prototype: proto,
            vehicle,
        });
        if let Some(p) = prev {
            if self.rng.unit() < EDGE_PROB {
                let weight = 0.05 + 0.6 * self.rng.unit();
                out.push(Write::Edge {
                    from: p,
                    to: idx,
                    weight,
                });
            }
        }
        if self.rng.unit() < 1.0 / MEAN_HOPS {
            self.flying[slot] = self.new_vehicle();
        } else {
            self.flying[slot] = (vehicle, next, proto, Some(idx));
        }
    }
}

/// Seeded appearance prototypes (normalised 8×8×8 colour histograms).
fn prototypes(seed: u64) -> Vec<ColorHistogram> {
    let bins = HistogramConfig::default().bins_per_channel;
    let cells = bins * bins * bins;
    let mut rng = SplitMix(seed ^ 0xC0_10A5);
    (0..PROTOTYPES)
        .map(|_| {
            // A few dominant colour cells over a faint floor, like a car
            // body over background.
            let mut v = vec![0.02; cells];
            for _ in 0..6 {
                v[rng.below(cells as u64) as usize] += rng.unit() * 10.0;
            }
            let s: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= s);
            ColorHistogram::from_bins(bins, v).expect("bins³ cells")
        })
        .collect()
}

/// A loaded store and the ids its stream indices map to.
struct Loaded {
    store: EdgeStorageNode,
    ids: Vec<VertexId>,
    edges: usize,
}

fn apply(
    store: &EdgeStorageNode,
    w: &Write,
    protos: &[ColorHistogram],
    ids: &mut Vec<VertexId>,
) -> bool {
    match w {
        Write::Event {
            camera,
            track,
            first_ms,
            last_ms,
            heading,
            prototype,
            vehicle,
        } => {
            let event = EventId {
                camera: CameraId(*camera),
                track: TrackId(*track),
            };
            let id = store.insert_event_with_signature(
                event,
                *first_ms,
                *last_ms,
                Some(*heading),
                Some(protos[*prototype].clone()),
                Some(GroundTruthId(*vehicle)),
            );
            let fresh = id.0 == ids.len() as u64;
            ids.push(id);
            fresh
        }
        Write::Edge { from, to, weight } => {
            store.insert_edge(ids[*from], ids[*to], *weight).is_ok()
        }
        Write::Compact => {
            store.compact_step();
            true
        }
    }
}

fn preload(seed: u64, protos: &[ColorHistogram], stream: &mut Stream) -> Loaded {
    let store = EdgeStorageNode::with_config(16, StorageConfig::default());
    let mut ids = Vec::with_capacity(PRELOAD_VERTICES * 2);
    let mut batch = Vec::new();
    let mut edges = 0;
    while stream.events < PRELOAD_VERTICES {
        batch.clear();
        stream.next(&mut batch);
        for w in &batch {
            edges += usize::from(matches!(w, Write::Edge { .. }));
            assert!(
                apply(&store, w, protos, &mut ids),
                "pre-load write failed (seed {seed})"
            );
        }
    }
    Loaded { store, ids, edges }
}

/// Cheap identity of a loaded store: sizes plus a sample of answers.
fn store_digest(store: &EdgeStorageNode) -> u64 {
    let s = store.sharded();
    let mut h = fnv::mix(fnv::START, s.vertex_count() as u64);
    h = fnv::mix(h, s.edge_count() as u64);
    let n = s.vertex_count().max(1) as u64;
    for i in 0..64u64 {
        let seed = VertexId(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n);
        if let Ok(r) = store.query_trajectory(seed, QueryOptions::default()) {
            for v in r.best_track() {
                h = fnv::mix(h, v.0);
            }
        }
    }
    h
}

/// Full fingerprint of the merged flat view (vertices, signatures, edges).
fn graph_fingerprint(g: &TrajectoryGraph) -> u64 {
    let mut h = fnv::START;
    for v in g.vertices() {
        h = fnv::mix(h, v.id.0);
        h = fnv::mix(h, u64::from(v.camera.0));
        h = fnv::mix(h, v.first_seen_ms);
        h = fnv::mix(h, v.last_seen_ms);
        if let Some(sig) = &v.signature {
            for b in sig.bins() {
                h = fnv::mix(h, b.to_bits());
            }
        }
    }
    for e in g.edges() {
        h = fnv::mix(h, e.from.0);
        h = fnv::mix(h, e.to.0);
        h = fnv::mix(h, e.weight.to_bits());
    }
    h
}

/// The read shapes, in the order the reader cycles through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    Trajectory,
    Camera,
    Window,
    Appearance,
}

impl Shape {
    /// 64-slot cycle, the `exp_storage` mix plus appearance search:
    /// half trajectory queries, about a third camera queries, one window
    /// scan in eight and one query-by-appearance in 64 (a scan of every
    /// signature, which holds the shard read locks for milliseconds).
    pub fn of(i: u64) -> Self {
        match i % 64 {
            63 => Self::Appearance,
            j if j % 8 < 4 => Self::Trajectory,
            j if j % 8 < 7 => Self::Camera,
            _ => Self::Window,
        }
    }

    /// The store call's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Trajectory => "query_trajectory",
            Self::Camera => "vehicles_through_camera",
            Self::Window => "scan_window",
            Self::Appearance => "find_by_appearance",
        }
    }
}

/// What reads draw their parameters from.
#[derive(Debug, Clone, Copy)]
pub struct ReadTargets<'a> {
    /// Vertices in the store (ids `0..vertices`).
    pub vertices: u64,
    /// Newest detection time; camera and window queries end here.
    pub head_ms: u64,
    /// Cameras (ids `0..cameras`).
    pub cameras: u32,
    /// Signatures appearance queries look for (none: the read is skipped).
    pub queries: &'a [ColorHistogram],
}

impl ReadTargets<'_> {
    /// The store's size and newest detection time.
    pub fn head(store: &EdgeStorageNode) -> (u64, u64) {
        let count = store.sharded().vertex_count().max(1) as u64;
        let head_ms = store
            .sharded()
            .vertex(VertexId(count - 1))
            .map_or(0, |r| r.first_seen_ms);
        (count, head_ms)
    }
}

/// Read `i` of the [`Shape::of`] cycle, with parameters walked
/// deterministically from the request index over `t`. Returns whether
/// the call succeeded.
pub fn read(store: &EdgeStorageNode, i: u64, t: &ReadTargets) -> bool {
    let h = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    match Shape::of(i) {
        Shape::Trajectory => store
            .query_trajectory(VertexId(h % t.vertices), QueryOptions::default())
            .is_ok(),
        Shape::Camera => {
            let cam = CameraId((h % u64::from(t.cameras)) as u32);
            let _ = store.vehicles_through_camera(cam, t.head_ms.saturating_sub(20_000), t.head_ms);
            true
        }
        Shape::Window => {
            let _ = store.scan_window(t.head_ms.saturating_sub(5_000), t.head_ms);
            true
        }
        Shape::Appearance => {
            if let Some(q) = t.queries.get((h % t.queries.len().max(1) as u64) as usize) {
                let _ = store.find_by_appearance(q, 5, 0.5);
            }
            true
        }
    }
}

/// The writer's requests for `n` write slots: the stream's events and
/// edges, with a `compact_step` every [`COMPACT_EVERY`] slots.
fn write_schedule(stream: &mut Stream, n: u64) -> Vec<Write> {
    let mut writes: Vec<Write> = Vec::with_capacity(n as usize + 2);
    let mut batch = Vec::new();
    while (writes.len() as u64) < n {
        if writes.len() as u64 % COMPACT_EVERY == COMPACT_EVERY - 1 {
            writes.push(Write::Compact);
            continue;
        }
        batch.clear();
        stream.next(&mut batch);
        writes.extend(batch.iter().cloned());
    }
    writes
}

/// One open-loop window: its requests and what each took.
struct Window {
    /// Time zero of every [`OpTiming`].
    origin: Instant,
    /// The writer's schedule; those past the window's end were not issued.
    writes: Vec<Write>,
    write_t: Vec<(OpTiming, bool)>,
    read_t: Vec<(OpTiming, bool)>,
}

/// Runs the window: writer and reader on their own threads, both open
/// loop at `rates`, for `length`.
fn run_window(
    loaded: &mut Loaded,
    stream: &mut Stream,
    protos: &[ColorHistogram],
    rates: Rates,
    length: Duration,
) -> Window {
    let write_period = Duration::from_secs_f64(1.0 / (rates.events_per_s * WRITES_PER_EVENT));
    let read_period = Duration::from_secs_f64(1.0 / rates.reads_per_s);
    let n_writes = (length.as_secs_f64() / write_period.as_secs_f64()).ceil() as u64;
    let writes = write_schedule(stream, n_writes);
    let Loaded { store, ids, .. } = loaded;
    let store = &*store;
    let origin = Instant::now() + Duration::from_millis(5);
    let (write_t, read_t) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut clock = WallClock::new(origin);
            run_open_loop(&mut clock, write_period, length, |k| {
                match writes.get(k as usize) {
                    Some(w) => apply(store, w, protos, ids),
                    None => true,
                }
            })
        });
        let reader = scope.spawn(|| {
            let mut clock = WallClock::new(origin);
            let mut t = ReadTargets {
                vertices: 1,
                head_ms: 0,
                cameras: SIDE * SIDE,
                queries: protos,
            };
            run_open_loop(&mut clock, read_period, length, |i| {
                if i % 256 == 0 {
                    (t.vertices, t.head_ms) = ReadTargets::head(store);
                }
                read(store, i, &t)
            })
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    Window {
        origin,
        writes,
        write_t,
        read_t,
    }
}

/// Pushes per-shape read service-time layers (p50 and p99, µs).
pub fn push_read_layers(out: &mut Outcome, lat_us: &BTreeMap<&'static str, Vec<f64>>) {
    for shape in [
        Shape::Trajectory,
        Shape::Camera,
        Shape::Window,
        Shape::Appearance,
    ] {
        let s = Summary::of(lat_us.get(shape.name()).map_or(&[][..], Vec::as_slice));
        out.layers.push(Metric::new(
            &format!("storage.{}_p50_us", shape.name()),
            s.p50,
            "us",
        ));
        out.layers.push(Metric::new(
            &format!("storage.{}_p99_us", shape.name()),
            s.p99,
            "us",
        ));
    }
}

/// Runs the store workload and returns its outcome.
pub fn run(seed: u64, seconds: u64, trace: bool, ctx: &RunContext) -> Outcome {
    let mut out = Outcome::new("store_mixed_rw");
    let protos = prototypes(seed);

    // Set-up, several times: generate the stream and pre-load a fresh
    // store. The last one is measured.
    let mut digests = Vec::new();
    let mut loaded = None;
    let mut stream = None;
    for i in 0..SETUPS {
        drop(loaded.take());
        let start = if i == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let mut s = Stream::new(seed);
        let l = preload(seed, &protos, &mut s);
        out.setup_s.push(start.elapsed().as_secs_f64());
        digests.push((
            l.store.sharded().vertex_count(),
            l.edges,
            store_digest(&l.store),
        ));
        loaded = Some(l);
        stream = Some(s);
    }
    let mut loaded = loaded.expect("at least one set-up");
    let mut stream = stream.expect("at least one set-up");
    out.check(
        "setup_repeatable",
        digests.windows(2).all(|p| p[0] == p[1]),
        format!(
            "{} pre-loads of seed {seed} hold the same store: {:?}",
            SETUPS, digests[0]
        ),
    );

    let registry = Registry::new();
    if trace {
        loaded.store.instrument(&registry);
    }
    let Window {
        origin,
        writes,
        write_t,
        read_t,
    } = run_window(
        &mut loaded,
        &mut stream,
        &protos,
        RATES,
        Duration::from_secs(seconds),
    );
    let Loaded {
        store,
        edges: preload_edges,
        ..
    } = loaded;

    // Outputs: every call succeeded, and a sample of final answers equals
    // the flat reference view.
    let failed_writes = write_t.iter().filter(|(_, ok)| !ok).count() as u64;
    let failed_reads = read_t.iter().filter(|(_, ok)| !ok).count() as u64;
    let written_events = writes
        .iter()
        .take(write_t.len())
        .filter(|w| matches!(w, Write::Event { .. }))
        .count();
    let written_edges = writes
        .iter()
        .take(write_t.len())
        .filter(|w| matches!(w, Write::Edge { .. }))
        .count();
    let vertices = store.sharded().vertex_count();
    let edges = store.sharded().edge_count();
    out.check(
        "store_holds_every_write",
        vertices == PRELOAD_VERTICES + written_events && edges == preload_edges + written_edges,
        format!(
            "{vertices} vertices / {edges} edges after {written_events} event and {written_edges} edge writes"
        ),
    );
    let (mismatches, sampled, fingerprint) = store.with_graph(|g| {
        let mut bad = 0u64;
        let mut n = 0u64;
        let count = g.vertex_count().max(1) as u64;
        let head_ms = g.vertices().last().map_or(0, |v| v.first_seen_ms);
        for i in 0..256u64 {
            let h = (i + 7).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let seed = VertexId(h % count);
            let opts = QueryOptions::default();
            bad += u64::from(
                store.query_trajectory(seed, opts) != coral_storage::trajectory(g, seed, opts),
            );
            let cam = CameraId((h % u64::from(SIDE * SIDE)) as u32);
            let lo = head_ms.saturating_sub(20_000 + (h >> 40) % 600_000);
            bad += u64::from(
                store.vehicles_through_camera(cam, lo, head_ms)
                    != g.vehicles_through_camera(cam, lo, head_ms),
            );
            let lo = head_ms.saturating_sub(5_000 + (h >> 32) % 60_000);
            bad += u64::from(store.scan_window(lo, head_ms) != g.scan_window(lo, head_ms));
            n += 3;
            if i % 16 == 0 {
                let q = &protos[(h % PROTOTYPES as u64) as usize];
                bad += u64::from(
                    store.find_by_appearance(q, 5, 0.5) != g.nearest_by_signature(q, 5, 0.5),
                );
                n += 1;
            }
        }
        (bad, n, graph_fingerprint(g))
    });
    out.check(
        "answers_match_flat_view",
        mismatches == 0,
        format!(
            "{} of {sampled} sampled final answers equal the flat with_graph view",
            sampled - mismatches
        ),
    );

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let reads_us: Vec<f64> = read_t.iter().map(|(t, _)| us(t.latency())).collect();
    let ingest_us: Vec<f64> = write_t
        .iter()
        .zip(&writes)
        .filter(|(_, w)| !matches!(w, Write::Compact))
        .map(|((t, _), _)| us(t.latency()))
        .collect();
    let lag_ms: Vec<f64> = write_t
        .iter()
        .chain(&read_t)
        .map(|(t, _)| ms(t.lag()))
        .collect();
    out.op_ms = write_t
        .iter()
        .chain(&read_t)
        .map(|(t, _)| ms(t.latency()))
        .collect();
    out.ops = out.op_ms.len() as u64;
    out.failed_ops = failed_writes + failed_reads;
    out.failable = out.ops;
    let query = Summary::of(&reads_us);
    let ingest = Summary::of(&ingest_us);
    let lag = Summary::of(&lag_ms);
    out.check(
        "tail_samples",
        query.p99_supported && ingest.p99_supported,
        format!(
            "{} reads and {} writes: p99 has at least ten samples beyond it",
            query.n, ingest.n
        ),
    );
    out.report.extend([
        Metric::new("query_p50_us", query.p50, "us"),
        Metric::new("query_p99_us", query.p99, "us"),
        Metric::new("ingest_p99_us", ingest.p99, "us"),
        Metric::new("generator_lag_p99_ms", lag.p99, "ms"),
    ]);
    out.ledger = vec![("fingerprint", format!("{fingerprint:016x}"))];
    out.provenance.extend([
        ("preload_vertices", PRELOAD_VERTICES.to_string()),
        ("write_events_per_s", RATES.events_per_s.to_string()),
        ("reads_per_s", RATES.reads_per_s.to_string()),
        ("reads", query.n.to_string()),
        ("writes", write_t.len().to_string()),
        ("storage.vertices", vertices.to_string()),
        ("storage.edges", edges.to_string()),
    ]);

    if trace {
        let mut recorder = Recorder::new(ctx.process_start);
        let r0 = Instant::now();
        let base = |t: &OpTiming| origin + t.issued;
        for (k, (t, _)) in write_t.iter().enumerate() {
            recorder.record(
                "op.write",
                None,
                k as u64,
                base(t),
                origin + t.done,
                Vec::new(),
            );
        }
        for (k, (t, _)) in read_t.iter().enumerate() {
            let name = format!("op.{}", Shape::of(k as u64).name());
            recorder.record(name, None, k as u64, base(t), origin + t.done, Vec::new());
        }
        let record = r0.elapsed();
        let service_sum: Duration = write_t
            .iter()
            .chain(&read_t)
            .map(|(t, _)| t.service())
            .sum();
        let inner_us: u64 = registry
            .collect()
            .iter()
            .filter_map(|s| match &s.value {
                coral_obs::SampleValue::Histogram(h) => Some(h.sum_us),
                _ => None,
            })
            .sum();
        let compact_us = us(write_t
            .iter()
            .zip(&writes)
            .filter(|(_, w)| matches!(w, Write::Compact))
            .map(|((t, _), _)| t.service())
            .sum::<Duration>());
        let mean_service = |pick: fn(&Write) -> bool| {
            let v: Vec<f64> = write_t
                .iter()
                .zip(&writes)
                .filter(|(_, w)| pick(w))
                .map(|((t, _), _)| us(t.service()))
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let mut by_shape: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (k, (t, _)) in read_t.iter().enumerate() {
            by_shape
                .entry(Shape::of(k as u64).name())
                .or_default()
                .push(us(t.service()));
        }
        let compacts = writes
            .iter()
            .take(write_t.len())
            .filter(|w| matches!(w, Write::Compact))
            .count();
        out.layers.extend(crate::absent_tick_layers());
        out.layers.extend([
            Metric::new(
                "storage.insert_event_us",
                mean_service(|w| matches!(w, Write::Event { .. })),
                "us",
            ),
            Metric::new(
                "storage.insert_edge_us",
                mean_service(|w| matches!(w, Write::Edge { .. })),
                "us",
            ),
            Metric::new("storage.vertices", vertices as f64, "count"),
            Metric::new("storage.edges", edges as f64, "count"),
            Metric::new(
                "layer.unattributed_frac",
                1.0 - inner_us as f64 / us(service_sum),
                "ratio",
            ),
            Metric::new(
                "obs.trace_overhead_frac",
                us(record) / (us(service_sum) + us(record)),
                "ratio",
            ),
            Metric::new("eval.unattributed_frac", 0.0, "ratio"),
            Metric::new("eval.mota", 0.0, "ratio"),
            Metric::new("eval.idf1", 0.0, "ratio"),
        ]);
        push_read_layers(&mut out, &by_shape);
        out.layer_detail.extend([
            (
                "storage.compact_step_us",
                compact_us / compacts.max(1) as f64,
            ),
            ("storage.generator_lag_p50_ms", lag.p50),
            ("storage.generator_lag_p99_ms", lag.p99),
            ("storage.service_us_total", us(service_sum)),
            ("storage.registry_inner_us_total", inner_us as f64),
        ]);
        out.spans = Some(recorder);
    }
    out.peak_rss_mb = crate::peak_rss_mb();
    out
}

/// Offered loads `store_sweep` tries: each is both the writer's events
/// per second and the reader's queries per second, the mix
/// `store_mixed_rw` runs.
const SWEEP_RATES: [f64; 8] = [100.0, 200.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0, 2400.0];

/// Events the writer's solo capacity is measured over (each carries a
/// 4 KiB signature, so this bounds the store at about 150 MB).
const SOLO_WRITER_EVENTS: usize = 24_000;

/// `store_sweep`'s latency limit: every request's p99 from its due time,
/// and the last request's lag (a backlog that grew through the window).
const SWEEP_LIMIT_MS: f64 = 100.0;

/// `store_sweep`: where [`RATES`] comes from. First each thread's solo
/// capacity on a fresh pre-load in a closed loop: the reader for
/// `seconds`, the writer for [`SOLO_WRITER_EVENTS`] events. Then, on a
/// fresh pre-load per step, the window at each [`SWEEP_RATES`] load for
/// `seconds`. Prints a table and the highest load that met
/// [`SWEEP_LIMIT_MS`]; nothing is checked or gated.
pub fn sweep(seed: u64, seconds: u64) {
    let protos = prototypes(seed);
    let length = Duration::from_secs(seconds);
    let fresh = || {
        let mut stream = Stream::new(seed);
        let loaded = preload(seed, &protos, &mut stream);
        (loaded, stream)
    };

    let (loaded, _) = fresh();
    let (vertices, head_ms) = ReadTargets::head(&loaded.store);
    let targets = ReadTargets {
        vertices,
        head_ms,
        cameras: SIDE * SIDE,
        queries: &protos,
    };
    let start = Instant::now();
    let mut reads = 0u64;
    while start.elapsed() < length || !reads.is_multiple_of(64) {
        read(&loaded.store, reads, &targets);
        reads += 1;
    }
    let read_cap = reads as f64 / start.elapsed().as_secs_f64();
    drop(loaded);

    let (mut loaded, mut stream) = fresh();
    let start = Instant::now();
    let mut events = 0usize;
    while events < SOLO_WRITER_EVENTS {
        for w in write_schedule(&mut stream, COMPACT_EVERY) {
            events += usize::from(matches!(w, Write::Event { .. }));
            apply(&loaded.store, &w, &protos, &mut loaded.ids);
        }
    }
    let event_cap = events as f64 / start.elapsed().as_secs_f64();
    drop(loaded);

    println!("== store_sweep (seed {seed}, {seconds} s per step, limit {SWEEP_LIMIT_MS} ms) ==");
    println!("solo capacity: reader {read_cap:.0} reads/s, writer {event_cap:.0} events/s");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>11} {:>12}  meets",
        "load/s", "query_p50us", "query_p99us", "ingest_p99us", "op_mean_ms", "last_lag_ms"
    );
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut best = None;
    for rate in SWEEP_RATES {
        let rates = Rates {
            events_per_s: rate,
            reads_per_s: rate,
        };
        let (mut loaded, mut stream) = fresh();
        let w = run_window(&mut loaded, &mut stream, &protos, rates, length);
        let query: Vec<f64> = w.read_t.iter().map(|(t, _)| us(t.latency())).collect();
        let ingest: Vec<f64> = w
            .write_t
            .iter()
            .zip(&w.writes)
            .filter(|(_, w)| !matches!(w, Write::Compact))
            .map(|((t, _), _)| us(t.latency()))
            .collect();
        let all: Vec<f64> = query.iter().chain(&ingest).copied().collect();
        let last_lag_ms = [&w.write_t, &w.read_t]
            .iter()
            .filter_map(|t| t.last())
            .map(|(t, _)| t.lag().as_secs_f64() * 1e3)
            .fold(0.0, f64::max);
        let (q, i, a) = (Summary::of(&query), Summary::of(&ingest), Summary::of(&all));
        let meets = a.p99 / 1e3 <= SWEEP_LIMIT_MS && last_lag_ms <= SWEEP_LIMIT_MS;
        if meets {
            best = Some(rate);
        }
        println!(
            "{rate:>8.0} {:>12.1} {:>12.1} {:>12.1} {:>11.3} {last_lag_ms:>12.2}  {}",
            q.p50,
            q.p99,
            i.p99,
            a.mean / 1e3,
            if meets { "yes" } else { "no" }
        );
    }
    match best {
        Some(rate) => println!(
            "highest load meeting the limit: {rate:.0}/s; half of it: {:.0}/s",
            rate / 2.0
        ),
        None => println!("no load met the limit"),
    }
}
