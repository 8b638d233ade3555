//! The two city workloads: a full deployment stepped one frame period at
//! a time in a closed loop.
//!
//! - `grid1000_sparse`: the 25×40 grid, 1000 cameras, sparse stepping on
//!   one worker, quiet control plane, Poisson arrivals at the corners.
//! - `city100_surge_lossy`: the `platoon_surge_10x10` hard regime on two
//!   workers, with seeded link faults and the reliability layer on.
//!
//! The measured window is a fixed number of frame periods, so every run
//! of a seed does the same work and a faster build simply finishes
//! sooner. Each `run_until` is one timed operation.

use crate::stats::Summary;
use crate::store::{self, ReadTargets, Shape};
use crate::trace::Recorder;
use crate::{fnv, Metric, Outcome, RunContext, SETUPS};
use coral_core::{CameraSpec, CoralPieSystem, Deployment, NodeConfig, SystemConfig};
use coral_eval::Scenario;
use coral_geo::{generators, IntersectionId, Polygon};
use coral_net::VertexId;
use coral_obs::{Counter, Histogram, Registry, SampleValue};
use coral_sim::{
    slack_for, CameraView, OccupancyIndex, PoissonArrivals, ScenarioSpec, SimDuration, SimTime,
    TrafficModel, VehicleState,
};
use coral_topology::CameraId;
use coral_vision::{
    BoundingBox, ColorHistogram, Detector, DetectorNoise, FrameId, HistogramConfig,
    HistogramScratch, PostProcessor, Renderer, Scene, SortTracker, SyntheticSsdDetector,
    VehicleIdentification,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Frame period of every deployment (the prototype's 10.4 FPS).
const FRAME_MS: u64 = 96;

/// Ticks per block in a traced run, which alternates traced and untraced
/// blocks (about 4.6 sim-s each).
const TRACE_BLOCK: u64 = 48;

/// Seed of each city workload's arrival stream. The stream (arrival
/// times, entries, routes) is part of the workload's definition, like the
/// grid: with seeded arrivals the active-camera count moved by ±20% and
/// the tick time by up to 2× from seed to seed, so seeds rather than code
/// would dominate any comparison. `--seed` seeds everything the
/// deployment draws itself: vehicle speeds and lane choices, network
/// latencies, link faults and retransmission jitter, per-camera render
/// noise and detector draws.
///
/// The grid uses `exp_speedup`'s stream; the city uses the stream the
/// hard suite draws for its seed 42.
const GRID_ARRIVALS_SEED: u64 = 1234;
const CITY_ARRIVALS_SEED: u64 = 42 ^ 0xA881_0A15;

/// Seed mixing that `Deployment::make_node` applies per camera; the
/// vision probes use it so their detectors draw the same noise stream as
/// the camera they shadow.
const NODE_SEED_BASE: u64 = 0x5eed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Grid1000,
    City100,
}

/// Shape of one city workload.
#[derive(Debug, Clone, Copy)]
pub struct CityWorkload {
    kind: Kind,
    /// Frame periods stepped during set-up (join storm + ramp-up).
    warmup_ticks: u64,
    /// Measured frame periods per `--seconds` second: about a second of
    /// wall time each on a 2-vCPU host at the revision that introduced
    /// the benchmark (the grid's ticks are cheaper, but its run is
    /// dominated by three 1000-camera set-ups).
    ticks_per_second: f64,
    /// Lowest MOTA and IDF1 a run may score: a speed-up bought with
    /// accuracy fails the run. Set a few standard deviations below the
    /// lowest scores of the runs made while the benchmark was built.
    accuracy_floor: (f64, f64),
}

impl CityWorkload {
    /// `grid1000_sparse`: 100 sim-s of ramp-up before the window (the
    /// vehicle population grows for about that long).
    pub const GRID1000: Self = Self {
        kind: Kind::Grid1000,
        warmup_ticks: 1042,
        ticks_per_second: 100.0,
        // Seen: MOTA 0.614–0.700, IDF1 0.470–0.533 (24 runs).
        accuracy_floor: (0.55, 0.40),
    };

    /// `city100_surge_lossy`: 30 sim-s of warm-up before the window.
    pub const CITY100: Self = Self {
        kind: Kind::City100,
        warmup_ticks: 313,
        ticks_per_second: 100.0,
        // Seen: MOTA 0.717–0.800, IDF1 0.658–0.772 (80 runs). The hard
        // suite's band starts at 0.7.
        accuracy_floor: (0.68, 0.60),
    };

    fn name(&self) -> &'static str {
        match self.kind {
            Kind::Grid1000 => "grid1000_sparse",
            Kind::City100 => "city100_surge_lossy",
        }
    }

    /// Measured frame periods for a run of `seconds`. At least 1010, so
    /// p99 always has ten samples beyond it.
    pub fn window_ticks(&self, seconds: u64) -> u64 {
        ((seconds as f64 * self.ticks_per_second).round() as u64).max(1010)
    }
}

/// A deployment plus a lockstep twin of its traffic model.
struct Built {
    sys: CoralPieSystem,
    config: SystemConfig,
    twin: TrafficModel,
    twin_arrivals: PoissonArrivals,
    twin_last: SimTime,
}

impl Built {
    fn new(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::Grid1000 => {
                let net = generators::grid(25, 40, 120.0, 12.0);
                let specs: Vec<CameraSpec> = (0..1000u32)
                    .map(|i| CameraSpec {
                        id: CameraId(i),
                        site: IntersectionId(i),
                        videoing_angle_deg: f64::from(i % 4) * 90.0,
                    })
                    .collect();
                let config = SystemConfig {
                    node: NodeConfig {
                        detector_noise: DetectorNoise::perfect(),
                        ..NodeConfig::default()
                    },
                    parallelism: 1,
                    sparse_stepping: true,
                    // Quieted as in `exp_speedup`: at default cadences the
                    // heartbeat MDCS recomputes and the liveness sweep
                    // would drown the per-camera tick overhead.
                    heartbeat_interval: SimDuration::from_secs(600),
                    liveness_check_period: SimDuration::from_secs(600),
                    seed,
                    ..SystemConfig::default()
                };
                let entries = || [0, 39, 960, 999].map(IntersectionId).to_vec();
                let arrivals = || PoissonArrivals::new(0.5, entries(), 10, GRID_ARRIVALS_SEED);
                let twin =
                    Deployment::from_specs(net.clone(), &specs, config.clone()).make_traffic();
                let mut sys = CoralPieSystem::new(net, &specs, config.clone());
                sys.set_arrivals(arrivals());
                Self {
                    sys,
                    config,
                    twin,
                    twin_arrivals: arrivals(),
                    twin_last: SimTime::ZERO,
                }
            }
            Kind::City100 => {
                let spec = ScenarioSpec::platoon_surge();
                // The hard-suite pipeline settings and default heartbeats,
                // with 5% drop / 1% duplicate on every link and the
                // reliability layer on.
                let mut config = Scenario::hard(spec.clone(), seed)
                    .with_faults(0.05, 0.01)
                    .config;
                config.parallelism = 2;
                let specs: Vec<CameraSpec> = (0..spec.cameras() as u32)
                    .map(|i| CameraSpec {
                        id: CameraId(i),
                        site: IntersectionId(i),
                        videoing_angle_deg: 0.0,
                    })
                    .collect();
                let net = spec.network();
                let mut twin =
                    Deployment::from_specs(net.clone(), &specs, config.clone()).make_traffic();
                let mut sys = CoralPieSystem::new(net, &specs, config.clone());
                for light in spec.lights() {
                    sys.traffic_mut().add_light(light);
                }
                for light in spec.lights() {
                    twin.add_light(light);
                }
                spec.apply_incidents(sys.traffic_mut());
                spec.apply_incidents(&mut twin);
                sys.set_arrivals(spec.arrivals(CITY_ARRIVALS_SEED));
                Self {
                    sys,
                    config,
                    twin,
                    twin_arrivals: spec.arrivals(CITY_ARRIVALS_SEED),
                    twin_last: SimTime::ZERO,
                }
            }
        }
    }

    /// Advances the twin exactly as the runtime's frame tick advances the
    /// live model: arrivals first, then kinematics over the elapsed span.
    fn step_twin(&mut self, now: SimTime) {
        self.twin_arrivals.advance(now, &mut self.twin);
        self.twin.step(self.twin_last, now.since(self.twin_last));
        self.twin_last = now;
    }
}

fn tick_time(k: u64) -> SimTime {
    SimTime::from_millis(k * FRAME_MS)
}

fn counter(sys: &CoralPieSystem, name: &str) -> u64 {
    sys.observability()
        .registry()
        .counter_value(name, &[])
        .unwrap_or(0)
}

/// What must come out identical every time a seed is set up.
#[derive(Debug, Clone, PartialEq)]
struct SetupState {
    graph: u64,
    vehicles: usize,
    stepped: u64,
    skipped: u64,
}

fn graph_fingerprint(sys: &CoralPieSystem) -> (u64, usize, usize) {
    sys.with_trajectory_graph(|g| {
        let mut h = fnv::START;
        for v in g.vertices() {
            h = fnv::mix(h, v.id.0);
            h = fnv::mix(h, u64::from(v.camera.0));
            h = fnv::mix(h, v.first_seen_ms);
            h = fnv::mix(h, v.last_seen_ms);
            h = fnv::mix(h, v.ground_truth.map_or(u64::MAX, |gt| gt.0));
        }
        for e in g.edges() {
            h = fnv::mix(h, e.from.0);
            h = fnv::mix(h, e.to.0);
            h = fnv::mix(h, e.weight.to_bits());
        }
        (h, g.vertex_count(), g.edge_count())
    })
}

/// Builds the deployment and runs it through the warm-up.
fn setup(w: &CityWorkload, seed: u64) -> Built {
    let mut b = Built::new(w.kind, seed);
    b.sys.run_until(tick_time(w.warmup_ticks));
    b
}

impl SetupState {
    fn of(sys: &CoralPieSystem) -> Self {
        Self {
            graph: graph_fingerprint(sys).0,
            vehicles: sys.traffic().active_count(),
            stepped: counter(sys, "core_cameras_stepped_total"),
            skipped: counter(sys, "core_cameras_skipped_total"),
        }
    }
}

/// Registry handles the traced run reads around every tick. Built once
/// from the series the deployment already exports; nothing is added to
/// the registry.
struct Handles {
    counters: Vec<(&'static str, Vec<Counter>)>,
    hist_sum: Vec<(&'static str, Vec<Histogram>)>,
    hist_count: Vec<(&'static str, Vec<Histogram>)>,
}

impl Handles {
    fn new(registry: &Registry) -> Self {
        let samples = registry.collect();
        // Handles to the existing series named `name` (optionally with one
        // label pinned); asking the registry for an existing key returns
        // the live series rather than creating one.
        let matching = |name: &str, label: Option<(&str, &str)>, histogram: bool| {
            samples
                .iter()
                .filter(move |s| {
                    s.key.name == name
                        && matches!(s.value, SampleValue::Histogram(_)) == histogram
                        && label.is_none_or(|(k, v)| s.key.label(k) == Some(v))
                })
                .map(|s| {
                    let pairs: Vec<(&str, &str)> = s
                        .key
                        .labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    (s.key.name.as_str(), pairs)
                })
                .collect::<Vec<_>>()
        };
        let counters_of = |name: &str| -> Vec<Counter> {
            matching(name, None, false)
                .into_iter()
                .map(|(n, pairs)| registry.counter(n, &pairs))
                .collect()
        };
        let hists_of = |name: &str, label: Option<(&str, &str)>| -> Vec<Histogram> {
            matching(name, label, true)
                .into_iter()
                .map(|(n, pairs)| registry.histogram(n, &pairs))
                .collect()
        };
        Self {
            counters: vec![
                ("core_step_busy_us", counters_of("core_step_busy_us_total")),
                (
                    "core_step_critical_us",
                    counters_of("core_step_critical_us_total"),
                ),
                (
                    "core_step_commit_us",
                    counters_of("core_step_commit_us_total"),
                ),
                ("cameras_stepped", counters_of("core_cameras_stepped_total")),
                ("cameras_skipped", counters_of("core_cameras_skipped_total")),
                ("messages_sent", counters_of("runtime_messages_sent_total")),
                ("heartbeats_sent", counters_of("runtime_heartbeats_total")),
                ("updates_sent", counters_of("server_updates_sent_total")),
                ("retries", counters_of("reliable_retries_total")),
                ("gave_up", counters_of("reliable_gave_up_total")),
                ("chaos_dropped", counters_of("chaos_dropped_total")),
            ],
            hist_sum: vec![
                ("core_tick_us", hists_of("core_tick_us", None)),
                (
                    "mdcs_recompute_us",
                    hists_of("server_mdcs_recompute_us", None),
                ),
                (
                    "message_handle_us",
                    hists_of("node_message_handle_us", None),
                ),
                (
                    "insert_event_us",
                    hists_of("storage_write_latency_us", Some(("op", "insert_event"))),
                ),
                (
                    "insert_edge_us",
                    hists_of("storage_write_latency_us", Some(("op", "insert_edge"))),
                ),
            ],
            hist_count: vec![
                (
                    "mdcs_recomputes",
                    hists_of("server_mdcs_recompute_us", None),
                ),
                (
                    "insert_event",
                    hists_of("storage_write_latency_us", Some(("op", "insert_event"))),
                ),
                (
                    "insert_edge",
                    hists_of("storage_write_latency_us", Some(("op", "insert_edge"))),
                ),
            ],
        }
    }

    /// Current totals, in a fixed order.
    fn read(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::with_capacity(self.counters.len() + 8);
        for (name, cs) in &self.counters {
            out.push((*name, cs.iter().map(Counter::get).sum()));
        }
        for (name, hs) in &self.hist_sum {
            out.push((*name, hs.iter().map(Histogram::sum_us).sum()));
        }
        for (name, hs) in &self.hist_count {
            out.push((*name, hs.iter().map(Histogram::count).sum()));
        }
        out
    }
}

/// Benchmark-owned copy of one camera's vision chain, built from the
/// node's configuration the way `CameraNode::new` builds its own, fed
/// the live scene, and timed part by part.
struct VisionProbe {
    renderer: Renderer,
    render_seed: u64,
    detector: SyntheticSsdDetector,
    post: PostProcessor,
    sort: SortTracker,
    histogram: HistogramConfig,
    scratch: HistogramScratch,
    ident: VehicleIdentification<SyntheticSsdDetector>,
}

#[derive(Debug, Default, Clone, Copy)]
struct VisionTimes {
    render: Duration,
    detect: Duration,
    sort: Duration,
    histogram: Duration,
    process_scene: Duration,
}

impl VisionProbe {
    fn new(config: &SystemConfig, view: &CameraView, camera: CameraId) -> Self {
        let node = &config.node;
        let seed = config.seed ^ (NODE_SEED_BASE + u64::from(camera.0));
        let mut ident_cfg = node.ident.clone();
        ident_cfg.videoing_angle_deg = view.videoing_angle_deg;
        let inset = node.coi_inset_frac.clamp(0.0, 0.45);
        let (w, h) = (f64::from(view.image_width), f64::from(view.image_height));
        let coi = || Polygon::rect(w * inset, h * inset, w * (1.0 - inset), h * (1.0 - inset));
        Self {
            renderer: ident_cfg.renderer,
            render_seed: seed,
            detector: SyntheticSsdDetector::new(node.detector_noise, seed),
            post: PostProcessor::new(coi()),
            sort: SortTracker::new(ident_cfg.sort),
            histogram: ident_cfg.histogram,
            scratch: HistogramScratch::new(),
            ident: VehicleIdentification::new(
                SyntheticSsdDetector::new(node.detector_noise, seed),
                PostProcessor::new(coi()),
                ident_cfg,
                seed,
            ),
        }
    }

    /// Runs the chain on `scene` as frame `frame`. Like the node, an
    /// empty scene with nothing tracked costs nothing.
    fn run(&mut self, frame: FrameId, scene: &Scene, t: &mut VisionTimes) {
        if scene.actors.is_empty() && self.ident.live_track_count() == 0 {
            return;
        }
        let a = Instant::now();
        let pixels = self.renderer.render(scene, self.render_seed ^ frame.0);
        let b = Instant::now();
        let kept = self.post.filter(self.detector.detect(scene));
        let boxes: Vec<BoundingBox> = kept.iter().map(|d| d.bbox).collect();
        let c = Instant::now();
        let out = self.sort.update(&boxes);
        let d = Instant::now();
        for st in &out.active {
            ColorHistogram::extract_into(&pixels, &st.bbox, &self.histogram, &mut self.scratch);
        }
        let e = Instant::now();
        let _ = self.ident.process_scene(frame, scene);
        let f = Instant::now();
        t.render += b - a;
        t.detect += c - b;
        t.sort += d - c;
        t.histogram += e - d;
        t.process_scene += f - e;
    }
}

/// Per-layer accumulators of the traced run (all over the window).
#[derive(Debug, Default)]
struct LayerTotals {
    tick_wall: Duration,
    record: Duration,
    traffic_step: Duration,
    occupancy: Duration,
    scene_build: Duration,
    vision: VisionTimes,
    deltas: BTreeMap<&'static str, u64>,
    traced_ticks: u64,
    probe_stepped: u64,
    stepped_mismatch_ticks: u64,
}

/// Runs one city workload end to end and returns its outcome.
pub fn run(w: &CityWorkload, seed: u64, seconds: u64, trace: bool, ctx: &RunContext) -> Outcome {
    let mut out = Outcome::new(w.name());
    // Set-up, several times: each builds the deployment from scratch and
    // runs it through the warm-up. The last one is measured.
    let mut states = Vec::new();
    let mut built = None;
    for i in 0..SETUPS {
        drop(built.take());
        let start = if i == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let b = setup(w, seed);
        out.setup_s.push(start.elapsed().as_secs_f64());
        states.push(SetupState::of(&b.sys));
        built = Some(b);
    }
    let mut b = built.expect("at least one set-up");
    out.check(
        "setup_repeatable",
        states.windows(2).all(|p| p[0] == p[1]),
        format!(
            "{SETUPS} set-ups of seed {seed} reach the same graph and activity: {:?}",
            states[0]
        ),
    );

    // The traced run mirrors the runtime's occupancy index, which has
    // been assigned every tick since t = 0: its candidate lists depend on
    // when each vehicle's anchor was last refreshed.
    let mut occupancy = trace.then(|| {
        let slack = slack_for(
            b.twin.config().max_speed_mps(),
            b.config.frame_period.as_secs_f64(),
        );
        let mut idx = OccupancyIndex::new(slack);
        for (_, node) in b.sys.runtime().world().nodes() {
            idx.add_camera(node.view().position, node.view().range_m);
        }
        idx
    });
    // Catch the twin (and the mirrored index) up through the warm-up,
    // then compare.
    let mut catch_up: Vec<VehicleState> = Vec::new();
    for k in 1..=w.warmup_ticks {
        b.step_twin(tick_time(k));
        if let Some(occ) = occupancy.as_mut() {
            b.twin.states_into(&mut catch_up);
            occ.assign(&catch_up);
        }
    }
    let mut live_states: Vec<VehicleState> = Vec::new();
    let mut twin_states: Vec<VehicleState> = Vec::new();
    let mut twin_mismatch = 0u64;
    let twin_compare = |b: &Built, live: &mut Vec<VehicleState>, twin: &mut Vec<VehicleState>| {
        b.sys.traffic().states_into(live);
        b.twin.states_into(twin);
        live != twin
    };
    if twin_compare(&b, &mut live_states, &mut twin_states) {
        twin_mismatch += 1;
    }

    let ticks = w.window_ticks(seconds);
    let first = w.warmup_ticks + 1;
    let stepped0 = counter(&b.sys, "core_cameras_stepped_total");
    let skipped0 = counter(&b.sys, "core_cameras_skipped_total");
    let ticks0 = counter(&b.sys, "core_tick_total");
    let registry = b.sys.observability().registry().clone();
    let totals0 = Handles::new(&registry).read();

    // Traced-run state.
    let handles = trace.then(|| Handles::new(&registry));
    let mut recorder = Recorder::new(ctx.process_start);
    let mut layers = LayerTotals::default();
    let mut probes: BTreeMap<CameraId, VisionProbe> = BTreeMap::new();
    let mut live_before: Vec<bool> = Vec::new();
    let mut untraced_wall = Duration::ZERO;
    let mut untraced_ticks = 0u64;

    let mut tick_ms = Vec::with_capacity(ticks as usize);
    for k in first..first + ticks {
        let now = tick_time(k);
        let now_ms = now.as_millis();
        // A traced run alternates blocks of traced and untraced ticks; the
        // untraced blocks are its own baseline for what tracing costs.
        let traced = trace && ((k - first) / TRACE_BLOCK).is_multiple_of(2);
        let before = handles.as_ref().filter(|_| traced).map(|h| {
            let r0 = Instant::now();
            let world = b.sys.runtime().world();
            live_before.clear();
            live_before.extend(world.nodes().map(|(_, n)| n.live_track_count() > 0));
            let totals = h.read();
            layers.record += r0.elapsed();
            totals
        });

        let start = Instant::now();
        b.sys.run_until(now);
        let end = Instant::now();
        tick_ms.push((end - start).as_secs_f64() * 1e3);

        let t0 = Instant::now();
        b.step_twin(now);
        let twin_step = t0.elapsed();
        if twin_compare(&b, &mut live_states, &mut twin_states) {
            twin_mismatch += 1;
        }

        // The mirrored occupancy index is fed every tick, traced or not.
        let o0 = Instant::now();
        if let Some(occ) = occupancy.as_mut() {
            occ.assign(&twin_states);
        }
        let o1 = Instant::now();

        if let (Some(h), Some(before), Some(occ)) = (&handles, before, occupancy.as_ref()) {
            let r0 = Instant::now();
            let after = h.read();
            let counts: Vec<(&'static str, u64)> = after
                .iter()
                .zip(&before)
                .map(|(&(name, a), &(_, bv))| (name, a.saturating_sub(bv)))
                .collect();
            let tick_span = recorder.record("tick", None, k, start, end, counts.clone());
            layers.tick_wall += end - start;
            for (name, d) in &counts {
                *layers.deltas.entry(name).or_default() += d;
            }
            layers.record += r0.elapsed();

            // Probes, on the twin (whose states equal the live model's).
            layers.traffic_step += twin_step;
            recorder.record(
                "probe.sim.traffic_step",
                Some(tick_span),
                k,
                t0,
                t0 + twin_step,
                Vec::new(),
            );
            layers.traced_ticks += 1;
            layers.occupancy += o1 - o0;
            recorder.record(
                "probe.sim.occupancy_assign",
                Some(tick_span),
                k,
                o0,
                o1,
                Vec::new(),
            );

            // The cameras the runtime stepped: a candidate nearby, live
            // tracks going in, or a clutter burst (see `SimWorld::on_tick`).
            let world = b.sys.runtime().world();
            let stepped: Vec<CameraId> = world
                .nodes()
                .enumerate()
                .filter(|&(slot, (id, node))| {
                    world.alive().contains(&id)
                        && (!occ.candidates(slot).is_empty()
                            || live_before.get(slot).copied().unwrap_or(false)
                            || node.view().clutter_active(now_ms))
                })
                .map(|(_, (id, _))| id)
                .collect();
            let runtime_stepped = counts
                .iter()
                .find(|(n, _)| *n == "cameras_stepped")
                .map_or(0, |&(_, v)| v);
            layers.probe_stepped += stepped.len() as u64;
            if stepped.len() as u64 != runtime_stepped {
                layers.stepped_mismatch_ticks += 1;
            }

            let s0 = Instant::now();
            let mut scenes = Vec::with_capacity(stepped.len());
            for &id in &stepped {
                let view = world.node(id).expect("stepped camera exists").view();
                scenes.push((id, *view, view.scene_at(&b.twin, now_ms)));
            }
            let s1 = Instant::now();
            layers.scene_build += s1 - s0;
            recorder.record(
                "probe.sim.scene_build",
                Some(tick_span),
                k,
                s0,
                s1,
                Vec::new(),
            );

            let v0 = Instant::now();
            let mut vt = VisionTimes::default();
            for (id, view, scene) in &scenes {
                let probe = probes
                    .entry(*id)
                    .or_insert_with(|| VisionProbe::new(&b.config, view, *id));
                probe.run(FrameId(k - 1), scene, &mut vt);
            }
            let v1 = Instant::now();
            recorder.record(
                "probe.vision",
                Some(tick_span),
                k,
                v0,
                v1,
                vec![
                    ("render_ns", vt.render.as_nanos() as u64),
                    ("detect_ns", vt.detect.as_nanos() as u64),
                    ("sort_ns", vt.sort.as_nanos() as u64),
                    ("histogram_ns", vt.histogram.as_nanos() as u64),
                    ("process_scene_ns", vt.process_scene.as_nanos() as u64),
                ],
            );
            layers.vision.render += vt.render;
            layers.vision.detect += vt.detect;
            layers.vision.sort += vt.sort;
            layers.vision.histogram += vt.histogram;
            layers.vision.process_scene += vt.process_scene;
        } else if trace {
            untraced_wall += end - start;
            untraced_ticks += 1;
        }
    }

    let stepped = counter(&b.sys, "core_cameras_stepped_total") - stepped0;
    let skipped = counter(&b.sys, "core_cameras_skipped_total") - skipped0;
    let runtime_ticks = counter(&b.sys, "core_tick_total") - ticks0;
    let active_fraction = stepped as f64 / (stepped + skipped).max(1) as f64;
    let vehicles = b.sys.traffic().active_count();
    let totals1 = Handles::new(&registry).read();
    let delta = |name: &str| -> u64 {
        let a = totals1.iter().find(|(n, _)| *n == name).map_or(0, |p| p.1);
        let z = totals0.iter().find(|(n, _)| *n == name).map_or(0, |p| p.1);
        a.saturating_sub(z)
    };
    let sent = delta("messages_sent") + delta("heartbeats_sent") + delta("updates_sent");
    let gave_up = delta("gave_up");

    out.check(
        "twin_traffic_matches",
        twin_mismatch == 0,
        format!(
            "twin traffic model equal to the live one on {} of {} ticks",
            ticks + 1 - twin_mismatch,
            ticks + 1
        ),
    );
    out.check(
        "one_tick_per_frame_period",
        runtime_ticks == ticks,
        format!("{runtime_ticks} runtime ticks over {ticks} frame periods"),
    );

    // Fixed-work accounting, then the output checks.
    let tick = Summary::of(&tick_ms);
    let sim_s = ticks as f64 * FRAME_MS as f64 / 1e3;
    let wall_s: f64 = tick_ms.iter().sum::<f64>() / 1e3;
    let realtime_x = sim_s / wall_s;
    out.op_ms = tick_ms;
    out.ops = ticks;
    out.messages = sent;
    out.failable = sent;
    out.failed_messages = gave_up;
    out.check(
        "tail_samples",
        tick.p99_supported,
        format!("{} ticks: p99 has at least ten samples beyond it", tick.n),
    );

    b.sys.finish();
    let (fingerprint, vertices, edges) = graph_fingerprint(&b.sys);
    let eval = coral_eval::evaluate(w.name(), seed, &b.sys);
    let unattributed = eval.attribution.unattributed_fraction();
    out.check(
        "graph_nonempty",
        vertices > 0,
        format!("trajectory graph has {vertices} vertices and {edges} edges"),
    );
    let (mota_floor, idf1_floor) = w.accuracy_floor;
    out.check(
        "accuracy_floor",
        eval.mota() >= mota_floor && eval.idf1() >= idf1_floor,
        format!(
            "MOTA {:.4} (floor {mota_floor}), IDF1 {:.4} (floor {idf1_floor})",
            eval.mota(),
            eval.idf1()
        ),
    );
    if w.kind == Kind::City100 {
        out.check(
            "eval_unattributed_le_1pct",
            unattributed <= 0.01,
            format!(
                "{:.4} of {} misses have no attributed stage",
                unattributed,
                eval.attribution.total()
            ),
        );
    }
    out.ledger = vec![
        ("fingerprint", format!("{fingerprint:016x}")),
        ("active_fraction", format!("{active_fraction}")),
        ("mota", format!("{}", eval.mota())),
        ("idf1", format!("{}", eval.idf1())),
    ];
    out.provenance.extend([
        ("window_ticks", ticks.to_string()),
        ("window_sim_s", format!("{sim_s}")),
        ("warmup_ticks", w.warmup_ticks.to_string()),
        ("sim.vehicles", vehicles.to_string()),
        ("core.active_fraction", format!("{active_fraction}")),
    ]);

    out.report.extend([
        Metric::new("realtime_x", realtime_x, "sim-s/wall-s"),
        Metric::new("tick_p50_ms", tick.p50, "ms"),
        Metric::new("tick_p99_ms", tick.p99, "ms"),
        Metric::new("mota", eval.mota(), "ratio"),
        Metric::new("idf1", eval.idf1(), "ratio"),
        Metric::new("trajectory_vertices", vertices as f64, "count"),
        Metric::new("trajectory_edges", edges as f64, "count"),
    ]);

    if trace {
        let n = layers.traced_ticks.max(1) as f64;
        let wall = layers.tick_wall.as_secs_f64() * 1e6;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let d = |name: &str| layers.deltas.get(name).copied().unwrap_or(0) as f64;
        let busy = d("core_step_busy_us");
        let critical = d("core_step_critical_us");
        let commit = d("core_step_commit_us");
        let core_tick = d("core_tick_us");
        let mdcs = d("mdcs_recompute_us");
        let messages = d("message_handle_us");
        // The layers a tick's wall time is attributed to. Traffic step and
        // occupancy are the twin's timings; analysis (scene build and the
        // whole vision chain) is the stepper's critical path; the commit
        // walk covers storage ingest, re-id and sends; the control plane
        // and message handlers run outside the frame tick.
        let attributed =
            us(layers.traffic_step) + us(layers.occupancy) + critical + commit + mdcs + messages;
        let unattributed_frac = 1.0 - attributed / wall;
        let frac = |x: f64| x / wall;
        let sent_w = d("messages_sent") + d("heartbeats_sent") + d("updates_sent");
        out.layers.extend([
            Metric::new("core.analyze_busy_frac", frac(busy), "ratio"),
            Metric::new("core.analyze_critical_frac", frac(critical), "ratio"),
            Metric::new("core.commit_walk_frac", frac(commit), "ratio"),
            Metric::new("core.untimed_frac", 1.0 - frac(core_tick), "ratio"),
            Metric::new("core.active_fraction", active_fraction, "ratio"),
            Metric::new("core.frames_stepped", stepped as f64, "count"),
            Metric::new(
                "sim.traffic_step_frac",
                frac(us(layers.traffic_step)),
                "ratio",
            ),
            Metric::new(
                "sim.occupancy_assign_frac",
                frac(us(layers.occupancy)),
                "ratio",
            ),
            Metric::new(
                "sim.scene_build_frac",
                frac(us(layers.scene_build)),
                "ratio",
            ),
            Metric::new("sim.vehicles", vehicles as f64, "count"),
            Metric::new(
                "vision.render_frac",
                frac(us(layers.vision.render)),
                "ratio",
            ),
            Metric::new(
                "vision.detect_frac",
                frac(us(layers.vision.detect)),
                "ratio",
            ),
            Metric::new("vision.sort_frac", frac(us(layers.vision.sort)), "ratio"),
            Metric::new(
                "vision.histogram_frac",
                frac(us(layers.vision.histogram)),
                "ratio",
            ),
            Metric::new(
                "vision.process_scene_frac",
                frac(us(layers.vision.process_scene)),
                "ratio",
            ),
            Metric::new("net.sent", sent_w, "count"),
            Metric::new("net.retries", d("retries"), "count"),
            Metric::new("net.retry_ratio", d("retries") / sent_w.max(1.0), "ratio"),
            Metric::new("net.gave_up", d("gave_up"), "count"),
            Metric::new("net.chaos_dropped", d("chaos_dropped"), "count"),
            Metric::new("topology.mdcs_recompute_frac", frac(mdcs), "ratio"),
            Metric::new("topology.mdcs_recomputes", d("mdcs_recomputes"), "count"),
            Metric::new("topology.updates_sent", d("updates_sent"), "count"),
            Metric::new(
                "storage.insert_event_us",
                d("insert_event_us") / d("insert_event").max(1.0),
                "us",
            ),
            Metric::new(
                "storage.insert_edge_us",
                d("insert_edge_us") / d("insert_edge").max(1.0),
                "us",
            ),
            Metric::new("storage.vertices", vertices as f64, "count"),
            Metric::new("storage.edges", edges as f64, "count"),
            Metric::new("layer.unattributed_frac", unattributed_frac, "ratio"),
            // 1 − traced realtime ÷ untraced realtime, where a traced
            // tick also pays for its recording.
            Metric::new(
                "obs.trace_overhead_frac",
                1.0 - (us(untraced_wall) / untraced_ticks.max(1) as f64)
                    / ((wall + us(layers.record)) / n),
                "ratio",
            ),
            Metric::new("eval.unattributed_frac", unattributed, "ratio"),
            Metric::new("eval.mota", eval.mota(), "ratio"),
            Metric::new("eval.idf1", eval.idf1(), "ratio"),
        ]);
        // Per-tick absolute layer times, for the report.
        out.layer_detail.extend([
            ("tick_wall_us_per_tick", wall / n),
            ("core.analyze_busy_us_per_tick", busy / n),
            ("core.analyze_critical_us_per_tick", critical / n),
            ("core.commit_walk_us_per_tick", commit / n),
            ("core.untimed_us_per_tick", (wall - core_tick) / n),
            ("sim.traffic_step_us_per_tick", us(layers.traffic_step) / n),
            ("sim.occupancy_assign_us_per_tick", us(layers.occupancy) / n),
            ("sim.scene_build_us_per_tick", us(layers.scene_build) / n),
            ("vision.render_us_per_tick", us(layers.vision.render) / n),
            ("vision.detect_us_per_tick", us(layers.vision.detect) / n),
            ("vision.sort_us_per_tick", us(layers.vision.sort) / n),
            (
                "vision.histogram_us_per_tick",
                us(layers.vision.histogram) / n,
            ),
            (
                "vision.process_scene_us_per_tick",
                us(layers.vision.process_scene) / n,
            ),
            ("topology.mdcs_recompute_us_per_tick", mdcs / n),
            ("node.message_handle_us_per_tick", messages / n),
            ("trace.record_us_per_tick", us(layers.record) / n),
        ]);
        out.check(
            "probe_stepped_set_matches",
            layers.stepped_mismatch_ticks == 0,
            format!(
                "benchmark-derived stepped set equals the runtime's on {} of {} traced ticks ({} camera-frames)",
                layers.traced_ticks - layers.stepped_mismatch_ticks,
                layers.traced_ticks,
                layers.probe_stepped,
            ),
        );
        storage_read_probe(&b.sys, &mut out, &mut recorder);
        out.spans = Some(recorder);
    }
    out.peak_rss_mb = crate::peak_rss_mb();
    out
}

/// Reads the storage read probe issues: 64 of each [`Shape::of`] cycle.
const STORAGE_PROBE_READS: u64 = 64 * 64;

/// Traced runs only: the storage read path on the deployment's own
/// store, with the read mix the store workload issues.
fn storage_read_probe(sys: &CoralPieSystem, out: &mut Outcome, recorder: &mut Recorder) {
    let store = sys.storage();
    let (vertices, head_ms) = ReadTargets::head(store);
    // Appearance queries look for the newest signatures the store holds.
    let queries: Vec<ColorHistogram> = (0..vertices)
        .rev()
        .filter_map(|i| store.sharded().vertex(VertexId(i)).ok()?.signature)
        .take(64)
        .collect();
    let targets = ReadTargets {
        vertices,
        head_ms,
        cameras: sys.runtime().world().nodes().count() as u32,
        queries: &queries,
    };
    let mut lat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let p0 = Instant::now();
    for i in 0..STORAGE_PROBE_READS {
        let start = Instant::now();
        store::read(store, i, &targets);
        lat.entry(Shape::of(i).name())
            .or_default()
            .push(start.elapsed().as_secs_f64() * 1e6);
    }
    recorder.record(
        "probe.storage.read",
        None,
        0,
        p0,
        Instant::now(),
        Vec::new(),
    );
    store::push_read_layers(out, &lat);
}
