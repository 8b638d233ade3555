//! Run telemetry: the measurements behind every system experiment in the
//! paper's §5, and the [`TelemetrySink`] seam through which the runtime
//! feeds its two collectors (this accumulator and the observability
//! bundle).

use crate::metrics::{Accuracy, Passage, Transition};
use crate::pool::PoolStats;
use coral_net::Message;
use coral_sim::{SimDuration, SimTime};
use coral_topology::CameraId;
use coral_vision::GroundTruthId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An inform-message arrival at a camera (the Fig. 10a measurement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InformArrival {
    /// Receiving camera.
    pub at: CameraId,
    /// The camera that generated the event.
    pub from: CameraId,
    /// Ground-truth vehicle of the event, if attributable.
    pub vehicle: Option<GroundTruthId>,
    /// Delivery time.
    pub arrived: SimTime,
}

/// A completed failure-recovery measurement (the Fig. 11 metric).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recovery {
    /// The failed camera.
    pub killed: CameraId,
    /// When it was killed.
    pub killed_at: SimTime,
    /// When the last affected camera received its topology update.
    pub recovered_at: SimTime,
}

impl Recovery {
    /// The recovery duration.
    pub fn duration(&self) -> SimDuration {
        self.recovered_at.since(self.killed_at)
    }
}

/// A completed region-failover measurement: one whole region's server
/// and store were partitioned away, restored, and every surviving home
/// camera's heartbeat landed back at the revived region server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionRecovery {
    /// The partitioned region.
    pub region: u16,
    /// When the partition opened.
    pub killed_at: SimTime,
    /// When the partition healed (the region came back).
    pub restored_at: SimTime,
    /// When the last surviving home camera's heartbeat was received
    /// directly by the revived region server again.
    pub recovered_at: SimTime,
}

impl RegionRecovery {
    /// How long the region was partitioned.
    pub fn downtime(&self) -> SimDuration {
        self.restored_at.since(self.killed_at)
    }

    /// How long re-convergence took after the heal.
    pub fn recovery(&self) -> SimDuration {
        self.recovered_at.since(self.restored_at)
    }
}

/// Observer of runtime measurements.
///
/// The runtime feeds every measurement to exactly two sinks: the
/// [`Telemetry`] accumulator backing `CoralPieSystem::telemetry()` and the
/// observability bundle (`CoreObs`) behind the metrics registry and causal
/// traces. All methods default to no-ops; a sink implements only the
/// measurements it cares about.
pub trait TelemetrySink {
    /// A ground-truth vehicle entered a camera's field of view.
    fn on_passage(&mut self, passage: &Passage) {
        let _ = passage;
    }

    /// The detector fired on a ground-truth vehicle this frame (raw
    /// detection evidence, before tracking; evaluation only).
    fn on_detection(&mut self, camera: CameraId, vehicle: GroundTruthId, at: SimTime) {
        let _ = (camera, vehicle, at);
    }

    /// A camera generated a detection event.
    fn on_event(&mut self, camera: CameraId, ground_truth: Option<GroundTruthId>, at: SimTime) {
        let _ = (camera, ground_truth, at);
    }

    /// A protocol message was delivered to a camera.
    fn on_delivery(&mut self, at: SimTime, to: CameraId, message: &Message) {
        let _ = (at, to, message);
    }

    /// Cloud-bound control bytes left a camera (heartbeat metering).
    fn on_cloud_send(&mut self, at: SimTime, from: CameraId, bytes: u64) {
        let _ = (at, from, bytes);
    }

    /// A failure recovery completed.
    fn on_recovery(&mut self, recovery: &Recovery) {
        let _ = recovery;
    }

    /// A region failover cycle completed.
    fn on_region_recovery(&mut self, recovery: &RegionRecovery) {
        let _ = recovery;
    }
}

/// Telemetry accumulated over a run — the default [`TelemetrySink`].
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Ground-truth FOV passages.
    pub passages: Vec<Passage>,
    /// Inform-message arrivals.
    pub informs: Vec<InformArrival>,
    /// Completed failure recoveries.
    pub recoveries: Vec<Recovery>,
    /// Completed region-failover cycles.
    pub region_recoveries: Vec<RegionRecovery>,
    /// Detection events generated: `(camera, ground truth, at)`.
    pub events: Vec<(CameraId, Option<GroundTruthId>, SimTime)>,
    /// Per-frame detector hits on ground-truth vehicles:
    /// `(camera, vehicle, at)`. The raw evidence the evaluation layer uses
    /// to attribute misses to the detect stage vs. the track stage.
    pub detections: Vec<(CameraId, GroundTruthId, SimTime)>,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Inform messages delivered.
    pub informs_delivered: u64,
    /// Confirm messages delivered.
    pub confirms_delivered: u64,
    /// Topology updates delivered.
    pub updates_delivered: u64,
    /// Total JSON bytes of delivered horizontal (camera-to-camera)
    /// messages — the backhaul-free traffic the §3 architecture argument
    /// is about.
    pub horizontal_bytes: u64,
    /// Total JSON bytes of cloud-bound control traffic (heartbeats) and
    /// cloud-to-camera topology updates.
    pub cloud_bytes: u64,
}

impl TelemetrySink for Telemetry {
    fn on_passage(&mut self, passage: &Passage) {
        self.passages.push(*passage);
    }

    fn on_detection(&mut self, camera: CameraId, vehicle: GroundTruthId, at: SimTime) {
        self.detections.push((camera, vehicle, at));
    }

    fn on_event(&mut self, camera: CameraId, ground_truth: Option<GroundTruthId>, at: SimTime) {
        self.events.push((camera, ground_truth, at));
    }

    fn on_delivery(&mut self, at: SimTime, to: CameraId, message: &Message) {
        self.messages_delivered += 1;
        match message {
            Message::Inform(e) => {
                self.informs_delivered += 1;
                self.horizontal_bytes += message.encoded_len() as u64;
                self.informs.push(InformArrival {
                    at: to,
                    from: e.camera,
                    vehicle: e.ground_truth,
                    arrived: at,
                });
            }
            Message::Confirm { .. } => {
                self.confirms_delivered += 1;
                self.horizontal_bytes += message.encoded_len() as u64;
            }
            Message::TopologyUpdate(_) => {
                self.updates_delivered += 1;
                self.cloud_bytes += message.encoded_len() as u64;
            }
            Message::Heartbeat { .. } => {}
            // Replication is storage-plane traffic addressed to edge
            // stores; it never reaches a camera.
            Message::Replicate { .. } => {}
            // Reliable-delivery framing is transport-internal and stripped
            // before delivery; raw frames carry no protocol telemetry.
            Message::Sequenced { .. } | Message::Ack { .. } => {}
        }
    }

    fn on_cloud_send(&mut self, _at: SimTime, _from: CameraId, bytes: u64) {
        self.cloud_bytes += bytes;
    }

    fn on_recovery(&mut self, recovery: &Recovery) {
        self.recoveries.push(*recovery);
    }

    fn on_region_recovery(&mut self, recovery: &RegionRecovery) {
        self.region_recoveries.push(*recovery);
    }
}

/// The final report of a run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Per-camera event-detection accuracy (Table 2).
    pub detection: BTreeMap<CameraId, Accuracy>,
    /// Cross-camera re-identification accuracy (§5.6).
    pub reid: Accuracy,
    /// Ground-truth transitions.
    pub transitions: Vec<Transition>,
    /// Per-camera pool statistics and current spurious fraction
    /// (Figs. 10b / 12b).
    pub pools: BTreeMap<CameraId, (PoolStats, f64)>,
}

/// Ground-truth-based inform redundancy per camera: the fraction of
/// delivered inform messages whose vehicle never subsequently entered the
/// receiving camera's field of view.
///
/// This is the paper's §5.3 methodology — "we first isolate the computer
/// vision errors ... by manually labeling the ground truth ... and
/// accounting the 'unmatched' detection events (at the end of the
/// experiment) in the candidate pool as 'redundant'" — with the traffic
/// simulator playing the role of the labeled ground truth. Returns
/// `(redundant, received)` per camera in `cameras`.
pub fn inform_redundancy(
    telemetry: &Telemetry,
    cameras: impl IntoIterator<Item = CameraId>,
) -> BTreeMap<CameraId, (u64, u64)> {
    // Per (camera, vehicle): a delivered inform is useful only if the
    // vehicle subsequently enters the camera's FOV, and each passage can
    // consume at most one inform (the camera re-identifies each vehicle
    // once). Everything else is redundant. This is redundancy under
    // *ideal* vision, the quantity the paper isolates by manual
    // ground-truth labeling.
    let mut informs: BTreeMap<(CameraId, GroundTruthId), Vec<u64>> = BTreeMap::new();
    let mut untagged: BTreeMap<CameraId, u64> = BTreeMap::new();
    for inf in &telemetry.informs {
        match inf.vehicle {
            Some(v) => informs
                .entry((inf.at, v))
                .or_default()
                .push(inf.arrived.as_millis()),
            None => *untagged.entry(inf.at).or_insert(0) += 1,
        }
    }
    let mut passages: BTreeMap<(CameraId, GroundTruthId), Vec<u64>> = BTreeMap::new();
    for p in &telemetry.passages {
        passages
            .entry((p.camera, p.vehicle))
            .or_default()
            .push(p.entered_ms);
    }
    let mut out: BTreeMap<CameraId, (u64, u64)> = BTreeMap::new();
    for cam in cameras {
        out.insert(cam, (0, 0));
    }
    // Small slack for the inform racing the vehicle over the last hop.
    const SLACK_MS: u64 = 5_000;
    for ((cam, vehicle), arrivals) in &mut informs {
        arrivals.sort_unstable();
        let mut available = passages.get(&(*cam, *vehicle)).cloned().unwrap_or_default();
        available.sort_unstable();
        let mut useful = 0u64;
        for &arrival in arrivals.iter() {
            if let Some(pos) = available.iter().position(|&p| p + SLACK_MS >= arrival) {
                available.remove(pos);
                useful += 1;
            }
        }
        let entry = out.entry(*cam).or_insert((0, 0));
        entry.0 += arrivals.len() as u64 - useful;
        entry.1 += arrivals.len() as u64;
    }
    for (cam, &n) in &untagged {
        // Events without ground-truth attribution (clutter) are redundant
        // by definition.
        let entry = out.entry(*cam).or_insert((0, 0));
        entry.0 += n;
        entry.1 += n;
    }
    out
}
