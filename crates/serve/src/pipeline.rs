//! Pipeline requests: a small DAG of FFT / pointwise / reduce stages served
//! as **one** schedulable unit, with every intermediate held device-resident.
//!
//! This is the serving-side form of the paper's §4.4 confinement argument
//! (and the ZDock case study): a convolution is forward → forward →
//! pointwise product → inverse, and the only traffic that should cross PCIe
//! is the input volumes going up and the final surface (or an 8-byte
//! reduction) coming down. A [`PipelineRequest`] names that DAG explicitly —
//! each stage carries a happens-after mask over prior stages, in the spirit
//! of a lane scheduler's `sched(closure, after_mask, on_lane)` — and the
//! service places the whole DAG on one card with intermediates in refcounted
//! residency slots (see `scheduler::Residency`).
//!
//! Stages execute in submission (topological) order; the `after_mask` plus
//! the implicit operand edges form the dependency relation the executor
//! honours. Validation rejects DAGs the executor cannot run in place
//! (see [`validate_dag`]) with a stable reason string that travels the wire
//! as the `unsupported_stage` rejection code.

use crate::qos::TenantId;
use crate::request::Priority;
use bifft::plan::Algorithm;
use fft_math::rng::SplitMix64;
use fft_math::Complex32;

/// Hard cap on stages per pipeline (the `after_mask` is a `u32`).
pub const MAX_STAGES: usize = 32;
/// Hard cap on input volumes per pipeline.
pub const MAX_INPUTS: usize = 8;

/// Pointwise (elementwise) stage flavours.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PointwiseOp {
    /// `dst[i] = src[i] * src2[i] * scale`.
    Multiply,
    /// `dst[i] = src[i] * scale` (in place).
    Scale,
    /// `dst[i] = src[i] * conj(src2[i]) * scale` — the correlation core.
    ConjMultiply,
}

/// On-card reduction flavours — only the reduced scalar crosses the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReduceOp {
    /// Index and value of the largest `|v|²`.
    ArgMax,
    /// Total energy `Σ |v|²`.
    Energy,
}

/// What one pipeline stage computes (also the key of the service's
/// per-stage EWMA service-time estimate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// Forward five-step 3-D FFT (in place on the operand's slot).
    Forward,
    /// Inverse five-step 3-D FFT via the split-swapped chained plan
    /// (unnormalised; fold `1/N` into a preceding pointwise scale).
    Inverse,
    /// An elementwise stage.
    Pointwise(PointwiseOp),
    /// A terminal reduction; its value may not feed a later stage.
    Reduce(ReduceOp),
}

impl StageKind {
    /// Stable lowercase label — the wire encoding and estimator key.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Forward => "forward",
            StageKind::Inverse => "inverse",
            StageKind::Pointwise(PointwiseOp::Multiply) => "pointwise_mul",
            StageKind::Pointwise(PointwiseOp::Scale) => "pointwise_scale",
            StageKind::Pointwise(PointwiseOp::ConjMultiply) => "pointwise_conj_mul",
            StageKind::Reduce(ReduceOp::ArgMax) => "reduce_argmax",
            StageKind::Reduce(ReduceOp::Energy) => "reduce_energy",
        }
    }

    /// Parses a wire label back to the kind; `None` marks an unsupported
    /// stage kind (a *newer* client speaking to an older server).
    pub fn parse(s: &str) -> Option<StageKind> {
        Some(match s {
            "forward" => StageKind::Forward,
            "inverse" => StageKind::Inverse,
            "pointwise_mul" => StageKind::Pointwise(PointwiseOp::Multiply),
            "pointwise_scale" => StageKind::Pointwise(PointwiseOp::Scale),
            "pointwise_conj_mul" => StageKind::Pointwise(PointwiseOp::ConjMultiply),
            "reduce_argmax" => StageKind::Reduce(ReduceOp::ArgMax),
            "reduce_energy" => StageKind::Reduce(ReduceOp::Energy),
            _ => return None,
        })
    }

    /// Whether this kind rewrites its operand's buffer in place — such a
    /// stage must be its operand's sole consumer.
    pub fn in_place(self) -> bool {
        matches!(
            self,
            StageKind::Forward | StageKind::Inverse | StageKind::Pointwise(PointwiseOp::Scale)
        )
    }
}

/// A stage operand: one of the pipeline's input volumes, or the value an
/// earlier stage produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// The `i`-th input volume.
    Input(u8),
    /// The value produced by stage `i` (must be an earlier stage).
    Stage(u8),
}

impl Operand {
    /// Stable wire label (`"in0"`, `"s3"`).
    pub fn label(self) -> String {
        match self {
            Operand::Input(i) => format!("in{i}"),
            Operand::Stage(i) => format!("s{i}"),
        }
    }

    /// Parses a wire label back to the operand.
    pub fn parse(s: &str) -> Option<Operand> {
        if let Some(rest) = s.strip_prefix("in") {
            rest.parse::<u8>().ok().map(Operand::Input)
        } else if let Some(rest) = s.strip_prefix('s') {
            rest.parse::<u8>().ok().map(Operand::Stage)
        } else {
            None
        }
    }
}

/// One node of the DAG.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineStage {
    /// What to compute.
    pub kind: StageKind,
    /// Primary operand.
    pub src: Operand,
    /// Second operand (pointwise multiply flavours only).
    pub src2: Option<Operand>,
    /// Real scale folded into pointwise stages (e.g. the `1/N` inverse
    /// normalisation); ignored by FFT and reduce stages.
    pub scale: f32,
    /// Happens-after mask over *earlier* stages (bit `i` = stage `i`).
    /// Operand edges are implied and OR-ed in by the executor; this mask
    /// adds explicit ordering beyond data flow.
    pub after_mask: u32,
}

impl PipelineStage {
    /// A stage with no extra ordering constraints beyond its operands.
    pub fn new(kind: StageKind, src: Operand) -> Self {
        PipelineStage {
            kind,
            src,
            src2: None,
            scale: 1.0,
            after_mask: 0,
        }
    }

    /// Builder: second operand.
    pub fn src2(mut self, o: Operand) -> Self {
        self.src2 = Some(o);
        self
    }

    /// Builder: pointwise scale factor.
    pub fn scale(mut self, s: f32) -> Self {
        self.scale = s;
        self
    }

    /// Builder: explicit happens-after mask.
    pub fn after(mut self, mask: u32) -> Self {
        self.after_mask = mask;
        self
    }

    /// The dependency mask the executor honours: the explicit
    /// `after_mask` OR-ed with the implicit operand edges.
    pub fn effective_after(&self) -> u32 {
        let mut m = self.after_mask;
        for op in [Some(self.src), self.src2].into_iter().flatten() {
            if let Operand::Stage(i) = op {
                m |= 1 << i;
            }
        }
        m
    }
}

/// A full pipeline submission: the DAG plus its input volumes and the
/// usual admission metadata. The service treats the whole thing as one
/// schedulable unit (one queue entry, one QoS charge, one completion).
#[derive(Clone, Debug)]
pub struct PipelineRequest {
    /// Volume extents (every stage operates on this one grid).
    pub dims: (usize, usize, usize),
    /// Input volumes, natural order, each `nx*ny*nz` elements.
    pub inputs: Vec<Vec<Complex32>>,
    /// The stages, in topological (submission) order.
    pub stages: Vec<PipelineStage>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Latency budget in simulated seconds from arrival; admission costs
    /// the **whole DAG** against it.
    pub deadline_s: Option<f64>,
    /// The tenant billed for the whole pipeline.
    pub tenant: TenantId,
}

impl PipelineRequest {
    /// Volume in complex elements.
    pub fn elems(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Total work in stage-elements — the QoS/WFQ cost of the DAG.
    pub fn cost_elems(&self) -> usize {
        self.elems() * self.stages.len()
    }

    /// Human-readable label (`"pipe16x16x16s4"`).
    pub fn label(&self) -> String {
        let (nx, ny, nz) = self.dims;
        format!("pipe{nx}x{ny}x{nz}s{}", self.stages.len())
    }

    /// Structural validation; `Err` carries the stable reason detail.
    pub fn validate(&self) -> Result<(), String> {
        if self.inputs.len() > MAX_INPUTS {
            return Err(format!(
                "{} inputs exceeds cap {MAX_INPUTS}",
                self.inputs.len()
            ));
        }
        let elems = self.elems();
        for (i, v) in self.inputs.iter().enumerate() {
            if v.len() != elems {
                return Err(format!(
                    "input {i} has {} elems, volume is {elems}",
                    v.len()
                ));
            }
        }
        validate_dag(self.dims, self.inputs.len(), &self.stages)
    }
}

/// A [`PipelineRequest`] with the inputs still folded into their seeds —
/// the wire-transportable, replayable form (the pipeline analogue of
/// [`crate::request::SeededSpec`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SeededPipeline {
    /// Volume extents.
    pub dims: (usize, usize, usize),
    /// One seed per input volume ([`crate::request::RequestSpec::seeded`]'s
    /// generator reproduces the samples).
    pub input_seeds: Vec<u64>,
    /// The stages, in topological order.
    pub stages: Vec<PipelineStage>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Latency budget, simulated seconds from arrival.
    pub deadline_s: Option<f64>,
    /// The tenant billed.
    pub tenant: TenantId,
}

impl SeededPipeline {
    /// Human-readable label (`"pipe16x16x16s4"`) — matches
    /// [`PipelineRequest::label`] so telemetry reads the same either way.
    pub fn label(&self) -> String {
        let (nx, ny, nz) = self.dims;
        format!("pipe{nx}x{ny}x{nz}s{}", self.stages.len())
    }

    /// Structural validation of the template **before** any payload exists;
    /// `Err` carries the stable reason detail. Callers must validate before
    /// [`SeededPipeline::materialize`]: a hostile sub-KiB template can name
    /// dims/seed counts whose expansion would allocate gigabytes, and the
    /// envelope check here costs nothing.
    pub fn validate(&self) -> Result<(), String> {
        validate_dag(self.dims, self.input_seeds.len(), &self.stages)
    }

    /// Expands the template into a full [`PipelineRequest`] with payloads.
    pub fn materialize(&self) -> PipelineRequest {
        let elems = self.dims.0 * self.dims.1 * self.dims.2;
        let inputs = self
            .input_seeds
            .iter()
            .map(|&seed| {
                let mut rng = SplitMix64::new(seed);
                (0..elems)
                    .map(|_| Complex32::new(rng.uniform_f32(-1.0, 1.0), rng.uniform_f32(-1.0, 1.0)))
                    .collect()
            })
            .collect();
        PipelineRequest {
            dims: self.dims,
            inputs,
            stages: self.stages.clone(),
            priority: self.priority,
            deadline_s: self.deadline_s,
            tenant: self.tenant,
        }
    }
}

/// Validates the DAG structure shared by [`PipelineRequest`] and
/// [`SeededPipeline`]. The rules exist so the executor can run every stage
/// in place on residency slots with no hidden copies:
///
/// 1. 1..=[`MAX_STAGES`] stages; 1..=[`MAX_INPUTS`] inputs; dims inside
///    the envelope of the five-step plans the executor runs;
/// 2. operands reference existing inputs / *earlier* stages only, and the
///    `after_mask` names earlier stages only (the DAG arrives
///    topologically sorted);
/// 3. multiply flavours take exactly two operands, everything else one;
/// 4. in-place kinds (FFTs, scale) must be their operand's **sole**
///    consumer — they rewrite the slot;
/// 5. a reduce value never feeds a later stage, and every input and every
///    stage except the last is consumed by someone (no dead work);
/// 6. packed layouts must line up: every value is either *natural*-packed
///    (inputs, inverse outputs) or *spectrum*-packed (forward outputs) on
///    the card, a forward transform takes a natural operand, an inverse a
///    spectrum one, and a two-operand pointwise stage may not mix the two
///    — elementwise math across different packings is silently
///    meaningless, so it rejects here instead.
pub fn validate_dag(
    dims: (usize, usize, usize),
    n_inputs: usize,
    stages: &[PipelineStage],
) -> Result<(), String> {
    if stages.is_empty() || stages.len() > MAX_STAGES {
        return Err(format!("{} stages outside 1..={MAX_STAGES}", stages.len()));
    }
    if n_inputs == 0 || n_inputs > MAX_INPUTS {
        return Err(format!("{n_inputs} inputs outside 1..={MAX_INPUTS}"));
    }
    Algorithm::FiveStep
        .check_shape(dims.0, dims.1, dims.2)
        .map_err(|e| e.to_string())?;
    let check_operand = |idx: usize, op: Operand| -> Result<(), String> {
        match op {
            Operand::Input(i) => {
                if (i as usize) >= n_inputs {
                    return Err(format!("stage {idx} reads missing input {i}"));
                }
            }
            Operand::Stage(s) => {
                if (s as usize) >= idx {
                    return Err(format!("stage {idx} reads non-earlier stage {s}"));
                }
                if matches!(stages[s as usize].kind, StageKind::Reduce(_)) {
                    return Err(format!("stage {idx} reads reduce stage {s}"));
                }
            }
        }
        Ok(())
    };
    let mut consumers_in = vec![0u32; n_inputs];
    let mut consumers_st = vec![0u32; stages.len()];
    for (idx, st) in stages.iter().enumerate() {
        check_operand(idx, st.src)?;
        let two_operand = matches!(
            st.kind,
            StageKind::Pointwise(PointwiseOp::Multiply)
                | StageKind::Pointwise(PointwiseOp::ConjMultiply)
        );
        match (two_operand, st.src2) {
            (true, Some(op)) => check_operand(idx, op)?,
            (true, None) => {
                return Err(format!("stage {idx} ({}) needs src2", st.kind.label()));
            }
            (false, Some(_)) => {
                return Err(format!(
                    "stage {idx} ({}) takes one operand",
                    st.kind.label()
                ));
            }
            (false, None) => {}
        }
        if st.after_mask >> idx != 0 {
            return Err(format!("stage {idx} after_mask names non-earlier stages"));
        }
        for op in [Some(st.src), st.src2].into_iter().flatten() {
            match op {
                Operand::Input(i) => consumers_in[i as usize] += 1,
                Operand::Stage(s) => consumers_st[s as usize] += 1,
            }
        }
    }
    for (idx, st) in stages.iter().enumerate() {
        if st.kind.in_place() {
            let n = match st.src {
                Operand::Input(i) => consumers_in[i as usize],
                Operand::Stage(s) => consumers_st[s as usize],
            };
            if n != 1 {
                return Err(format!(
                    "in-place stage {idx} ({}) shares its operand with {} other reader(s)",
                    st.kind.label(),
                    n - 1
                ));
            }
        }
    }
    for (i, &n) in consumers_in.iter().enumerate() {
        if n == 0 {
            return Err(format!("input {i} is never read"));
        }
    }
    for (i, &n) in consumers_st.iter().enumerate().take(stages.len() - 1) {
        if n == 0 {
            return Err(format!("stage {i} value is never read"));
        }
    }
    // Layout audit (rule 6). `true` = the forward plan's spectrum/output
    // packing, `false` = the natural/input packing — the same flag the
    // executor tracks per residency slot.
    let mut spectrum = vec![false; stages.len()];
    for (idx, st) in stages.iter().enumerate() {
        let layout_of = |op: Operand| match op {
            Operand::Input(_) => false,
            Operand::Stage(s) => spectrum[s as usize],
        };
        let src_l = layout_of(st.src);
        spectrum[idx] = match st.kind {
            StageKind::Forward => {
                if src_l {
                    return Err(format!(
                        "stage {idx} forward-transforms a spectrum-layout value"
                    ));
                }
                true
            }
            StageKind::Inverse => {
                if !src_l {
                    return Err(format!(
                        "stage {idx} inverse-transforms a natural-layout value"
                    ));
                }
                false
            }
            StageKind::Pointwise(PointwiseOp::Multiply | PointwiseOp::ConjMultiply) => {
                let s2_l = layout_of(st.src2.expect("checked: multiply has src2"));
                if src_l != s2_l {
                    return Err(format!(
                        "stage {idx} ({}) mixes operand layouts (natural vs spectrum)",
                        st.kind.label()
                    ));
                }
                src_l
            }
            StageKind::Pointwise(PointwiseOp::Scale) | StageKind::Reduce(_) => src_l,
        };
    }
    Ok(())
}

/// Per-value consumer counts `(inputs, stages)` over a validated DAG —
/// what the executor refcounts residency slots with. The final stage gets
/// one extra implicit consumer: the result download.
pub fn consumer_counts(n_inputs: usize, stages: &[PipelineStage]) -> (Vec<u32>, Vec<u32>) {
    let mut inputs = vec![0u32; n_inputs];
    let mut values = vec![0u32; stages.len()];
    for st in stages {
        for op in [Some(st.src), st.src2].into_iter().flatten() {
            match op {
                Operand::Input(i) => inputs[i as usize] += 1,
                Operand::Stage(s) => values[s as usize] += 1,
            }
        }
    }
    if let Some(last) = values.last_mut() {
        *last += 1;
    }
    (inputs, values)
}

/// The canonical 4-stage convolution DAG over two inputs:
/// `IFFT(FFT(in0) · conj(FFT(in1)) / N)` — [`crate::request`]-level twin of
/// `apps::GpuCorrelator`. `scale` is the `1/N` normalisation.
pub fn convolution_stages(elems: usize) -> Vec<PipelineStage> {
    vec![
        PipelineStage::new(StageKind::Forward, Operand::Input(0)),
        PipelineStage::new(StageKind::Forward, Operand::Input(1)),
        PipelineStage::new(
            StageKind::Pointwise(PointwiseOp::ConjMultiply),
            Operand::Stage(0),
        )
        .src2(Operand::Stage(1))
        .scale(1.0 / elems as f32),
        PipelineStage::new(StageKind::Inverse, Operand::Stage(2)),
    ]
}

/// The docking-sweep DAG: a convolution whose surface reduces on the card
/// to an 8-byte argmax — only the best pose crosses the bus.
pub fn docking_stages(elems: usize) -> Vec<PipelineStage> {
    let mut v = convolution_stages(elems);
    v.push(PipelineStage::new(
        StageKind::Reduce(ReduceOp::ArgMax),
        Operand::Stage(3),
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::Estimator;

    fn conv_pipe() -> SeededPipeline {
        SeededPipeline {
            dims: (16, 16, 16),
            input_seeds: vec![1, 2],
            stages: convolution_stages(16 * 16 * 16),
            priority: Priority::Normal,
            deadline_s: None,
            tenant: TenantId::default(),
        }
    }

    #[test]
    fn labels_round_trip() {
        for kind in [
            StageKind::Forward,
            StageKind::Inverse,
            StageKind::Pointwise(PointwiseOp::Multiply),
            StageKind::Pointwise(PointwiseOp::Scale),
            StageKind::Pointwise(PointwiseOp::ConjMultiply),
            StageKind::Reduce(ReduceOp::ArgMax),
            StageKind::Reduce(ReduceOp::Energy),
        ] {
            assert_eq!(StageKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(StageKind::parse("reduce_min"), None);
        for op in [Operand::Input(3), Operand::Stage(17)] {
            assert_eq!(Operand::parse(&op.label()), Some(op));
        }
        assert_eq!(Operand::parse("x9"), None);
    }

    #[test]
    fn canonical_dags_validate() {
        let p = conv_pipe().materialize();
        assert_eq!(p.inputs.len(), 2);
        p.validate().expect("convolution DAG valid");
        assert!(validate_dag((16, 16, 16), 2, &docking_stages(4096)).is_ok());
        assert_eq!(p.label(), "pipe16x16x16s4");
        assert_eq!(p.cost_elems(), 4 * 4096);
    }

    #[test]
    fn materialize_is_deterministic() {
        let a = conv_pipe().materialize();
        let b = conv_pipe().materialize();
        assert_eq!(a.inputs, b.inputs);
        // Input seeds match the single-request seeded generator.
        let single = crate::request::RequestSpec::seeded(
            crate::request::Shape::Volume {
                nx: 16,
                ny: 16,
                nz: 16,
            },
            fft_math::twiddle::Direction::Forward,
            1,
        );
        assert_eq!(a.inputs[0], single.payload);
    }

    #[test]
    fn validation_rejects_bad_dags() {
        let dims = (16, 16, 16);
        // Forward reading a missing input.
        let st = vec![PipelineStage::new(StageKind::Forward, Operand::Input(2))];
        assert!(validate_dag(dims, 2, &st)
            .unwrap_err()
            .contains("missing input"));
        // Multiply without src2.
        let st = vec![
            PipelineStage::new(StageKind::Forward, Operand::Input(0)),
            PipelineStage::new(
                StageKind::Pointwise(PointwiseOp::Multiply),
                Operand::Stage(0),
            ),
        ];
        assert!(validate_dag(dims, 1, &st)
            .unwrap_err()
            .contains("needs src2"));
        // Forward-looking operand.
        let st = vec![PipelineStage::new(StageKind::Forward, Operand::Stage(0))];
        assert!(validate_dag(dims, 1, &st)
            .unwrap_err()
            .contains("non-earlier"));
        // Reduce feeding a later stage.
        let st = vec![
            PipelineStage::new(StageKind::Reduce(ReduceOp::Energy), Operand::Input(0)),
            PipelineStage::new(StageKind::Forward, Operand::Stage(0)),
        ];
        assert!(validate_dag(dims, 1, &st).unwrap_err().contains("reduce"));
        // In-place stage sharing its operand.
        let st = vec![
            PipelineStage::new(StageKind::Forward, Operand::Input(0)),
            PipelineStage::new(
                StageKind::Pointwise(PointwiseOp::Multiply),
                Operand::Input(0),
            )
            .src2(Operand::Stage(0)),
        ];
        assert!(validate_dag(dims, 1, &st).unwrap_err().contains("in-place"));
        // Dead input.
        let st = vec![PipelineStage::new(StageKind::Forward, Operand::Input(0))];
        assert!(validate_dag(dims, 2, &st)
            .unwrap_err()
            .contains("never read"));
        // Non-pow2 dims.
        let st = vec![PipelineStage::new(StageKind::Forward, Operand::Input(0))];
        assert!(validate_dag((17, 16, 16), 1, &st)
            .unwrap_err()
            .contains("power of two"));
        // Empty DAG.
        assert!(validate_dag(dims, 1, &[]).is_err());
    }

    #[test]
    fn validation_rejects_layout_mismatches() {
        let dims = (16, 16, 16);
        // Multiply of a natural-layout input against a forward (spectrum)
        // output: elementwise math across packings is meaningless.
        let st = vec![
            PipelineStage::new(StageKind::Forward, Operand::Input(0)),
            PipelineStage::new(
                StageKind::Pointwise(PointwiseOp::Multiply),
                Operand::Input(1),
            )
            .src2(Operand::Stage(0)),
        ];
        assert!(validate_dag(dims, 2, &st)
            .unwrap_err()
            .contains("mixes operand layouts"));
        // Inverse of a natural-layout input (the chained inverse plan
        // consumes the forward plan's output packing).
        let st = vec![PipelineStage::new(StageKind::Inverse, Operand::Input(0))];
        assert!(validate_dag(dims, 1, &st)
            .unwrap_err()
            .contains("inverse-transforms a natural-layout"));
        // Forward of a forward output.
        let st = vec![
            PipelineStage::new(StageKind::Forward, Operand::Input(0)),
            PipelineStage::new(StageKind::Forward, Operand::Stage(0)),
        ];
        assert!(validate_dag(dims, 1, &st)
            .unwrap_err()
            .contains("forward-transforms a spectrum-layout"));
        // Scale preserves its operand's layout: scaling a spectrum then
        // multiplying against another spectrum stays valid.
        let st = vec![
            PipelineStage::new(StageKind::Forward, Operand::Input(0)),
            PipelineStage::new(StageKind::Forward, Operand::Input(1)),
            PipelineStage::new(StageKind::Pointwise(PointwiseOp::Scale), Operand::Stage(0))
                .scale(0.5),
            PipelineStage::new(
                StageKind::Pointwise(PointwiseOp::Multiply),
                Operand::Stage(2),
            )
            .src2(Operand::Stage(1)),
            PipelineStage::new(StageKind::Inverse, Operand::Stage(3)),
        ];
        assert!(validate_dag(dims, 2, &st).is_ok());
    }

    #[test]
    fn seeded_templates_validate_before_any_payload_exists() {
        let good = conv_pipe();
        assert!(good.validate().is_ok());
        assert_eq!(good.label(), "pipe16x16x16s4");
        // A hostile template naming multi-gigabyte dims must bounce from
        // the seeds-only form — validation never materializes.
        let hostile = SeededPipeline {
            dims: (1 << 24, 1 << 24, 1 << 24),
            ..conv_pipe()
        };
        assert!(hostile.validate().unwrap_err().contains("power of two"));
        // Seed counts beyond MAX_INPUTS bounce the same way.
        let seedy = SeededPipeline {
            input_seeds: (0..=MAX_INPUTS as u64).collect(),
            ..conv_pipe()
        };
        assert!(seedy
            .validate()
            .unwrap_err()
            .contains(&format!("1..={MAX_INPUTS}")));
    }

    #[test]
    fn effective_after_folds_operand_edges() {
        let st = PipelineStage::new(
            StageKind::Pointwise(PointwiseOp::ConjMultiply),
            Operand::Stage(0),
        )
        .src2(Operand::Stage(1))
        .after(0b100);
        assert_eq!(st.effective_after(), 0b111);
    }

    #[test]
    fn consumer_counts_include_result_download() {
        let (ins, vals) = consumer_counts(2, &convolution_stages(4096));
        assert_eq!(ins, vec![1, 1]);
        // Stage 2 (the product) feeds the inverse; stage 3 is downloaded.
        assert_eq!(vals, vec![1, 1, 1, 1]);
    }

    #[test]
    fn estimator_costs_the_full_dag() {
        let est = Estimator::<StageKind>::new();
        let stages = convolution_stages(4096);
        let whole: f64 = stages.iter().map(|st| est.estimate_s(st.kind, 4096)).sum();
        let first = est.estimate_s(stages[0].kind, 4096);
        assert!(whole > 3.9 * first, "DAG cost {whole} vs one stage {first}");
    }

    #[test]
    fn estimator_learns_per_kind() {
        let mut est = Estimator::new();
        let before = est.estimate_s(StageKind::Forward, 4096);
        for _ in 0..20 {
            est.observe(StageKind::Forward, 4096, 1.0e-3);
        }
        let after = est.estimate_s(StageKind::Forward, 4096);
        assert!(after > before);
        // Other kinds untouched.
        assert_eq!(
            est.estimate_s(StageKind::Inverse, 4096),
            Estimator::new().estimate_s(StageKind::Inverse, 4096)
        );
    }
}
