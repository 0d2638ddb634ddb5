//! The cycle-level GANAX machine: executes 2-D layers on the decoupled
//! access-execute PE array and produces actual output feature maps.
//!
//! The machine is the functional-validation half of the reproduction: it drives
//! the `ganax-sim` PEs with real strided-index-generator configurations derived
//! from the reorganized dataflow, computes the layer's outputs, and is checked
//! against the `ganax-tensor` reference implementations. Whole-GAN performance
//! numbers come from the analytic [`GanaxModel`](crate::GanaxModel); the
//! machine is what justifies that model's per-pass assumptions.
//!
//! # Fast simulation path
//!
//! [`GanaxMachine::execute_layer`] runs a layer through three optimizations
//! that keep full-size Table I generator layers simulatable in seconds while
//! staying cycle- and counter-identical to the single-step reference:
//!
//! * **a per-layer plan** hoists everything that the seed implementation
//!   recomputed per work unit — consequential vertical taps per output row,
//!   consequential column runs per output column, and the (flipped, for
//!   transposed convolutions) weight rows — out of the inner loop, making the
//!   hot path allocation-free;
//! * **closed-form chunk retire** ([`ProcessingEngine::run_until_idle_burst`])
//!   settles a whole chunk × channel-group dispatch — hundreds of
//!   `repeat`+`mac` programs — in one call instead of one cycle at a time;
//!   a PE state outside that canonical shape is single-stepped;
//! * **a multi-threaded PE-array scheduler**
//!   ([`GanaxMachine::execute_layer_threaded`]) runs the layer once on a
//!   one-shot [`InferenceEngine`](crate::InferenceEngine), the serving hot
//!   path, which shards `(output channel, output row)` work units across its
//!   pool's worker PEs. Every work unit writes a disjoint output row and
//!   rows are dealt in wide slices striped over the plan's phase-major row
//!   order (the Figure 5 output-row reorganization), so the load balances
//!   across phases and outputs and counters are bit-identical for every
//!   thread count.
//!
//! [`GanaxMachine::execute_layer_reference`] preserves the seed
//! one-cycle-at-a-time serial path as the named oracle; property tests assert
//! the engine path matches it bit for bit.
//!
//! Scope: 2-D convolution and transposed-convolution layers (the volumetric
//! 3D-GAN layers exercise the same per-axis machinery through the performance
//! model; the fast path makes 2-D layers cheap, while volumetric layers add no
//! functional coverage).

use std::fmt;
use std::sync::Arc;

use ganax_dataflow::{LayerGeometry, OutputRowGroups};
use ganax_energy::EventCounts;
use ganax_isa::{AddrGenKind, ExecUop};
use ganax_models::{Layer, LayerOp};
use ganax_sim::{
    EmitFault, FaultInjector, GeneratorConfig, PeConfig, ProcessingEngine, WorkerFault,
};
use ganax_tensor::{ConvKind, ConvParams, Shape, Tensor, ZeroInsertion};

use crate::config::{ConfigError, GanaxConfig, IntegrityMode};
use crate::engine::InferenceEngine;

/// Errors produced by the cycle-level machine.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The machine's [`GanaxConfig`] failed validation.
    Config {
        /// The underlying typed validation error.
        error: ConfigError,
    },
    /// The layer kind is not supported by the cycle-level machine.
    Unsupported {
        /// Description of the unsupported feature.
        detail: String,
    },
    /// The provided tensors do not match the layer description.
    ShapeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// A PE failed to converge within the cycle budget.
    Timeout {
        /// The layer that timed out.
        layer: String,
    },
    /// The dispatcher overflowed a PE's µop FIFO.
    UopOverflow {
        /// The layer being dispatched.
        layer: String,
    },
    /// A worker PE panicked while executing a shard (an injected fault or a
    /// genuine bug); the shard's partial results were discarded.
    WorkerPanic {
        /// The layer whose shard was being executed.
        layer: String,
    },
    /// A layer produced a NaN or infinite output element — silent corruption
    /// (e.g. an injected operand bit flip) made detectable without goldens.
    NonFiniteOutput {
        /// The layer whose output is corrupt.
        layer: String,
        /// Flat index of the first non-finite element in the layer output.
        index: usize,
    },
    /// The engine's worker pool is unavailable (shut down or fully dead), so
    /// the shard could not be executed.
    PoolUnavailable {
        /// What the dispatcher observed.
        detail: String,
    },
    /// The ABFT checksum invariant `checksum(W)·checksum(x) ≈ checksum(y)`
    /// failed for one or more output-row slices and (under
    /// [`IntegrityMode::VerifyAndHeal`](crate::IntegrityMode::VerifyAndHeal))
    /// surgical re-execution could not repair them — the corruption is
    /// persistent, so a retry of the same request cannot succeed.
    IntegrityViolation {
        /// The layer whose checksums failed.
        layer: String,
        /// The offending output rows (sorted, deduplicated).
        rows: Vec<usize>,
    },
}

impl MachineError {
    /// Whether a retry of the same request can plausibly succeed: worker
    /// panics, non-finite outputs from transient corruption, PE timeouts and
    /// pool unavailability are transient (the serving layer retries them);
    /// configuration, support and shape errors are permanent. An
    /// [`MachineError::IntegrityViolation`] is also permanent: it only
    /// surfaces after verification already re-executed the offending shards
    /// in fresh fault epochs (or fail-fast verification was requested), so
    /// the corruption is persistent and the serve retry loop must not spin
    /// on it before the circuit breaker opens.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MachineError::WorkerPanic { .. }
                | MachineError::NonFiniteOutput { .. }
                | MachineError::Timeout { .. }
                | MachineError::PoolUnavailable { .. }
        )
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config { error } => write!(f, "invalid configuration: {error}"),
            MachineError::Unsupported { detail } => write!(f, "unsupported layer: {detail}"),
            MachineError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            MachineError::Timeout { layer } => write!(f, "layer `{layer}` did not converge"),
            MachineError::UopOverflow { layer } => {
                write!(f, "layer `{layer}` overflowed a PE µop FIFO")
            }
            MachineError::WorkerPanic { layer } => {
                write!(f, "a worker PE panicked while executing layer `{layer}`")
            }
            MachineError::NonFiniteOutput { layer, index } => write!(
                f,
                "layer `{layer}` produced a non-finite output at element {index}"
            ),
            MachineError::PoolUnavailable { detail } => {
                write!(f, "worker pool unavailable: {detail}")
            }
            MachineError::IntegrityViolation { layer, rows } => write!(
                f,
                "layer `{layer}` failed checksum verification on {} output row(s) {rows:?}",
                rows.len()
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// The result of executing a layer on the cycle-level machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRun {
    /// The computed output feature map (pre-activation).
    pub output: Tensor,
    /// Cycles in which PEs performed arithmetic (sums over all PEs).
    pub busy_pe_cycles: u64,
    /// Aggregated activity counts of every PE used.
    pub counts: EventCounts,
    /// Number of (output row, filter tap, channel) work units executed.
    pub work_units: u64,
}

/// The cycle-level GANAX machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanaxMachine {
    config: GanaxConfig,
}

/// Per-output-column addressing of one consequential compute node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnRun {
    /// First input column of the run.
    pub(crate) input_start: usize,
    /// First kernel column of the run.
    pub(crate) kernel_start: usize,
    /// Kernel-column stride between consecutive taps.
    pub(crate) kernel_step: usize,
    /// Number of consequential taps.
    pub(crate) taps: usize,
}

impl ColumnRun {
    /// The kernel offsets the run reads: `(taps, kernel_start, kernel_step)`.
    fn kernel_offsets(&self) -> (usize, usize, usize) {
        (self.taps, self.kernel_start, self.kernel_step)
    }
}

/// A run of same-phase consequential output columns that read the same
/// kernel offsets, dispatched to a PE as one program: gathered operand
/// streams, linear operand index generators, a strided output generator, and
/// one `repeat`+`mac` µop pair per column.
///
/// Phases are the paper's Figure 5 structure: transposed-convolution columns
/// with the same `ox mod stride` residue read the same consequential kernel
/// taps, so grouping by residue yields long equal-repeat runs where grouping
/// consecutive columns would alternate tap counts every column. Because every
/// column of a chunk shares `(taps, kernel_start, kernel_step)`, a channel's
/// weight stream is one `taps`-long kernel gather repeated `cols` times.
#[derive(Debug, Clone)]
pub(crate) struct ColumnChunk {
    /// First output column of the chunk.
    pub(crate) ox_start: usize,
    /// Distance between consecutive chunk columns (the phase stride).
    pub(crate) col_step: usize,
    /// Columns in the chunk.
    pub(crate) cols: usize,
    /// Consequential taps of every column in the chunk.
    pub(crate) taps: usize,
    /// First kernel column every column of the chunk reads.
    pub(crate) kernel_start: usize,
    /// Kernel-column stride between consecutive taps.
    pub(crate) kernel_step: usize,
}

/// Everything about a layer that the seed implementation recomputed per work
/// unit, hoisted out of the hot loop: consequential vertical taps per output
/// row, consequential column runs per output column (grouped into chunks that
/// share kernel offsets), and the kernel rows (spatially flipped for
/// transposed convolutions). Shared read-only by every worker PE.
pub(crate) struct LayerPlan {
    /// Per output row: the consequential `(ky, iy)` vertical taps.
    pub(crate) row_taps: Vec<Vec<(usize, usize)>>,
    /// Output rows in dispatch order: phase-major (from the Figure 5
    /// output-row reorganization) for transposed convolutions, natural order
    /// otherwise. Sharding round-robins over this order so every worker gets
    /// the same mix of shallow- and deep-phase rows.
    pub(crate) row_order: Vec<usize>,
    /// Per output column: the consequential column run, if any.
    pub(crate) column_runs: Vec<Option<ColumnRun>>,
    /// Consequential columns grouped into dispatchable chunks.
    pub(crate) chunks: Vec<ColumnChunk>,
    /// One copy of the layer's weights as the PEs read them
    /// ([`machine_weight`]: flipped for transposed convolutions), laid out
    /// `[ky][ci][co][kx]`; `co` is inner to `ci` so a channel group's rows
    /// are one contiguous slice. [`load_chunk_weights`] expands a group's
    /// `taps × cols` streams from it at load time, the way the paper's
    /// strided/repeat address generators walk a stream instead of
    /// materializing it.
    pub(crate) kernel_rows: Vec<f32>,
    /// ABFT weight checksums, laid out `[ky][ci][kx]`: per kernel tap, the
    /// f64 sum of its weight over every output channel (`co` ascending — the
    /// Huang–Abraham column sum). Dotting each column of a clean gathered
    /// input stream with the chunk's taps of this table predicts the sum of
    /// the work unit's contributions across all output channels.
    pub(crate) checksums: Vec<f64>,
    /// Companion magnitude table: the same layout, holding the sum of
    /// *absolute* weights over the output channels. Dotted with `|x|` this
    /// upper-bounds the total product magnitude feeding a row — the scale
    /// the verification tolerance is derived from (a cancellation-proof
    /// bound, unlike `|checksum|`).
    pub(crate) abs_checksums: Vec<f64>,
    /// Kernel height (rows per `(co, ci)` filter plane).
    pub(crate) kernel_h: usize,
    /// Kernel width (words per kernel row).
    pub(crate) kernel_w: usize,
    /// Input channels (stride of the `ky` index in the row layout).
    pub(crate) input_channels: usize,
    /// Output channels (stride of the `ci` index in the row layout).
    pub(crate) output_channels: usize,
}

impl LayerPlan {
    /// Groups same-phase consequential columns that read the same kernel
    /// offsets `(taps, kernel_start, kernel_step)` into chunks sized so one
    /// chunk's gathered operand streams fit the PE scratchpads and its µop
    /// pairs fit the µop FIFO. Walking each `ox mod stride` residue class
    /// separately keeps the offsets constant along a chunk (the phase
    /// structure of the reorganized dataflow), so a whole output row
    /// dispatches as a handful of chunks.
    fn build_chunks(
        column_runs: &[Option<ColumnRun>],
        params: &ConvParams,
        pe: &PeConfig,
    ) -> Vec<ColumnChunk> {
        let max_pairs = pe.uop_fifo_entries / 2;
        let col_step = match params.kind {
            ConvKind::Transposed => params.stride.2,
            ConvKind::Conventional => 1,
        };
        let mut chunks = Vec::new();
        for residue in 0..col_step {
            let mut ox = residue;
            while ox < column_runs.len() {
                let Some(run) = column_runs[ox] else {
                    ox += col_step;
                    continue;
                };
                let max_cols = max_pairs
                    .min(pe.input_words / run.taps)
                    .min(pe.weight_words / run.taps)
                    .max(1);
                let mut cols = 1;
                while cols < max_cols
                    && column_runs
                        .get(ox + cols * col_step)
                        .and_then(|r| r.as_ref())
                        .is_some_and(|r| r.kernel_offsets() == run.kernel_offsets())
                {
                    cols += 1;
                }
                chunks.push(ColumnChunk {
                    ox_start: ox,
                    col_step,
                    cols,
                    taps: run.taps,
                    kernel_start: run.kernel_start,
                    kernel_step: run.kernel_step,
                });
                ox += cols * col_step;
            }
        }
        chunks
    }

    fn build(layer: &Layer, params: &ConvParams, weights: &Tensor, pe: &PeConfig) -> Self {
        let geometry = LayerGeometry::for_layer(layer);
        let row_taps = (0..layer.output.height)
            .map(|oy| {
                let ky_taps: Vec<usize> = match &geometry.height_phases {
                    Some(phases) if layer.is_tconv() => phases.taps_at(oy),
                    _ => (0..params.kernel.1)
                        .filter(|ky| conv_input_row(oy, *ky, params, layer.input.height).is_some())
                        .collect(),
                };
                ky_taps
                    .into_iter()
                    .filter_map(|ky| {
                        input_row_for(oy, ky, params, layer.input.height).map(|iy| (ky, iy))
                    })
                    .collect()
            })
            .collect();
        let row_order: Vec<usize> = match &geometry.height_phases {
            Some(phases) if layer.is_tconv() => {
                OutputRowGroups::new(phases, layer.output.height).phase_major_rows()
            }
            _ => (0..layer.output.height).collect(),
        };
        let column_runs: Vec<Option<ColumnRun>> = (0..layer.output.width)
            .map(|ox| column_run(ox, params, layer.input.width))
            .collect();
        let chunks = Self::build_chunks(&column_runs, params, pe);

        let (kernel_h, kernel_w) = (params.kernel.1, params.kernel.2);
        let (co_count, ci_count) = (layer.output.channels, layer.input.channels);
        // Read each `(co, ci)` filter plane once, whole: for a fixed `ci`,
        // every `ky` then writes its own sequential run of rows.
        let mut kernel_rows = vec![0.0f32; kernel_h * ci_count * co_count * kernel_w];
        for (ci, co, ky) in (0..ci_count).flat_map(|ci| {
            (0..co_count).flat_map(move |co| (0..kernel_h).map(move |ky| (ci, co, ky)))
        }) {
            let row = ((ky * ci_count + ci) * co_count + co) * kernel_w;
            for (kx, w) in kernel_rows[row..row + kernel_w].iter_mut().enumerate() {
                *w = machine_weight(params, weights, co, ci, ky, kx);
            }
        }
        // The ABFT column-sum checksums (and the absolute-value companion
        // that scales the verification tolerance): cheap, and built
        // unconditionally so a plan is valid under every `IntegrityMode`.
        let mut checksums = vec![0.0f64; kernel_h * ci_count * kernel_w];
        let mut abs_checksums = checksums.clone();
        for ((group, sums), abs) in kernel_rows
            .chunks_exact(co_count * kernel_w)
            .zip(checksums.chunks_exact_mut(kernel_w))
            .zip(abs_checksums.chunks_exact_mut(kernel_w))
        {
            for row in group.chunks_exact(kernel_w) {
                for ((sum, abs), &w) in sums.iter_mut().zip(abs.iter_mut()).zip(row) {
                    *sum += f64::from(w);
                    *abs += f64::from(w).abs();
                }
            }
        }

        LayerPlan {
            row_taps,
            row_order,
            column_runs,
            chunks,
            kernel_rows,
            checksums,
            abs_checksums,
            kernel_h,
            kernel_w,
            input_channels: ci_count,
            output_channels: co_count,
        }
    }

    /// Heap bytes the plan holds (allocated capacity of every table).
    pub(crate) fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let row_taps: usize = self.row_taps.iter().map(bytes).sum();
        row_taps
            + bytes(&self.row_taps)
            + bytes(&self.row_order)
            + bytes(&self.column_runs)
            + bytes(&self.chunks)
            + bytes(&self.kernel_rows)
            + bytes(&self.checksums)
            + bytes(&self.abs_checksums)
    }
}

/// The ABFT checksum state of one output row, accumulated by the worker that
/// executed it and verified at retire time. Every field is accumulated in
/// `f64` in a fixed order that depends only on the layer plan — `ky`
/// ascending, then `ci`, then chunk, then stream element for the predictions;
/// channel-major row order for the observation — so the triple (and hence
/// the verdict) is bit-identical at every pool size and batch composition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RowChecksum {
    /// `checksum(W) · checksum(x)`: the f64 dot of every *clean* gathered
    /// input stream with the plan's column-sum weight checksums.
    pub(crate) predicted: f64,
    /// `|W|-checksum · |x|`: an upper bound on the total product magnitude
    /// feeding the row — the scale of legitimate f32 rounding noise.
    pub(crate) magnitude: f64,
    /// `checksum(y)`: the f64 sum of the row's produced f32 outputs over
    /// every output channel and column.
    pub(crate) observed: f64,
}

/// How many times `VerifyAndHeal` re-executes a layer's flagged rows (each
/// round in a fresh fault epoch) before a still-failing checksum surfaces as
/// [`MachineError::IntegrityViolation`]. Two rounds separate transient
/// corruption (healed by round one) from persistent faults (which reproduce
/// identically every epoch) without spinning.
pub(crate) const MAX_HEAL_ROUNDS: u32 = 2;

/// Safety factor of the verification tolerance: how many times the expected
/// rounding-residual scale (`√chain · ε · magnitude` — the random-walk
/// growth of f32 accumulation error over random operands) a checksum
/// residual may reach before it is called a violation. Tuned empirically:
/// clean full-size and reduced DCGAN/ArtGAN/MAGAN generators on continuous
/// deterministic operands peak at 1.6e-2 of the unit scale (long chains stay
/// under 1.2e-3), so 2.0 leaves ≥ 125× headroom against false positives — a
/// false positive would surface as a *persistent* violation on clean data —
/// while staying hundreds of times tighter than a worst-case-linear bound
/// (`chain · ε`), which would let most seeded bit flips escape.
const INTEGRITY_SAFETY: f64 = 2.0;

/// The deterministic, geometry-scaled tolerance a row's checksum residual is
/// compared against: proportional to the square root of the f32 accumulation
/// chain feeding the row's outputs and to the accumulated product magnitude.
/// A pure function of the plan and the (bit-identical) magnitude checksum,
/// so every pool size reaches the same verdict.
pub(crate) fn row_tolerance(plan: &LayerPlan, oy: usize, magnitude: f64) -> f64 {
    let max_taps = plan.chunks.iter().map(|c| c.taps).max().unwrap_or(0);
    let chain = plan.row_taps[oy].len() * plan.input_channels * max_taps + plan.output_channels;
    INTEGRITY_SAFETY * f64::from(f32::EPSILON) * (chain as f64).sqrt() * magnitude + 1e-30
}

/// Whether one row's checksum triple satisfies the ABFT invariant. A NaN
/// residual (poisoned output) fails the comparison and is flagged.
pub(crate) fn row_checksum_ok(plan: &LayerPlan, oy: usize, check: &RowChecksum) -> bool {
    let residual = (check.observed - check.predicted).abs();
    residual <= row_tolerance(plan, oy, check.magnitude)
}

/// Folds one *clean* (pre-corruption) gathered input stream into a row's
/// checksum accumulators: the predicted output checksum gains
/// `Σ checksum(W)[tap] · x[el]`, the magnitude bound gains
/// `Σ |W|-checksum[tap] · |x[el]|`, walking the stream's columns in order.
/// Must be called between gathering and fault corruption — corruption
/// applies to the stream the PEs actually consume, so checksumming afterwards
/// would make the prediction track the corruption instead of detecting it.
pub(crate) fn accumulate_input_checksum(
    plan: &LayerPlan,
    chunk_idx: usize,
    ky: usize,
    ci: usize,
    clean: &[f32],
    check: &mut RowChecksum,
) {
    let chunk = &plan.chunks[chunk_idx];
    let start = (ky * plan.input_channels + ci) * plan.kernel_w + chunk.kernel_start;
    let span = start..start + (chunk.taps - 1) * chunk.kernel_step + 1;
    let csum = &plan.checksums[span.clone()];
    let abs = &plan.abs_checksums[span];
    for column in clean.chunks_exact(chunk.taps) {
        let taps = csum.iter().zip(abs).step_by(chunk.kernel_step);
        for (&x, (&c, &a)) in column.iter().zip(taps) {
            let x = f64::from(x);
            check.predicted += c * x;
            check.magnitude += a * x.abs();
        }
    }
}

/// A validated layer together with its hoisted execution plan and the PE
/// sizing the plan was built for — what a compiled network caches per
/// PE-array layer.
pub(crate) struct PlannedLayer {
    /// The PE sizing that bounds the plan's chunks and streams.
    pub(crate) pe_config: PeConfig,
    /// The hoisted per-layer plan.
    pub(crate) plan: LayerPlan,
}

/// The fault coordinates one shard executes under: the injector realizing
/// the machine config's schedule plus the network-level layer index. `Copy`
/// (it carries a shared reference) so it moves freely into worker closures.
/// Every fault site is a function of the layer plan and the row alone, so a
/// schedule corrupts identically at every pool size.
#[derive(Clone, Copy)]
pub(crate) struct ShardFaults<'a> {
    /// The injector deciding every fault site.
    pub(crate) injector: &'a FaultInjector,
    /// The network-level layer index (the `layer` fault coordinate).
    pub(crate) layer_index: usize,
}

impl ShardFaults<'_> {
    /// Applies scheduled input-operand corruption to one gathered stream.
    /// `ordinal` is the chunk's base dispatch ordinal (see
    /// [`dispatch_ordinal_base`]); the stream is shared by every channel
    /// group of the chunk, so the site excludes the channel coordinate.
    pub(crate) fn corrupt_input_stream(&self, row: usize, ordinal: u64, buf: &mut [f32]) {
        if !self.injector.is_enabled() {
            return;
        }
        for (element, value) in buf.iter_mut().enumerate() {
            *value = self
                .injector
                .corrupt_input(self.layer_index, row, ordinal, element, *value);
        }
    }

    /// Applies scheduled weight corruption to one staged weight block.
    /// Weight sites carry no row coordinate — the same `(ky, ci, chunk,
    /// group)` stream serves many rows — so every load corrupts identically.
    fn corrupt_weight_block(&self, ordinal: u64, buf: &mut [f32]) {
        if !self.injector.is_enabled() {
            return;
        }
        for (element, value) in buf.iter_mut().enumerate() {
            *value = self
                .injector
                .corrupt_weight(self.layer_index, ordinal, element, *value);
        }
    }

    /// Decides whether the worker processing output row `row` is disturbed.
    /// The engine's pool workers turn a panic decision into a real panic, so
    /// supervision is exercised: the shard is requeued on a respawned worker,
    /// and a `persistent` panic that exhausts the attempt cap surfaces as
    /// [`MachineError::WorkerPanic`].
    pub(crate) fn worker_fault(&self, row: usize) -> Option<WorkerFault> {
        self.injector.worker_fault(self.layer_index, row)
    }

    /// Decides whether the emitted contribution of output channel `lane` is
    /// disturbed for the work unit at `ordinal`.
    pub(crate) fn emit_fault(&self, row: usize, ordinal: u64, lane: usize) -> Option<EmitFault> {
        self.injector
            .emit_fault(self.layer_index, row, ordinal, lane)
    }
}

/// The shard owning the output row at phase-major position `pos` in the
/// engine's persistent pool.
///
/// Rows are dealt in contiguous phase-major *blocks* of roughly
/// `height / (4 × shards)` rows, striped round-robin over the shards: each
/// worker still samples every region of the phase-major order (so the
/// shallow/deep phase mix stays balanced), but hands off work in wide slices
/// instead of row-by-row interleaving. Small heights degrade to the old
/// per-row round-robin (`block == 1`).
///
/// Row-to-shard assignment cannot affect results: each row's computation,
/// fault sites ([`dispatch_ordinal_base`] and the row coordinate) and counter
/// contributions are functions of the row alone, and the reduction sums
/// disjoint per-row terms in a fixed order.
pub(crate) fn shard_for_position(pos: usize, height: usize, shards: usize) -> usize {
    let block = height.div_ceil(shards * 4).max(1);
    (pos / block) % shards
}

/// The base dispatch ordinal of one `(ky, ci, chunk)` work unit — a pure
/// function of the layer plan, identical at every thread count and batch
/// composition (the property fault determinism rests on). Channel
/// groups within the chunk add their starting channel `co0`.
pub(crate) fn dispatch_ordinal_base(
    plan: &LayerPlan,
    layer: &Layer,
    ky: usize,
    ci: usize,
    chunk_idx: usize,
) -> u64 {
    let ci_count = layer.input.channels as u64;
    let co_count = layer.output.channels as u64;
    ((ky as u64 * ci_count + ci as u64) * plan.chunks.len() as u64 + chunk_idx as u64) * co_count
}

/// Cycle budget of one per-column `mac` run: a stall-free run retires in
/// `taps` (× the single generator repetition) cycles plus one dispatch cycle,
/// so anything beyond a small fixed slack means the PE wedged. Deriving the
/// budget from the work keeps huge layers from spuriously timing out and
/// makes genuinely wedged small runs fail fast.
fn column_cycle_budget(taps: usize) -> u64 {
    2 * taps as u64 + 16
}

/// Cycle budget of one chunk dispatch: the per-column budgets of every column
/// in the chunk.
fn chunk_cycle_budget(chunk: &ColumnChunk) -> u64 {
    column_cycle_budget(chunk.taps) * chunk.cols as u64
}

impl GanaxMachine {
    /// Creates a machine for a configuration.
    pub fn new(config: GanaxConfig) -> Self {
        GanaxMachine { config }
    }

    /// Creates a machine for the paper's configuration.
    pub fn paper() -> Self {
        Self::new(GanaxConfig::paper())
    }

    /// The configuration this machine executes under.
    pub fn config(&self) -> &GanaxConfig {
        &self.config
    }

    /// Overrides the ABFT computation-integrity policy in place, leaving the
    /// rest of the configuration (and everything derived from it except the
    /// fingerprint) untouched. Used by the serving layer to apply a
    /// [`ServeConfig`](crate::serve::ServeConfig) integrity override before
    /// any artifact is compiled.
    pub(crate) fn set_integrity(&mut self, integrity: IntegrityMode) {
        self.config.integrity = integrity;
    }

    /// Executes one 2-D convolution or transposed-convolution layer, returning
    /// the computed output and the activity counters.
    ///
    /// Uses the fast path (per-layer plan + closed-form chunk retire) on a worker
    /// count chosen from [`std::thread::available_parallelism`]; results are
    /// bit-identical to [`GanaxMachine::execute_layer_reference`] and to any
    /// other thread count.
    ///
    /// # Errors
    /// Returns [`MachineError::Unsupported`] for projections and volumetric
    /// layers, [`MachineError::ShapeMismatch`] when the tensors do not match
    /// the layer, and [`MachineError::Timeout`] if a PE fails to drain.
    pub fn execute_layer(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
    ) -> Result<MachineRun, MachineError> {
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // Shards are whole output rows (`oy` slices); threads only pay off
        // when each worker gets a meaningful number of them.
        let threads = available.min(layer.output.height / 4).max(1);
        self.execute_layer_threaded(layer, input, weights, threads)
    }

    /// Executes one layer on a one-shot [`InferenceEngine`] with `threads`
    /// pool workers (at most one per output row): the layer is planned, run
    /// once through the engine's hot path as network layer 0, and the pool is
    /// shut down.
    ///
    /// Work units are sharded by whole output rows (all output channels of
    /// a row) in wide slices striped over the plan's phase-major row order.
    /// Each work unit writes a disjoint output row and the per-worker `u64`
    /// counters are order-independent sums, so the output feature map, cycle
    /// counts and [`EventCounts`] are bit-identical for every `threads`
    /// value.
    ///
    /// Fault injection and integrity checking follow the engine: an injected
    /// one-shot worker panic is recovered by respawn and requeue, and a
    /// persistent one surfaces as [`MachineError::WorkerPanic`].
    ///
    /// # Errors
    /// As [`GanaxMachine::execute_layer`].
    pub fn execute_layer_threaded(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
        threads: usize,
    ) -> Result<MachineRun, MachineError> {
        let planned = Arc::new(self.plan_layer(layer, weights)?);
        let threads = threads.clamp(1, layer.output.height.max(1));
        let engine = InferenceEngine::new(*self, threads);
        let inputs = Arc::new(vec![Arc::new(input.clone())]);
        let run = engine.run_layer(&Arc::new(layer.clone()), &planned, 0, inputs)?;
        let output = run
            .outputs
            .into_iter()
            .next()
            .expect("a one-element layer run yields one output");
        Ok(MachineRun {
            output,
            busy_pe_cycles: run.busy_pe_cycles,
            counts: run.counts,
            work_units: run.work_units,
        })
    }

    /// Validates a layer and builds everything the hot path needs to execute
    /// it: the hoisted [`LayerPlan`] and the PE sizing the plan was built for.
    ///
    /// Planning is the expensive per-layer prologue (tap analysis, chunking,
    /// kernel-row flipping, checksum tables); a
    /// [`CompiledNetwork`](crate::CompiledNetwork) pays it once per layer and
    /// reuses the plan for every request.
    pub(crate) fn plan_layer(
        &self,
        layer: &Layer,
        weights: &Tensor,
    ) -> Result<PlannedLayer, MachineError> {
        self.config
            .validate()
            .map_err(|error| MachineError::Config { error })?;
        let params = self.validate_weights(layer, weights)?;
        // One PE sizing governs both the plan (chunk/stream limits) and the
        // worker PEs, so chunks can never outgrow the engines executing them.
        // The sizing comes from the config (`GanaxConfig::sim_pe`; the
        // deep simulation default unless overridden).
        let pe_config = self.config.sim_pe;
        let plan = LayerPlan::build(layer, &params, weights, &pe_config);
        Ok(PlannedLayer { pe_config, plan })
    }

    /// Executes one layer on the seed one-cycle-at-a-time serial path: one PE,
    /// [`ProcessingEngine::run_until_idle`] (no closed-form retire), and per-work-unit
    /// row/weight gathering. Kept as the named oracle the engine path is
    /// property-tested against — and benchmarked against in
    /// `BENCH_machine.json`.
    ///
    /// # Errors
    /// As [`GanaxMachine::execute_layer`].
    pub fn execute_layer_reference(
        &self,
        layer: &Layer,
        input: &Tensor,
        weights: &Tensor,
    ) -> Result<MachineRun, MachineError> {
        self.config
            .validate()
            .map_err(|error| MachineError::Config { error })?;
        let params = self.validate_weights(layer, weights)?;
        check_input(layer, input)?;
        let geometry = LayerGeometry::for_layer(layer);
        let mut output = Tensor::zeros(layer.output);
        let mut counts = EventCounts::default();
        let mut busy = 0u64;
        let mut work_units = 0u64;

        // One PE is reused per work unit; the mapping of units to physical PEs
        // round-robins across the array, which only matters for the activity
        // counters (each unit's traffic is identical wherever it runs).
        let mut pe = ProcessingEngine::new(self.config.sim_pe);

        for co in 0..layer.output.channels {
            for oy in 0..layer.output.height {
                // Consequential vertical taps for this output row.
                let ky_taps: Vec<usize> = match &geometry.height_phases {
                    Some(phases) if layer.is_tconv() => phases.taps_at(oy),
                    _ => (0..params.kernel.1)
                        .filter(|ky| conv_input_row(oy, *ky, &params, layer.input.height).is_some())
                        .collect(),
                };
                for &ky in &ky_taps {
                    let Some(iy) = input_row_for(oy, ky, &params, layer.input.height) else {
                        continue;
                    };
                    for ci in 0..layer.input.channels {
                        work_units += 1;
                        let row: Vec<f32> = (0..layer.input.width)
                            .map(|ix| input.at(ci, 0, iy, ix))
                            .collect();
                        let weight_row: Vec<f32> = (0..params.kernel.2)
                            .map(|kx| machine_weight(&params, weights, co, ci, ky, kx))
                            .collect();
                        let (unit_busy, unit_counts) = run_unit_single_step(
                            &mut pe,
                            &row,
                            &weight_row,
                            &params,
                            layer,
                            |ox, value| {
                                output.add_at(co, 0, oy, ox, value);
                            },
                        )?;
                        busy += unit_busy;
                        counts += unit_counts;
                        counts.inter_pe_transfers += layer.output.width as u64;
                    }
                }
            }
        }

        Ok(MachineRun {
            output,
            busy_pe_cycles: busy,
            counts,
            work_units,
        })
    }

    /// Checks layer support and the weight tensor's shape (everything the
    /// planning stage needs — the input tensor is checked at execution time).
    fn validate_weights(
        &self,
        layer: &Layer,
        weights: &Tensor,
    ) -> Result<ConvParams, MachineError> {
        let params = match &layer.op {
            LayerOp::Conv(p) | LayerOp::TConv(p) => *p,
            LayerOp::Projection => {
                return Err(MachineError::Unsupported {
                    detail: "projection layers are executed by the host, not the PE array".into(),
                })
            }
        };
        if layer.input.depth != 1 {
            return Err(MachineError::Unsupported {
                detail: "the cycle-level machine covers 2-D layers".into(),
            });
        }
        let expected_weights = Shape::filter(
            layer.output.channels,
            layer.input.channels,
            params.kernel.0,
            params.kernel.1,
            params.kernel.2,
        );
        if weights.shape() != expected_weights {
            return Err(MachineError::ShapeMismatch {
                detail: format!(
                    "weights {} != expected {}",
                    weights.shape(),
                    expected_weights
                ),
            });
        }
        Ok(params)
    }
}

/// Checks the input tensor matches the layer.
fn check_input(layer: &Layer, input: &Tensor) -> Result<(), MachineError> {
    if input.shape() != layer.input {
        return Err(MachineError::ShapeMismatch {
            detail: format!("input {} != layer input {}", input.shape(), layer.input),
        });
    }
    Ok(())
}

/// The largest output-channel group one dispatch of `chunk` can carry: its
/// µop pairs must fit the µop FIFO, its concatenated weight streams the
/// weight scratchpad, and its output words the output scratchpad.
pub(crate) fn chunk_group_max(pe_config: &PeConfig, chunk: &ColumnChunk, stream: usize) -> usize {
    (pe_config.uop_fifo_entries / 2 / chunk.cols)
        .min(pe_config.weight_words / stream)
        .min(pe_config.output_words / chunk.cols)
        .max(1)
}

/// Gathers one input row's operand stream for `chunk` into `dst`
/// (`taps × cols` words, one contiguous column run after another).
pub(crate) fn gather_chunk_input(
    plan: &LayerPlan,
    chunk: &ColumnChunk,
    input_row: &[f32],
    dst: &mut [f32],
) {
    let mut i = 0;
    for c in 0..chunk.cols {
        let run = plan.column_runs[chunk.ox_start + c * chunk.col_step]
            .as_ref()
            .expect("chunks cover consequential columns");
        dst[i..i + chunk.taps]
            .copy_from_slice(&input_row[run.input_start..run.input_start + chunk.taps]);
        i += chunk.taps;
    }
}

/// Stages the weight streams of one `(chunk, ci, ky, channel group)` into the
/// weight scratchpad, returning the words loaded (bulk loads are excluded
/// from the reported counts by the callers). `ordinal` is the group's
/// dispatch ordinal ([`dispatch_ordinal_base`]` + co0`), the coordinate of
/// any scheduled weight corruption.
///
/// The plan keeps one compact kernel row per `(ky, ci, co)`
/// ([`LayerPlan::kernel_rows`]); the load gathers each channel's `taps`
/// values at the chunk's shared kernel offsets and writes `cols` copies, so
/// the scratchpad holds exactly the `taps × cols` stream a per-column gather
/// would produce. Scheduled corruption applies to the PE-local buffer
/// *after* the expansion — the shared plan is never mutated — and weight
/// fault sites carry no row coordinate, so every load of the same
/// `(ky, ci, chunk, group)` corrupts identically.
#[allow(clippy::too_many_arguments)]
pub(crate) fn load_chunk_weights(
    pe: &mut ProcessingEngine,
    plan: &LayerPlan,
    chunk_idx: usize,
    group: usize,
    co0: usize,
    ci: usize,
    ky: usize,
    faults: ShardFaults<'_>,
    ordinal: u64,
) -> u64 {
    let chunk = &plan.chunks[chunk_idx];
    let kernel_w = plan.kernel_w;
    let first = ((ky * plan.input_channels + ci) * plan.output_channels + co0) * kernel_w;
    let rows = &plan.kernel_rows[first..first + group * kernel_w];
    let words = group * chunk.taps * chunk.cols;
    pe.load_weights_with(words, |buf| {
        // One monomorphized expansion per common tap count: copying a
        // register-held `[f32; T]` per column beats a loop of
        // variable-length `copy_from_slice` calls.
        match chunk.taps {
            1 => expand_rows::<1>(rows, kernel_w, chunk, buf),
            2 => expand_rows::<2>(rows, kernel_w, chunk, buf),
            3 => expand_rows::<3>(rows, kernel_w, chunk, buf),
            4 => expand_rows::<4>(rows, kernel_w, chunk, buf),
            5 => expand_rows::<5>(rows, kernel_w, chunk, buf),
            _ => expand_rows::<0>(rows, kernel_w, chunk, buf),
        }
        faults.corrupt_weight_block(ordinal, buf);
    });
    words as u64
}

/// Expands `kernel_w`-wide kernel rows into `taps × cols` weight streams, one
/// per row: the taps at the chunk's kernel offsets, repeated per column. `T`
/// is the tap count when known at compile time, or 0 for any tap count.
fn expand_rows<const T: usize>(
    rows: &[f32],
    kernel_w: usize,
    chunk: &ColumnChunk,
    dst: &mut [f32],
) {
    let taps = if T == 0 { chunk.taps } else { T };
    for (row, stream) in rows
        .chunks_exact(kernel_w)
        .zip(dst.chunks_exact_mut(taps * chunk.cols))
    {
        let tap = |j: usize| row[chunk.kernel_start + j * chunk.kernel_step];
        if T == 0 {
            let (first, rest) = stream.split_at_mut(taps);
            first.iter_mut().enumerate().for_each(|(j, w)| *w = tap(j));
            rest.chunks_exact_mut(taps)
                .for_each(|column| column.copy_from_slice(first));
        } else {
            stream.as_chunks_mut::<T>().0.fill(std::array::from_fn(tap));
        }
    }
}

/// Dispatches one chunk × channel-group program against the input stream
/// resident at `input_base`, retires it in closed form through
/// [`ProcessingEngine::run_until_idle_burst`] (every dispatch has the
/// canonical uniform shape, so no cycle is single-stepped), and returns the
/// `group × cols` words it produced, channel-major: word `k * cols + c`
/// belongs to channel `k` of the group and output column
/// `ox_start + c * col_step`. Handing back the whole slice lets the caller
/// scatter a group in one pass instead of one call per channel.
///
/// # Errors
/// [`MachineError::Timeout`] when the PE fails to drain within the chunk's
/// work-derived budget, and [`MachineError::UopOverflow`] from the dispatch.
pub(crate) fn retire_chunk_group<'pe>(
    pe: &'pe mut ProcessingEngine,
    chunk: &ColumnChunk,
    stream: usize,
    group: usize,
    input_base: usize,
    layer: &Layer,
) -> Result<&'pe [f32], MachineError> {
    dispatch_group(pe, chunk, stream, group, input_base, layer)?;
    pe.run_until_idle_burst(chunk_cycle_budget(chunk) * group as u64);
    if !pe.is_idle() {
        return Err(MachineError::Timeout {
            layer: layer.name.clone(),
        });
    }
    Ok(&pe.output_contents()[..group * chunk.cols])
}

/// Configures the index generators for one chunk × channel-group dispatch
/// and enqueues its µop pairs: the input generator replays the shared stream
/// once per channel, the weight generator walks the concatenated per-channel
/// streams, and the output generator hands each program its own word. The
/// pairs are pushed virtually ([`ProcessingEngine::try_push_mac_pairs`]), so
/// the µop FIFO records a count instead of materializing `2 × cols × group`
/// entries and the PE retires the whole dispatch in closed form.
///
/// `input_base` selects which resident input stream the dispatch reads: the
/// input generator walks `[input_base, input_base + stream)` through its
/// constant-offset register. The inference engine stages a whole block of
/// rows' streams and addresses one per dispatch.
fn dispatch_group(
    pe: &mut ProcessingEngine,
    chunk: &ColumnChunk,
    stream: usize,
    group: usize,
    input_base: usize,
    layer: &Layer,
) -> Result<(), MachineError> {
    pe.configure_generator(
        AddrGenKind::Input,
        GeneratorConfig {
            addr: 0,
            offset: input_base as u16,
            step: 1,
            end: stream as u16,
            repeat: group as u16,
        },
    );
    pe.configure_generator(
        AddrGenKind::Weight,
        GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 1,
            end: (group * stream) as u16,
            repeat: 1,
        },
    );
    pe.configure_generator(
        AddrGenKind::Output,
        GeneratorConfig {
            addr: 0,
            offset: 0,
            step: 1,
            end: (group * chunk.cols) as u16,
            repeat: 1,
        },
    );
    pe.start_all();
    pe.set_repeat(chunk.taps as u16);
    pe.try_push_mac_pairs(chunk.cols * group)
        .map_err(|_| MachineError::UopOverflow {
            layer: layer.name.clone(),
        })
}

/// The seed single-step work-unit body, preserved as the reference
/// implementation (and the benchmark baseline).
fn run_unit_single_step(
    pe: &mut ProcessingEngine,
    input_row: &[f32],
    weight_row: &[f32],
    params: &ConvParams,
    layer: &Layer,
    mut emit: impl FnMut(usize, f32),
) -> Result<(u64, EventCounts), MachineError> {
    pe.load_input(input_row);
    pe.load_weights(weight_row);
    pe.clear_output();
    let before = pe.counts();
    let busy_before = pe.busy_cycles();
    let output_words = pe.config().output_words;

    for ox in 0..layer.output.width {
        let Some(run) = column_run(ox, params, layer.input.width) else {
            continue;
        };
        dispatch_column(pe, &run, ox, output_words, layer)?;
        pe.run_until_idle(column_cycle_budget(run.taps));
        if !pe.is_idle() {
            return Err(MachineError::Timeout {
                layer: layer.name.clone(),
            });
        }
        emit(ox, pe.read_output((ox % output_words) as u16));
    }

    Ok((pe.busy_cycles() - busy_before, pe.counts() - before))
}

/// Configures the three index generators for one column run and enqueues its
/// `repeat`+`mac` program through the fallible µop push.
fn dispatch_column(
    pe: &mut ProcessingEngine,
    run: &ColumnRun,
    ox: usize,
    output_words: usize,
    layer: &Layer,
) -> Result<(), MachineError> {
    pe.configure_generator(
        AddrGenKind::Input,
        GeneratorConfig {
            addr: run.input_start as u16,
            offset: 0,
            step: 1,
            end: (run.input_start + run.taps) as u16,
            repeat: 1,
        },
    );
    pe.configure_generator(
        AddrGenKind::Weight,
        GeneratorConfig {
            addr: run.kernel_start as u16,
            offset: 0,
            step: run.kernel_step as u16,
            end: (run.kernel_start + (run.taps - 1) * run.kernel_step + 1) as u16,
            repeat: 1,
        },
    );
    pe.configure_generator(
        AddrGenKind::Output,
        GeneratorConfig {
            addr: (ox % output_words) as u16,
            offset: 0,
            step: 1,
            end: (ox % output_words + 1) as u16,
            repeat: 1,
        },
    );
    pe.start_all();
    pe.set_repeat(run.taps as u16);
    for uop in [ExecUop::Repeat, ExecUop::Mac] {
        pe.try_push_uop(uop)
            .map_err(|_| MachineError::UopOverflow {
                layer: layer.name.clone(),
            })?;
    }
    Ok(())
}

impl Default for GanaxMachine {
    fn default() -> Self {
        Self::paper()
    }
}

/// The weight the machine multiplies at kernel tap `(ky, kx)` of filter
/// `(co, ci)`. The machine gathers over the zero-inserted domain, so for
/// transposed convolutions the kernel is spatially flipped (the classical
/// adjoint relationship — see `ganax_tensor::tconv_via_zero_insertion`).
fn machine_weight(
    params: &ConvParams,
    weights: &Tensor,
    co: usize,
    ci: usize,
    ky: usize,
    kx: usize,
) -> f32 {
    match params.kind {
        ConvKind::Transposed => weights.at_filter(
            co,
            ci,
            0,
            params.kernel.1 - 1 - ky,
            params.kernel.2 - 1 - kx,
        ),
        ConvKind::Conventional => weights.at_filter(co, ci, 0, ky, kx),
    }
}

/// The original input row a (output row, vertical kernel tap) pair reads, or
/// `None` if the tap falls on padding / an inserted zero row.
fn input_row_for(oy: usize, ky: usize, params: &ConvParams, input_height: usize) -> Option<usize> {
    match params.kind {
        ConvKind::Transposed => {
            let ins = ZeroInsertion::from_params(params);
            ins.source(1, oy + ky, input_height)
        }
        ConvKind::Conventional => conv_input_row(oy, ky, params, input_height),
    }
}

/// Input row of a conventional convolution tap, or `None` when it lands in the
/// padding.
fn conv_input_row(oy: usize, ky: usize, params: &ConvParams, input_height: usize) -> Option<usize> {
    let pos = (oy * params.stride.1 + ky) as isize - params.padding.1 as isize;
    if pos >= 0 && (pos as usize) < input_height {
        Some(pos as usize)
    } else {
        None
    }
}

/// The consequential column taps of one output column: which input columns and
/// kernel columns participate, and with which kernel stride. Both kinds read
/// the padded (and, for transposed convolutions, zero-inserted) input row:
/// conventional columns stride over it, while a transposed column meets an
/// original element every `stride` kernel columns.
fn column_run(ox: usize, params: &ConvParams, input_width: usize) -> Option<ColumnRun> {
    let (ox_stride, kernel_step) = match params.kind {
        ConvKind::Transposed => (1, params.stride.2),
        ConvKind::Conventional => (params.stride.2, 1),
    };
    let ins = ZeroInsertion::from_params(params);
    let mut taps = (0..params.kernel.2).filter_map(|kx| {
        ins.source(2, ox * ox_stride + kx, input_width)
            .map(|ix| (ix, kx))
    });
    let (input_start, kernel_start) = taps.next()?;
    Some(ColumnRun {
        input_start,
        kernel_start,
        kernel_step,
        taps: 1 + taps.count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganax_models::Activation;
    use ganax_tensor::{conv, tconv};
    use proptest::prelude::*;

    fn random_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 / 1000.0) - 1.0
        };
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            *v = next();
        }
        t
    }

    fn layer_tensors(layer: &Layer, seed: u64) -> (Tensor, Tensor) {
        let params = layer.op.conv_params().unwrap();
        let input = random_tensor(layer.input, seed);
        let weights = random_tensor(
            Shape::filter(
                layer.output.channels,
                layer.input.channels,
                params.kernel.0,
                params.kernel.1,
                params.kernel.2,
            ),
            seed + 1,
        );
        (input, weights)
    }

    fn check_layer(layer: Layer, seed: u64) {
        let (input, weights) = layer_tensors(&layer, seed);
        let reference = if layer.is_tconv() {
            tconv(&input, &weights, &layer.op.conv_params().unwrap()).unwrap()
        } else {
            conv(&input, &weights, &layer.op.conv_params().unwrap()).unwrap()
        };
        let run = GanaxMachine::paper()
            .execute_layer(&layer, &input, &weights)
            .unwrap();
        assert!(
            run.output.approx_eq(&reference, 1e-3),
            "machine output diverges from reference for {} (max diff {})",
            layer.name,
            run.output.max_abs_diff(&reference).unwrap()
        );
        assert!(run.busy_pe_cycles > 0);
        assert_eq!(run.counts.alu_ops, run.busy_pe_cycles);

        // The fast path must agree bit for bit with the seed single-step
        // serial path, and with every thread count.
        let machine = GanaxMachine::paper();
        let single_step = machine
            .execute_layer_reference(&layer, &input, &weights)
            .unwrap();
        assert_eq!(run, single_step, "fast path diverged from reference");
        for threads in [2, 3, 8] {
            let threaded = machine
                .execute_layer_threaded(&layer, &input, &weights, threads)
                .unwrap();
            assert_eq!(run, threaded, "{threads}-thread run diverged");
        }
    }

    #[test]
    fn matches_reference_on_paper_example_geometry() {
        let layer = Layer::conv(
            "paper-example",
            Shape::new_2d(1, 4, 4),
            1,
            ConvParams::transposed_2d(5, 2, 2),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 11);
    }

    #[test]
    fn matches_reference_on_multichannel_tconv() {
        let layer = Layer::conv(
            "tconv-multi",
            Shape::new_2d(3, 5, 5),
            2,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 23);
    }

    #[test]
    fn matches_reference_on_stride1_tconv() {
        let layer = Layer::conv(
            "tconv-refine",
            Shape::new_2d(2, 6, 6),
            2,
            ConvParams::transposed_2d(3, 1, 1),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 37);
    }

    #[test]
    fn matches_reference_on_conventional_convolution() {
        let layer = Layer::conv(
            "conv",
            Shape::new_2d(2, 8, 8),
            3,
            ConvParams::conv_2d(3, 2, 1),
            Activation::None,
        )
        .unwrap();
        check_layer(layer, 41);
    }

    #[test]
    fn machine_performs_only_consequential_macs() {
        let layer = Layer::conv(
            "tconv-count",
            Shape::new_2d(1, 4, 4),
            1,
            ConvParams::transposed_2d(5, 2, 2),
            Activation::None,
        )
        .unwrap();
        let params = layer.op.conv_params().unwrap();
        let input = random_tensor(layer.input, 5);
        let weights = random_tensor(Shape::filter(1, 1, 1, 5, 5), 6);
        let run = GanaxMachine::paper()
            .execute_layer(&layer, &input, &weights)
            .unwrap();
        let consequential = params.consequential_macs(layer.input, 1).unwrap();
        assert_eq!(run.counts.alu_ops, consequential);
        assert!(run.counts.alu_ops < layer.dense_macs());
    }

    #[test]
    fn rejects_projection_and_volumetric_layers() {
        let machine = GanaxMachine::paper();
        let projection = Layer::projection(
            "proj",
            Shape::new_2d(10, 1, 1),
            Shape::new_2d(4, 2, 2),
            Activation::None,
        );
        let input = Tensor::zeros(projection.input);
        let weights = Tensor::zeros(Shape::filter(4, 10, 1, 1, 1));
        assert!(matches!(
            machine.execute_layer(&projection, &input, &weights),
            Err(MachineError::Unsupported { .. })
        ));

        let volumetric = Layer::conv(
            "tconv3d",
            Shape::new(2, 2, 2, 2),
            1,
            ConvParams::transposed_3d(4, 2, 1),
            Activation::None,
        )
        .unwrap();
        let input = Tensor::zeros(volumetric.input);
        let weights = Tensor::zeros(Shape::filter(1, 2, 4, 4, 4));
        assert!(matches!(
            machine.execute_layer(&volumetric, &input, &weights),
            Err(MachineError::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_mismatched_tensors() {
        let layer = Layer::conv(
            "tconv",
            Shape::new_2d(1, 4, 4),
            1,
            ConvParams::transposed_2d(5, 2, 2),
            Activation::None,
        )
        .unwrap();
        let machine = GanaxMachine::paper();
        let bad_input = Tensor::zeros(Shape::new_2d(1, 5, 5));
        let weights = Tensor::zeros(Shape::filter(1, 1, 1, 5, 5));
        assert!(matches!(
            machine.execute_layer(&layer, &bad_input, &weights),
            Err(MachineError::ShapeMismatch { .. })
        ));
        let input = Tensor::zeros(Shape::new_2d(1, 4, 4));
        let bad_weights = Tensor::zeros(Shape::filter(1, 1, 1, 3, 3));
        assert!(matches!(
            machine.execute_layer(&layer, &input, &bad_weights),
            Err(MachineError::ShapeMismatch { .. })
        ));
    }

    /// An injected worker panic runs through the one-shot engine's pool
    /// supervision at every thread count: a one-shot panic is requeued on a
    /// respawned worker and recovers bit-identically, while a persistent one
    /// exhausts the attempt cap and surfaces as a typed `WorkerPanic`.
    #[test]
    fn worker_panics_recover_or_surface_typed_on_the_per_layer_api() {
        let layer = Layer::conv(
            "tconv-panic",
            Shape::new_2d(3, 5, 5),
            2,
            ConvParams::transposed_2d(4, 2, 1),
            Activation::None,
        )
        .unwrap();
        let (input, weights) = layer_tensors(&layer, 29);
        let clean = GanaxMachine::paper()
            .execute_layer_threaded(&layer, &input, &weights, 1)
            .unwrap();
        let panicking = |persistent| {
            let spec = ganax_sim::FaultSpec {
                layer: 0,
                row: 2,
                persistent,
                ..ganax_sim::FaultSpec::seeded(11, 1_000_000, ganax_sim::FaultKind::WORKER_PANIC)
            };
            GanaxMachine::new(GanaxConfig::paper().with_fault(spec).unwrap())
        };
        for threads in [1, 2] {
            let recovered = panicking(false)
                .execute_layer_threaded(&layer, &input, &weights, threads)
                .unwrap();
            assert_eq!(recovered, clean, "{threads}-thread recovered run");
            let hard = panicking(true).execute_layer_threaded(&layer, &input, &weights, threads);
            assert!(
                matches!(hard, Err(MachineError::WorkerPanic { ref layer }) if layer == "tconv-panic"),
                "{threads}-thread persistent panic: {hard:?}"
            );
        }
    }

    /// Every chunk of every zoo layer (generators and discriminators, 3D-GAN
    /// at its 2-D cross-section) reads one set of kernel offsets, and
    /// `load_chunk_weights` expands the compact kernel rows into exactly the
    /// stream an explicit per-column gather from `column_runs` and the
    /// original filter tensor produces.
    #[test]
    fn zoo_chunks_share_kernel_offsets_and_load_the_per_column_gather() {
        let machine = GanaxMachine::paper();
        let injector = FaultInjector::new(machine.config().fault);
        let faults = ShardFaults {
            injector: &injector,
            layer_index: 0,
        };
        let mut layers = 0;
        for gan in ganax_models::zoo::all_models() {
            for network in [&gan.generator, &gan.discriminator] {
                let network = network.reduced(8).unwrap();
                for layer in network.layers() {
                    let Some(params) = layer.op.conv_params() else {
                        continue;
                    };
                    let (_, weights) = layer_tensors(layer, layers);
                    let planned = machine.plan_layer(layer, &weights).unwrap();
                    let plan = &planned.plan;
                    let mut pe = ProcessingEngine::new(planned.pe_config);
                    for (chunk_idx, chunk) in plan.chunks.iter().enumerate() {
                        let runs: Vec<ColumnRun> = (0..chunk.cols)
                            .map(|c| plan.column_runs[chunk.ox_start + c * chunk.col_step].unwrap())
                            .collect();
                        for run in &runs {
                            let offsets = (chunk.taps, chunk.kernel_start, chunk.kernel_step);
                            assert_eq!(run.kernel_offsets(), offsets, "{}", layer.name);
                        }
                        let stream = chunk.taps * chunk.cols;
                        let group_max = chunk_group_max(&planned.pe_config, chunk, stream);
                        for (ky, ci) in (0..plan.kernel_h)
                            .flat_map(|ky| (0..layer.input.channels).map(move |ci| (ky, ci)))
                        {
                            for co0 in (0..layer.output.channels).step_by(group_max) {
                                let group = group_max.min(layer.output.channels - co0);
                                let mut expected = Vec::new();
                                for co in co0..co0 + group {
                                    for run in &runs {
                                        expected.extend((0..run.taps).map(|j| {
                                            let kx = run.kernel_start + j * run.kernel_step;
                                            machine_weight(&params, &weights, co, ci, ky, kx)
                                        }));
                                    }
                                }
                                let words = load_chunk_weights(
                                    &mut pe, plan, chunk_idx, group, co0, ci, ky, faults, 0,
                                );
                                assert_eq!(words as usize, expected.len(), "{}", layer.name);
                                let loaded = &pe.weight_contents()[..expected.len()];
                                assert_eq!(loaded, &expected[..], "{}", layer.name);
                            }
                        }
                    }
                    layers += 1;
                }
            }
        }
        assert!(layers >= 50, "only {layers} zoo layers checked");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Across random conv/tconv geometries, the engine fast path
        /// (serial and threaded) produces outputs, `busy_pe_cycles` and
        /// `EventCounts` bit-identical to the seed single-step serial path.
        #[test]
        fn prop_fast_paths_match_single_step_reference(
            tconv in 0u16..2,
            in_channels in 1usize..3,
            out_channels in 1usize..3,
            extent in 3usize..7,
            kernel in 1usize..8,
            stride in 1usize..3,
            threads in 2usize..6,
            seed in 0u64..1_000,
        ) {
            let params = if tconv == 1 {
                ConvParams::transposed_2d(kernel, stride, kernel / 2)
            } else {
                ConvParams::conv_2d(kernel, stride, kernel / 2)
            };
            let layer = match Layer::conv(
                "prop-geometry",
                Shape::new_2d(in_channels, extent, extent),
                out_channels,
                params,
                Activation::None,
            ) {
                Ok(layer) => layer,
                // Degenerate geometry (e.g. kernel larger than the padded
                // input): nothing to compare.
                Err(_) => return Ok(()),
            };
            let (input, weights) = layer_tensors(&layer, seed);
            let machine = GanaxMachine::paper();
            let reference = machine.execute_layer_reference(&layer, &input, &weights).unwrap();
            let fast = machine.execute_layer_threaded(&layer, &input, &weights, 1).unwrap();
            prop_assert_eq!(&reference, &fast, "serial fast path diverged");
            let threaded = machine.execute_layer_threaded(&layer, &input, &weights, threads).unwrap();
            prop_assert_eq!(&reference, &threaded, "threaded fast path diverged");
        }
    }
}
