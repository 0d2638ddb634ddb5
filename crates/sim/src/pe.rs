//! A GANAX processing engine: decoupled access and execute µ-engines around
//! three scratchpad buffers.

use ganax_energy::EventCounts;
use ganax_isa::{AccessUop, AddrGenKind, ExecUop};
use serde::{Deserialize, Serialize};

use crate::access::AccessEngine;
use crate::execute::{ActivationKind, ExecuteEngine};
use crate::fifo::{FifoError, UopFifo};
use crate::index_gen::{GeneratorConfig, StridedIndexGenerator};
use crate::scratchpad::Scratchpad;

/// Sizing of one processing engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeConfig {
    /// Words in the input scratchpad.
    pub input_words: usize,
    /// Words in the weight scratchpad.
    pub weight_words: usize,
    /// Words in the output (partial-sum) scratchpad.
    pub output_words: usize,
    /// Entries per address FIFO.
    pub addr_fifo_entries: usize,
    /// Entries in the execute µop FIFO.
    pub uop_fifo_entries: usize,
}

impl PeConfig {
    /// The Table III configuration: a 12-word input register file, 224-word
    /// weight SRAM, 24-word partial-sum register file and 8-entry FIFOs.
    pub fn paper() -> Self {
        PeConfig {
            input_words: 12,
            weight_words: 224,
            output_words: 24,
            addr_fifo_entries: 8,
            uop_fifo_entries: 16,
        }
    }

    /// A roomier configuration used by functional-validation harnesses that
    /// want to keep a whole (small) feature-map row resident in one PE. The
    /// deep µop FIFO lets the machine dispatch a long run of per-column
    /// `repeat`+`mac` programs in one go.
    pub fn roomy() -> Self {
        PeConfig {
            input_words: 1024,
            weight_words: 1024,
            output_words: 1024,
            addr_fifo_entries: 8,
            uop_fifo_entries: 256,
        }
    }

    /// The deep simulation configuration `GanaxConfig::paper` installs for
    /// its worker PEs (`sim_pe`): the same microarchitecture as
    /// [`PeConfig::roomy`] with scratchpads and µop FIFO sized so one
    /// dispatch covers a whole channel group of a full-size Table I layer.
    /// Dispatch *count* is what the per-dispatch retire path amortizes its
    /// fixed bookkeeping over, so deeper buffers directly shrink simulation
    /// wall-clock; modeled activity is invariant to the depth (operand
    /// traffic, µop fetches and busy cycles count programs and words, not
    /// dispatches). Capacities stay well inside the `u16` address space the
    /// index generators require.
    pub fn deep() -> Self {
        PeConfig {
            input_words: 16384,
            weight_words: 16384,
            output_words: 16384,
            addr_fifo_entries: 8,
            uop_fifo_entries: 8192,
        }
    }
}

impl Default for PeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One processing engine: an access µ-engine, an execute µ-engine, the three
/// scratchpads they share, and activity counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingEngine {
    config: PeConfig,
    access: AccessEngine,
    execute: ExecuteEngine,
    uop_fifo: UopFifo,
    input: Scratchpad,
    weights: Scratchpad,
    output: Scratchpad,
    cycles: u64,
    busy_cycles: u64,
    uop_fetches: u64,
}

impl ProcessingEngine {
    /// Creates an idle PE with the given sizing.
    pub fn new(config: PeConfig) -> Self {
        ProcessingEngine {
            config,
            access: AccessEngine::new(config.addr_fifo_entries),
            execute: ExecuteEngine::new(),
            uop_fifo: UopFifo::new(config.uop_fifo_entries),
            input: Scratchpad::new(config.input_words),
            weights: Scratchpad::new(config.weight_words),
            output: Scratchpad::new(config.output_words),
            cycles: 0,
            busy_cycles: 0,
            uop_fetches: 0,
        }
    }

    /// The PE's sizing.
    pub fn config(&self) -> PeConfig {
        self.config
    }

    /// Resets the PE to its just-constructed state **in place**: scratchpads
    /// zeroed, FIFOs emptied, index generators cleared and stopped, the
    /// execute µ-engine idled, and every cycle/activity counter zeroed — all
    /// without releasing a single allocation. A long-lived worker PE calls
    /// this between dispatch batches instead of being reconstructed, so the
    /// serving steady state stays allocation-free.
    ///
    /// After `reset`, the PE compares equal to `ProcessingEngine::new(config)`.
    pub fn reset(&mut self) {
        self.access.reset();
        self.execute.reset();
        self.uop_fifo.clear();
        self.input.reset();
        self.weights.reset();
        self.output.reset();
        self.cycles = 0;
        self.busy_cycles = 0;
        self.uop_fetches = 0;
    }

    /// Bulk-loads the input scratchpad from word 0.
    pub fn load_input(&mut self, values: &[f32]) {
        self.input.fill(values);
    }

    /// Bulk-loads the weight scratchpad from word 0.
    pub fn load_weights(&mut self, values: &[f32]) {
        self.weights.fill(values);
    }

    /// Bulk-loads `len` input words through an in-place gather closure
    /// (counted as writes, like [`ProcessingEngine::load_input`]).
    pub fn load_input_with(&mut self, len: usize, f: impl FnOnce(&mut [f32])) {
        self.input.fill_with(len, f);
    }

    /// Bulk-loads `len` weight words through an in-place gather closure
    /// (counted as writes, like [`ProcessingEngine::load_weights`]).
    pub fn load_weights_with(&mut self, len: usize, f: impl FnOnce(&mut [f32])) {
        self.weights.fill_with(len, f);
    }

    /// Clears the output scratchpad (between output rows).
    pub fn clear_output(&mut self) {
        self.output.reset();
    }

    /// Reads an output word without charging an access (result draining).
    pub fn read_output(&mut self, addr: u16) -> f32 {
        self.output.peek(addr)
    }

    /// The full output scratchpad contents.
    pub fn output_contents(&self) -> &[f32] {
        self.output.contents()
    }

    /// The full weight scratchpad contents.
    pub fn weight_contents(&self) -> &[f32] {
        self.weights.contents()
    }

    /// Applies an access µop to the access µ-engine.
    pub fn apply_access(&mut self, uop: &AccessUop) {
        self.access.apply(uop);
    }

    /// Configures one index generator with an explicit configuration.
    pub fn configure_generator(&mut self, gen: AddrGenKind, config: GeneratorConfig) {
        self.access.load_config(gen, config);
    }

    /// Convenience: configures a generator to walk `addr, addr+step, …` up to
    /// (excluding) `end`, replaying the pattern `repeat` times.
    pub fn configure_linear(
        &mut self,
        gen: AddrGenKind,
        addr: u16,
        step: u16,
        end: u16,
        repeat: u16,
    ) {
        self.configure_generator(
            gen,
            GeneratorConfig {
                addr,
                offset: 0,
                step,
                end,
                repeat,
            },
        );
    }

    /// Starts every configured index generator.
    pub fn start_all(&mut self) {
        self.access.start_all();
    }

    /// Starts one index generator.
    pub fn start(&mut self, gen: AddrGenKind) {
        self.access.start(gen);
    }

    /// Loads the execute µ-engine's repeat register (`mimd.ld`).
    pub fn set_repeat(&mut self, count: u16) {
        self.execute.set_repeat(count);
    }

    /// Selects the activation function used by `act` µops.
    pub fn set_activation(&mut self, activation: ActivationKind) {
        self.execute.set_activation(activation);
    }

    /// Pushes an execute µop into the PE's µop FIFO, reporting overflow to
    /// the dispatcher instead of panicking.
    ///
    /// # Errors
    /// Returns [`FifoError`] when the µop FIFO is full.
    pub fn try_push_uop(&mut self, uop: ExecUop) -> Result<(), FifoError> {
        self.uop_fifo.push(uop)
    }

    /// Pushes an execute µop into the PE's µop FIFO.
    ///
    /// # Panics
    /// Panics if the µop FIFO is full; the dispatcher is expected to respect
    /// the FIFO depth (use [`ProcessingEngine::try_push_uop`] to recover
    /// instead).
    pub fn push_uop(&mut self, uop: ExecUop) {
        self.try_push_uop(uop)
            .expect("uop fifo overflow: dispatcher must respect fifo depth");
    }

    /// Pushes a batch of execute µops with a single capacity check (a
    /// dispatcher issuing a whole program at once).
    ///
    /// # Errors
    /// Returns [`FifoError`] (pushing nothing) when the batch does not fit.
    pub fn try_push_uops(&mut self, uops: &[ExecUop]) -> Result<(), FifoError> {
        self.uop_fifo.push_all(uops)
    }

    /// Pushes `pairs` uniform `repeat`+`mac` programs with a single capacity
    /// check. The µop FIFO holds them virtually (a pair count instead of
    /// `2 × pairs` queue entries), which both skips the per-µop queue traffic
    /// and lets [`ProcessingEngine::run_until_idle_burst`] retire the whole
    /// dispatch in closed form. Observationally identical to
    /// [`ProcessingEngine::try_push_uops`] of the same sequence.
    ///
    /// # Errors
    /// Returns [`FifoError`] (pushing nothing) when the batch does not fit.
    pub fn try_push_mac_pairs(&mut self, pairs: usize) -> Result<(), FifoError> {
        self.uop_fifo.try_push_mac_pairs(pairs)
    }

    /// Whether the µop FIFO has room for another µop.
    pub fn can_accept_uop(&self) -> bool {
        !self.uop_fifo.is_full()
    }

    /// Whether the PE has nothing left to do: no in-flight µop, an empty µop
    /// FIFO and no running index generator.
    pub fn is_idle(&self) -> bool {
        !self.execute.is_busy() && self.uop_fifo.is_empty() && !self.access.any_running()
    }

    /// Advances the PE by one cycle. Returns `true` if the execute µ-engine
    /// performed an operation this cycle.
    pub fn step(&mut self) -> bool {
        self.cycles += 1;
        // 1. Access µ-engine generates addresses into its FIFOs.
        self.access.tick();

        // 2. Execute µ-engine: fetch a µop if none is in flight.
        if !self.execute.is_busy() {
            while let Some(uop) = self.uop_fifo.pop() {
                self.uop_fetches += 1;
                if self.execute.issue(uop) {
                    break;
                }
                // `repeat`/`nop` µops retire immediately; keep fetching.
            }
        }
        if !self.execute.is_busy() {
            return false;
        }

        // 3. Check operand availability (empty FIFO ⇒ stall, per the paper).
        let uop = self.execute.current_uop().expect("busy engine has a uop");
        let needs_weight = uop.source_operands() == 2;
        let will_write = uop.writes_destination()
            && (self.execute.remaining_repeats() == 1
                || matches!(uop, ExecUop::Add | ExecUop::Mul | ExecUop::Act));
        if self.access.fifo(AddrGenKind::Input).is_empty() {
            return false;
        }
        if needs_weight && self.access.fifo(AddrGenKind::Weight).is_empty() {
            return false;
        }
        if will_write && self.access.fifo(AddrGenKind::Output).is_empty() {
            return false;
        }

        // 4. Pop addresses, read operands, execute, write back.
        let in_addr = self
            .access
            .fifo_mut(AddrGenKind::Input)
            .pop()
            .expect("input fifo checked non-empty");
        let a = self.input.read(in_addr);
        let b = if needs_weight {
            let w_addr = self
                .access
                .fifo_mut(AddrGenKind::Weight)
                .pop()
                .expect("weight fifo checked non-empty");
            self.weights.read(w_addr)
        } else {
            0.0
        };
        if let Some(value) = self.execute.execute(a, b) {
            let out_addr = self
                .access
                .fifo_mut(AddrGenKind::Output)
                .pop()
                .expect("output fifo checked non-empty");
            self.output.write(out_addr, value);
        }
        self.busy_cycles += 1;
        true
    }

    /// Steps the PE until it is idle or `max_cycles` have elapsed; returns the
    /// number of cycles stepped.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> u64 {
        let mut stepped = 0;
        while stepped < max_cycles && !self.is_idle() {
            self.step();
            stepped += 1;
        }
        stepped
    }

    /// Like [`ProcessingEngine::run_until_idle`], but a canonical uniform
    /// dispatch (the machine's chunk dispatch, see
    /// [`ProcessingEngine::try_push_mac_pairs`]) retires in closed form; any
    /// other state is single-stepped. Final state, outputs and every counter
    /// are bit-identical to single stepping.
    pub fn run_until_idle_burst(&mut self, max_cycles: u64) -> u64 {
        let retired = self.retire_uniform_dispatch(max_cycles);
        retired + self.run_until_idle(max_cycles - retired)
    }

    /// Retires a µop queue of `pairs` uniform `repeat`+`mac` programs of
    /// `repeats` repetitions each as **one dispatch**, settling FIFO
    /// occupancy, index-generator state, cycle counts and every
    /// [`EventCounts`] category once in closed form instead of once per
    /// cycle. Returns the `pairs × repeats` cycles retired, or 0 (touching
    /// nothing) unless the PE is in the canonical machine shape:
    ///
    /// * no µop in flight, and a µop FIFO holding only virtual pairs;
    /// * `pairs × repeats` within `budget`;
    /// * all three address FIFOs empty — every address comes straight off its
    ///   generator, so FIFO traffic is pure pass-through accounting;
    /// * input and weight generators in step-1 wrap windows (guarded against
    ///   `u16` wraparound) that supply the whole dispatch, hold whole
    ///   programs and sit on a program boundary — operand streams reduce to
    ///   slice windows that [`mac_replays`] walks replay by replay, at a host
    ///   cost per program that does not depend on how many programs a replay
    ///   holds;
    /// * the output generator in a step-1 window with exactly one remaining
    ///   address per program, on a run that does not wrap — write-backs land
    ///   on a contiguous slice and the output FIFO never materializes.
    fn retire_uniform_dispatch(&mut self, budget: u64) -> u64 {
        if self.execute.is_busy() {
            return 0;
        }
        let Some(pairs) = self.uop_fifo.uniform_pairs() else {
            return 0;
        };
        let r = self.execute.repeat_register() as usize;
        let total = (pairs * r) as u64;
        if total > budget {
            return 0;
        }
        let in_idx = AddrGenKind::Input.index();
        let wt_idx = AddrGenKind::Weight.index();
        let out_idx = AddrGenKind::Output.index();
        let (gens, fifos, stall_cycles) = self.access.burst_parts();
        if fifos.iter().any(|fifo| !fifo.is_empty()) {
            return 0;
        }
        // Step-1 windows `(offset, current, end)`: the generator produces
        // `offset + (current + k) % end` on its `k`-th tick, so its stream is
        // a slice window. Guarded against the `u16` wraparound of `tick`.
        let window = |gen: &StridedIndexGenerator| {
            let (current, end) = gen.burst_wrap_window()?;
            let offset = gen.offset() as usize;
            (offset + end as usize <= 1 << 16).then_some((offset, current as usize, end as usize))
        };
        let operand = |gen: &StridedIndexGenerator| {
            window(gen).filter(|&(_, current, end)| {
                end.is_multiple_of(r)
                    && current.is_multiple_of(r)
                    && gen.remaining_addresses_up_to(total) == total
            })
        };
        let (Some((in_base, in_at, in_end)), Some((wt_base, wt_at, wt_end))) =
            (operand(&gens[in_idx]), operand(&gens[wt_idx]))
        else {
            return 0;
        };
        let Some((out_base, out_at, _)) = window(&gens[out_idx]).filter(|&(_, current, end)| {
            current + pairs <= end
                && gens[out_idx].remaining_addresses_up_to(pairs as u64 + 1) == pairs as u64
        }) else {
            return 0;
        };

        // Accumulate each program over the operand slice windows — same
        // operation and order as `ExecuteEngine::execute`, so every f32
        // result is bit-identical — and store it straight into the output
        // scratchpad at the address the generator would have produced. The
        // tap count is matched once per dispatch, so the replay loop and its
        // dot products are compiled for it.
        let input = &self.input.contents()[in_base..in_base + in_end];
        let weights = &self.weights.contents()[wt_base..wt_base + wt_end];
        let out0 = out_base + out_at;
        let dst = &mut self.output.contents_mut()[out0..out0 + pairs];
        match r {
            1 => mac_replays::<1>(r, input, in_at, weights, wt_at, dst),
            2 => mac_replays::<2>(r, input, in_at, weights, wt_at, dst),
            3 => mac_replays::<3>(r, input, in_at, weights, wt_at, dst),
            4 => mac_replays::<4>(r, input, in_at, weights, wt_at, dst),
            5 => mac_replays::<5>(r, input, in_at, weights, wt_at, dst),
            _ => mac_replays::<0>(r, input, in_at, weights, wt_at, dst),
        }

        // Settle once per dispatch what single stepping settles once per
        // cycle: µop fetches, operand pass-through and generator advances,
        // output-generator stalls against the never-popped FIFO, scratchpad
        // access counters, and the execute µ-engine's program count.
        let pairs = pairs as u64;
        self.uop_fifo.consume_front(2 * pairs as usize);
        self.uop_fetches += 2 * pairs;
        fifos[in_idx].note_passthrough(total);
        gens[in_idx].advance_wrapping(total);
        fifos[wt_idx].note_passthrough(total);
        gens[wt_idx].advance_wrapping(total);
        *stall_cycles += uniform_output_stalls(pairs, r as u64, fifos[out_idx].capacity() as u64);
        fifos[out_idx].note_passthrough(pairs);
        gens[out_idx].advance_wrapping(pairs);
        self.input.charge_reads(total);
        self.weights.charge_reads(total);
        self.output.charge_writes(pairs);
        self.execute.settle_mac_programs(total);
        self.cycles += total;
        self.busy_cycles += total;
        total
    }

    /// Total cycles stepped.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles in which the execute µ-engine performed an operation.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Activity counters in the Table II categories.
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            alu_ops: self.execute.alu_ops(),
            gated_ops: 0,
            register_file_reads: self.input.reads() + self.weights.reads() + self.output.reads(),
            register_file_writes: self.input.writes()
                + self.weights.writes()
                + self.output.writes(),
            inter_pe_transfers: 0,
            global_buffer_reads: 0,
            global_buffer_writes: 0,
            dram_reads: 0,
            dram_writes: 0,
            local_uop_fetches: self.uop_fetches,
            global_uop_fetches: 0,
        }
    }
}

/// Retires an aligned uniform dispatch of `dst.len()` `r`-repetition `mac`
/// programs into `dst`. The input and weight windows hold whole programs,
/// and the walk starts `in_pos` / `wt_pos` words into them, on program
/// boundaries. `R` is `r` when known at compile time, or 0 for any `r`.
///
/// The outer loop runs over whole replays of the input window, zipping the
/// window's programs with the matching weight and output slices, so a replay
/// costs one iterator step however few programs it holds. A replay entered
/// partway (the head) and one the dispatch ends inside (the tail) take the
/// same zipped pass over their part of the window; a wrap of the weight
/// window starts a new segment.
fn mac_replays<const R: usize>(
    r: usize,
    input: &[f32],
    mut in_pos: usize,
    weights: &[f32],
    mut wt_pos: usize,
    mut dst: &mut [f32],
) {
    let r = if R == 0 { r } else { R };
    let programs_per_replay = input.len() / r;
    while !dst.is_empty() {
        let n = ((weights.len() - wt_pos) / r).min(dst.len());
        let (segment, rest) = std::mem::take(&mut dst).split_at_mut(n);
        let head = ((input.len() - in_pos) / r).min(n);
        let (head_wts, wts) = weights[wt_pos..wt_pos + n * r].split_at(head * r);
        let (head_out, outs) = segment.split_at_mut(head);
        mac_programs::<R>(r, &input[in_pos..], head_wts, head_out);
        let mut replay_wts = wts.chunks_exact(input.len());
        let mut replay_outs = outs.chunks_exact_mut(programs_per_replay);
        for (w, out) in (&mut replay_wts).zip(&mut replay_outs) {
            mac_programs::<R>(r, input, w, out);
        }
        let tail_out = replay_outs.into_remainder();
        mac_programs::<R>(r, input, replay_wts.remainder(), tail_out);
        dst = rest;
        // A segment ends where the weight window wraps, or ends the dispatch.
        in_pos = (in_pos + n * r) % input.len();
        wt_pos = 0;
    }
}

/// Retires consecutive `r`-repetition `mac` programs: `dst[j]` receives the
/// dot product of the `j`-th `r`-word slices of `lhs` and `rhs`, accumulated
/// from `0.0` (an idle execute µ-engine's accumulator) in slice order exactly
/// as `ExecuteEngine::execute` does. `R` is `r` when known at compile time —
/// the chunk width is then a constant, so each program is a fixed-size dot
/// the compiler unrolls — or 0 for any `r`.
fn mac_programs<const R: usize>(r: usize, lhs: &[f32], rhs: &[f32], dst: &mut [f32]) {
    let r = if R == 0 { r } else { R };
    for ((a, b), out) in lhs.chunks_exact(r).zip(rhs.chunks_exact(r)).zip(dst) {
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
        *out = acc;
    }
}

/// Output-generator stall cycles over a uniform dispatch of `programs`
/// write-backs of `repeats` repetitions each against an initially empty
/// output FIFO of `cap` entries, in closed form.
///
/// Per program, the per-cycle semantics are: the generator pushes until the
/// FIFO fills or every program's address is produced, each un-pushed cycle of
/// a still-producing generator stalls, and the program's write-back pops one
/// entry. Once the FIFO's free space collapses to a single entry it stays
/// there (one push, one pop per program), so every remaining producing
/// program except the last stalls for `repeats - 1` cycles — the tail
/// collapses to one multiplication instead of a per-program `+=` of that
/// constant delta.
fn uniform_output_stalls(programs: u64, repeats: u64, cap: u64) -> u64 {
    if repeats <= 1 {
        return 0;
    }
    let mut stalls = 0u64;
    let mut len = 0u64;
    let mut produced = 0u64;
    loop {
        let remaining = programs - produced;
        if remaining == 0 {
            break;
        }
        if cap - len == 1 {
            stalls += (remaining - 1) * (repeats - 1);
            break;
        }
        let pushes = repeats.min(cap - len).min(remaining);
        if remaining > pushes {
            stalls += repeats - pushes;
        }
        len += pushes;
        produced += pushes;
        len -= 1;
    }
    stalls
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Streams `n` input/weight pairs through a repeated `mac` and returns the
    /// accumulated dot product written to output word 0.
    fn dot_product(inputs: &[f32], weights: &[f32]) -> f32 {
        let n = inputs.len() as u16;
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(inputs);
        pe.load_weights(weights);
        pe.configure_linear(AddrGenKind::Input, 0, 1, n, 1);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, n, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start_all();
        pe.set_repeat(n);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        let cycles = pe.run_until_idle(10_000);
        assert!(cycles < 10_000, "PE did not converge");
        pe.read_output(0)
    }

    #[test]
    fn computes_a_dot_product() {
        let inputs = [1.0, 2.0, 3.0, 4.0];
        let weights = [0.5, -1.0, 2.0, 0.25];
        let expected: f32 = inputs.iter().zip(&weights).map(|(a, b)| a * b).sum();
        assert!((dot_product(&inputs, &weights) - expected).abs() < 1e-6);
    }

    #[test]
    fn strided_input_access_skips_zero_columns() {
        // Input holds a zero-inserted row [x0, 0, x1, 0, x2, 0, x3, 0]; a
        // stride-2 access pattern touches only the original elements, which is
        // how GANAX skips inconsequential columns.
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(&[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        pe.load_weights(&[1.0, 1.0, 1.0, 1.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 2, 8, 1);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, 4, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start_all();
        pe.set_repeat(4);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        pe.run_until_idle(1_000);
        assert_eq!(pe.read_output(0), 10.0);
        // Exactly four multiplications were performed — no wasted work on the
        // inserted zeros.
        assert_eq!(pe.counts().alu_ops, 4);
    }

    #[test]
    fn empty_uop_fifo_halts_execution() {
        let mut pe = ProcessingEngine::new(PeConfig::paper());
        pe.load_input(&[1.0, 2.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 2, 1);
        pe.start(AddrGenKind::Input);
        // Addresses flow but no µop ever arrives: nothing executes.
        for _ in 0..10 {
            assert!(!pe.step());
        }
        assert_eq!(pe.counts().alu_ops, 0);
    }

    #[test]
    fn empty_address_fifo_stalls_execution() {
        let mut pe = ProcessingEngine::new(PeConfig::paper());
        pe.load_input(&[1.0, 2.0]);
        pe.load_weights(&[1.0, 1.0]);
        // Weight generator is never started: mac stalls forever.
        pe.configure_linear(AddrGenKind::Input, 0, 1, 2, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start(AddrGenKind::Input);
        pe.start(AddrGenKind::Output);
        pe.set_repeat(2);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        for _ in 0..20 {
            pe.step();
        }
        assert_eq!(pe.counts().alu_ops, 0);
        assert!(!pe.is_idle());
    }

    #[test]
    fn act_uop_applies_activation_elementwise() {
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(&[-1.0, 2.0, -3.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 3, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 3, 1);
        pe.start(AddrGenKind::Input);
        pe.start(AddrGenKind::Output);
        pe.set_activation(ActivationKind::Relu);
        for _ in 0..3 {
            pe.push_uop(ExecUop::Act);
        }
        pe.run_until_idle(1_000);
        assert_eq!(pe.output_contents()[..3], [0.0, 2.0, 0.0]);
    }

    #[test]
    fn counters_track_scratchpad_traffic() {
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        pe.load_input(&[1.0, 2.0]);
        pe.load_weights(&[3.0, 4.0]);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 2, 1);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, 2, 1);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
        pe.start_all();
        pe.set_repeat(2);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        pe.run_until_idle(1_000);
        let counts = pe.counts();
        assert_eq!(counts.alu_ops, 2);
        // 2 input reads + 2 weight reads.
        assert_eq!(counts.register_file_reads, 4);
        // Bulk loads (2 + 2 words) plus the single result write-back.
        assert_eq!(counts.register_file_writes, 5);
        assert_eq!(counts.local_uop_fetches, 2);
        assert!(pe.busy_cycles() >= 2);
        assert!(pe.cycles() >= pe.busy_cycles());
    }

    #[test]
    fn idle_detection() {
        let mut pe = ProcessingEngine::new(PeConfig::paper());
        assert!(pe.is_idle());
        pe.push_uop(ExecUop::Mac);
        assert!(!pe.is_idle());
    }

    #[test]
    fn reset_restores_the_just_constructed_state() {
        let config = PeConfig {
            addr_fifo_entries: 4,
            uop_fifo_entries: 8,
            ..PeConfig::paper()
        };
        let mut pe = ProcessingEngine::new(config);
        pe.load_input(&[1.0, 2.0, 3.0]);
        pe.load_weights(&[4.0, 5.0, 6.0]);
        pe.set_activation(ActivationKind::Relu);
        pe.configure_linear(AddrGenKind::Input, 0, 1, 3, 2);
        pe.configure_linear(AddrGenKind::Weight, 0, 1, 3, 2);
        pe.configure_linear(AddrGenKind::Output, 0, 1, 2, 1);
        pe.start_all();
        pe.set_repeat(3);
        pe.push_uop(ExecUop::Repeat);
        pe.push_uop(ExecUop::Mac);
        pe.push_uop(ExecUop::Mac);
        // Step mid-program so a µop is in flight and addresses are queued.
        for _ in 0..4 {
            pe.step();
        }
        assert!(!pe.is_idle());
        pe.reset();
        assert_eq!(pe, ProcessingEngine::new(config), "reset must equal new");
        assert!(pe.is_idle());
        assert_eq!(pe.counts(), EventCounts::default());

        // A reset PE executes a fresh program exactly like a new one.
        let run = |pe: &mut ProcessingEngine| {
            pe.load_input(&[1.0, 2.0, 3.0, 4.0]);
            pe.load_weights(&[0.5, -1.0, 2.0, 0.25]);
            pe.configure_linear(AddrGenKind::Input, 0, 1, 4, 1);
            pe.configure_linear(AddrGenKind::Weight, 0, 1, 4, 1);
            pe.configure_linear(AddrGenKind::Output, 0, 1, 1, 1);
            pe.start_all();
            pe.set_repeat(4);
            pe.push_uop(ExecUop::Repeat);
            pe.push_uop(ExecUop::Mac);
            pe.run_until_idle_burst(1_000);
        };
        run(&mut pe);
        let mut fresh = ProcessingEngine::new(config);
        run(&mut fresh);
        assert_eq!(pe, fresh, "reset PE diverged from a newly constructed one");
    }

    #[test]
    fn try_push_uop_reports_overflow() {
        let mut pe = ProcessingEngine::new(PeConfig {
            uop_fifo_entries: 2,
            ..PeConfig::paper()
        });
        assert!(pe.try_push_uop(ExecUop::Repeat).is_ok());
        assert!(pe.try_push_uop(ExecUop::Mac).is_ok());
        assert_eq!(
            pe.try_push_uop(ExecUop::Mac),
            Err(FifoError { capacity: 2 })
        );
    }

    /// The output generator's per-cycle fill/stall pattern, settled program
    /// by program, as the oracle for the closed-form `uniform_output_stalls`.
    fn direct_output_stalls(programs: u64, repeats: u64, cap: u64) -> u64 {
        let mut stalls = 0u64;
        let mut len = 0u64;
        let mut produced = 0u64;
        for _ in 0..programs {
            let pushes = repeats.min(cap - len).min(programs - produced);
            if programs - produced > pushes {
                stalls += repeats - pushes;
            }
            len += pushes;
            produced += pushes;
            len -= 1;
        }
        stalls
    }

    #[test]
    fn uniform_output_stalls_matches_the_per_program_loop() {
        for programs in 0..=40u64 {
            for repeats in 1..=10u64 {
                for cap in 1..=10u64 {
                    assert_eq!(
                        super::uniform_output_stalls(programs, repeats, cap),
                        direct_output_stalls(programs, repeats, cap),
                        "stall closed form diverged at programs={programs} repeats={repeats} cap={cap}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Virtually-pushed uniform dispatches (`try_push_mac_pairs`) retire
        /// bit-identically to a single-stepped PE fed the same µops one by
        /// one — across every fixed-size dot of the aligned sweep (tap counts
        /// 1–5) and its generic fallback (6–8), operand offsets, input
        /// windows holding whole programs (the machine's shape) or cut
        /// mid-program, up to six replayed input rounds and two weight
        /// rounds, an input stream entered partway through a replay
        /// (`in_lead` programs in) and a weight stream likewise
        /// (`wt_lead`), output FIFOs much smaller than the dispatch (the
        /// stall steady-state collapse), and the cases the closed form must
        /// leave to single stepping: operand undersupply, input windows cut
        /// mid-program, and budgets short of the dispatch's `pairs × taps`.
        #[test]
        fn prop_virtual_pair_dispatch_equals_single_step(
            cols in 1u16..12,
            taps in 1u16..9,
            fifo_entries in 2usize..9,
            in_offset in 0u16..24,
            wt_offset in 0u16..16,
            out_start in 0u16..4,
            undersupply in 0u16..3,
            rounds in 1u16..7,
            wt_rounds in 1u16..3,
            ragged in 0u16..2,
            in_lead in 0u16..3,
            wt_lead in 0u16..3,
            short in 0u16..4,
            cut in 1u16..4,
        ) {
            let total = cols * taps;
            let operand_end = total.saturating_sub(undersupply).max(1);
            let in_end = if ragged == 1 {
                operand_end.div_ceil(rounds).max(1)
            } else {
                taps * cols.div_ceil(rounds)
            };
            let wt_end = operand_end.div_ceil(wt_rounds).max(1);
            // Starting `in_lead` programs into the input window costs the
            // first replay those words; one more round keeps the supply whole.
            let in_start = (in_lead * taps) % in_end;
            let in_rounds = rounds + u16::from(in_start > 0);
            let wt_start = (wt_lead * taps) % wt_end;
            let wt_rounds = wt_rounds + u16::from(wt_start > 0);
            let config = PeConfig {
                input_words: 128,
                weight_words: 128,
                output_words: 16,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 32,
            };
            let data: Vec<f32> = (0..128).map(|i| (i as f32) * 0.29 - 4.0).collect();
            let weights: Vec<f32> = (0..128).map(|i| 2.1 - (i as f32) * 0.17).collect();
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&data);
            reference.load_weights(&weights);
            let mut fast = reference.clone();
            for pe in [&mut reference, &mut fast] {
                pe.configure_generator(AddrGenKind::Input, GeneratorConfig {
                    addr: in_start, offset: in_offset, step: 1, end: in_end, repeat: in_rounds,
                });
                pe.configure_generator(AddrGenKind::Weight, GeneratorConfig {
                    addr: wt_start, offset: wt_offset, step: 1, end: wt_end, repeat: wt_rounds,
                });
                pe.configure_linear(AddrGenKind::Output, out_start, 1, out_start + cols, 1);
                pe.start_all();
                pe.set_repeat(taps);
            }
            for _ in 0..cols {
                reference.push_uop(ExecUop::Repeat);
                reference.push_uop(ExecUop::Mac);
            }
            fast.try_push_mac_pairs(cols as usize).unwrap();
            // One case in four stops 1–3 cycles short of the whole dispatch.
            let budget = if short == 0 { u64::from(total.saturating_sub(cut)) } else { 1_024 };
            let ref_cycles = reference.run_until_idle(budget);
            let fast_cycles = fast.run_until_idle_burst(budget);
            prop_assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
            prop_assert_eq!(&reference, &fast, "PE state diverged");
        }

        /// Queues mixing materialized µops with virtual pairs — a lone `mac`
        /// ahead of a pair batch (non-uniform repeats), or a pair batch
        /// extended by hand-pushed µops (forcing materialization) — behave
        /// exactly like a fully materialized queue under single stepping.
        #[test]
        fn prop_mixed_queue_with_virtual_pairs_equals_single_step(
            cols in 1u16..8,
            taps in 1u16..5,
            fifo_entries in 2usize..9,
            lead_mac in 0u16..2,
            trail_pair in 0u16..2,
        ) {
            let total = lead_mac + cols * taps + trail_pair * taps;
            let programs = lead_mac + cols + trail_pair;
            let config = PeConfig {
                input_words: 64,
                weight_words: 64,
                output_words: 16,
                addr_fifo_entries: fifo_entries,
                uop_fifo_entries: 32,
            };
            let data: Vec<f32> = (0..64).map(|i| (i as f32) * 0.47 - 2.5).collect();
            let weights: Vec<f32> = (0..64).map(|i| 1.9 - (i as f32) * 0.13).collect();
            let mut reference = ProcessingEngine::new(config);
            reference.load_input(&data);
            reference.load_weights(&weights);
            let mut fast = reference.clone();
            for pe in [&mut reference, &mut fast] {
                pe.configure_linear(AddrGenKind::Input, 0, 1, total, 1);
                pe.configure_linear(AddrGenKind::Weight, 0, 1, total, 1);
                pe.configure_linear(AddrGenKind::Output, 0, 1, programs, 1);
                pe.start_all();
                pe.set_repeat(taps);
            }
            // Reference: the same logical sequence, µop by µop.
            for _ in 0..lead_mac {
                reference.push_uop(ExecUop::Mac);
                fast.push_uop(ExecUop::Mac);
            }
            for _ in 0..cols {
                reference.push_uop(ExecUop::Repeat);
                reference.push_uop(ExecUop::Mac);
            }
            fast.try_push_mac_pairs(cols as usize).unwrap();
            for _ in 0..trail_pair {
                for uop in [ExecUop::Repeat, ExecUop::Mac] {
                    reference.push_uop(uop);
                    fast.push_uop(uop);
                }
            }
            let budget = 512;
            let ref_cycles = reference.run_until_idle(budget);
            let fast_cycles = fast.run_until_idle_burst(budget);
            prop_assert_eq!(ref_cycles, fast_cycles, "cycle counts diverged");
            prop_assert_eq!(&reference, &fast, "PE state diverged");
        }
    }
}
