//! The three workloads, the per-layer probe, and the correctness gate they
//! share.
//!
//! Every workload runs in the same order: build its models and their
//! expected outputs (`reference_network_forward`, before any timing), take
//! the expected per-inference activity from one direct engine run per model,
//! set the server up several times, warm it, drive load through `Server` for
//! the measured seconds, then set it up several times more (the median of
//! all set-ups is `setup_s`). Every response is checked against its
//! expected output, and the server's activity counters must equal the sum
//! of the expected per-request values.

use std::time::Instant;

use ganax::network::reference_network_forward;
use ganax::serve::{ModelHandle, Response, ServeConfig, ServeError, ServeStats, Server};
use ganax::{
    CompiledNetwork, GanaxMachine, InferenceEngine, IntegrityMode, LayerExecution, NetworkWeights,
};
use ganax_bench::{conformance_input, conformance_weights};
use ganax_energy::EventCounts;
use ganax_models::{zoo, Activation, Network};
use ganax_tensor::Tensor;

use crate::host::status_mb;
use crate::load::{median, percentile, tail_rank, zipf_block_counts, zipf_mix, Rng};
use crate::metrics::{
    zoo_label, Metrics, DCGAN_BURST, DCGAN_FULL, DCGAN_LAYERS, SPANS, ZOO, ZOO_CHANNELS,
};
use crate::trace::{self_seconds, SpanId, Tracer};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["dcgan-full", "zoo-mix", "dcgan-burst-verify"];

/// Worker threads of every engine pool.
const POOL_THREADS: usize = 2;

/// Busy PE cycles of one full-size DCGAN inference, per layer
/// ([`DCGAN_LAYERS`] order). The simulator's timing does not depend on
/// operand values, so these hold for every input.
const DCGAN_FULL_LAYER_BUSY: [u64; 5] = [0, 151_519_232, 179_437_568, 194_281_472, 9_465_216];
const DCGAN_FULL_BUSY: u64 = 534_703_488;

/// Concurrent closed-loop clients of `zoo-mix`, and the length of each
/// client's seeded model sequence (reused cyclically).
const ZOO_CLIENTS: u64 = 8;
const ZOO_MIX_LEN: usize = 4_000;

/// Samples the reported latency tail rests on at least: `latency_tail_ms`
/// is the p90, or the highest percentile with this many samples beyond it.
const TAIL_BEYOND: usize = 10;

/// Distinct inputs per model (each with its precomputed expected output).
const DCGAN_FULL_INPUTS: usize = 3;
const ZOO_INPUTS: usize = 4;
const BURST_INPUTS: usize = 8;
/// `setup_s` samples: this many in each half of a run, each the mean of
/// consecutive set-ups lasting at least this long together. Shared hosts
/// switch between fast and slow phases (about 1.6x apart) every 0.1-2 s; a
/// median of lone millisecond-scale set-ups (16-channel `zoo-mix`) flips
/// between the phases from run to run, while a mean over most of a second
/// moves smoothly with their mix.
const SETUP_HALF_SAMPLES: usize = 2;
const SETUP_SAMPLE_S: f64 = 0.8;
/// Requests per burst, and the server's wave cap on that workload.
const BURST: usize = 4;
/// Verify-vs-Off execute pairs of the probe's `engine.verify_tax`.
const TAX_PAIRS: usize = 3;

/// Tolerance of models whose activations leave the exact small-integer
/// domain (DiscoGAN's `LeakyRelu`), as in the conformance suite.
const APPROX_TOLERANCE: f32 = 1e-4;
/// Share of a non-exact model's output elements that may differ from the
/// reference by more than [`APPROX_TOLERANCE`]. With small-integer operands
/// and no normalization, a reduced DiscoGAN's pre-activations grow layer by
/// layer (to about 4e6 at 32 channels, where one f32 ulp is 0.25–0.5), so an
/// element whose large partial sums cancel to near zero depends on the
/// accumulation order. Such elements are rare: one or two of the 12288 in an
/// output, in a few percent of seeded inputs.
const APPROX_OUTLIER_SHARE: f64 = 1e-3;

/// Command-line options of one run.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured and found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems; the run is correct when there are none.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Facts behind the metrics (sample counts, setup samples, reference
    /// deviations), printed before the result and kept in the result file.
    pub notes: Vec<String>,
    /// The recorded spans as JSON, on traced runs.
    pub spans_json: Option<String>,
}

/// Runs one workload.
pub fn run(workload: &str, opts: &Options) -> Result<Outcome, String> {
    let tracer = Tracer::new(opts.trace);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Metrics::default(),
        notes: Vec::new(),
        spans_json: None,
    };
    match workload {
        "dcgan-full" => dcgan_full(opts, &tracer, &mut out)?,
        "dcgan-burst-verify" => dcgan_burst_verify(opts, &tracer, &mut out)?,
        "zoo-mix" => zoo_mix(opts, &tracer, &mut out)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    if opts.trace {
        probe(opts.seed, &tracer, &mut out)?;
        let selfs = self_seconds(&tracer.spans());
        for span in SPANS {
            let ms = selfs.get(span).copied().unwrap_or(0.0) * 1e3;
            out.metrics.set(format!("trace.self_ms.{span}"), ms, "ms");
        }
        out.spans_json = Some(tracer.to_json());
    } else {
        out.metrics.set("peak_rss_mb", status_mb("VmHWM"), "MB");
    }
    Ok(out)
}

/// One served model with its inputs and everything expected of them.
struct Model {
    label: String,
    network: Network,
    weights: NetworkWeights,
    inputs: Vec<Tensor>,
    expected: Vec<Tensor>,
    /// Whether outputs must equal the reference bit for bit. Otherwise they
    /// must equal the engine's own solo run (`solo`) bit for bit, and that
    /// run must agree with the reference (see [`reference_agrees`]).
    exact: bool,
    solo: Vec<Tensor>,
    /// Busy PE cycles, event counts and layer rows of one inference.
    busy: u64,
    counts: EventCounts,
    layers: Vec<LayerExecution>,
}

impl Model {
    /// Seeded small-integer weights and `inputs` inputs for `network`, with
    /// their expected outputs from the tensor reference chain.
    fn new(label: String, network: Network, seed: u64, salt: u64, inputs: usize) -> Self {
        let base = seed.wrapping_mul(1_000_003).wrapping_add(salt * 1_000);
        let weights = conformance_weights(&network, base);
        let inputs: Vec<Tensor> = (0..inputs as u64)
            .map(|i| conformance_input(&network, base + 500 + i))
            .collect();
        let expected = inputs
            .iter()
            .map(|x| {
                reference_network_forward(&network, x, &weights)
                    .expect("zoo generators run through the reference chain")
            })
            .collect();
        let exact = network
            .layers()
            .iter()
            .all(|l| l.activation != Activation::LeakyRelu);
        Model {
            label,
            network,
            weights,
            inputs,
            expected,
            exact,
            solo: Vec::new(),
            busy: 0,
            counts: EventCounts::default(),
            layers: Vec::new(),
        }
    }

    fn matches(&self, input: usize, output: &Tensor) -> bool {
        let expected = if self.exact {
            &self.expected[input]
        } else {
            &self.solo[input]
        };
        output.shape() == expected.shape() && output.data() == expected.data()
    }
}

/// Whether an output of a non-exact model agrees with its reference: every
/// element within [`APPROX_TOLERANCE`] but at most [`APPROX_OUTLIER_SHARE`]
/// of them. Returns the number of elements beyond the tolerance.
fn reference_agrees(output: &Tensor, reference: &Tensor) -> Result<usize, String> {
    if output.shape() != reference.shape() {
        return Err(format!("shape {} != {}", output.shape(), reference.shape()));
    }
    let beyond = output
        .data()
        .iter()
        .zip(reference.data())
        .filter(|(a, b)| (*a - *b).abs() > APPROX_TOLERANCE)
        .count();
    let allowed = (output.data().len() as f64 * APPROX_OUTLIER_SHARE).floor() as usize;
    if beyond > allowed {
        return Err(format!(
            "{beyond} elements beyond {APPROX_TOLERANCE} (at most {allowed})"
        ));
    }
    Ok(beyond)
}

fn reduced(name: &str, channels: usize) -> Network {
    zoo::reduced_generator(name, channels).expect("Table I model names")
}

/// Takes each model's expected per-inference activity from a direct run on
/// an engine configured like the server's (the simulator's timing does not
/// depend on operand values), checking its output too. Non-exact models run
/// every input, keeping the outputs as their bit-exact expectations.
fn measure_activity(
    models: &mut [Model],
    integrity: IntegrityMode,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut engine = InferenceEngine::new(GanaxMachine::paper(), POOL_THREADS);
    engine.set_integrity(integrity);
    for model in models.iter_mut() {
        let compiled = engine
            .compile(&model.network, &model.weights)
            .map_err(|e| format!("{}: compile failed: {e}", model.label))?;
        let runs = if model.exact { 1 } else { model.inputs.len() };
        for input in 0..runs {
            let run = engine
                .execute(&compiled, &model.inputs[input])
                .map_err(|e| format!("{}: execute failed: {e}", model.label))?;
            if model.exact {
                if !model.matches(input, &run.output) {
                    out.problems.push(format!(
                        "{}: engine output differs from the reference",
                        model.label
                    ));
                }
            } else {
                match reference_agrees(&run.output, &model.expected[input]) {
                    Ok(0) => {}
                    Ok(beyond) => out.notes.push(format!(
                        "{} input {input}: {beyond} element(s) beyond {APPROX_TOLERANCE} of the reference",
                        model.label
                    )),
                    Err(e) => out.problems.push(format!("{} input {input}: {e}", model.label)),
                }
            }
            model.busy = run.total_busy_pe_cycles();
            model.counts = run.total_counts();
            model.layers = run.layers;
            if !model.exact {
                model.solo.push(run.output);
            }
        }
    }
    Ok(())
}

/// The full-size DCGAN's per-layer and total busy cycles must equal the
/// pinned values.
fn check_dcgan_pins(layers: &[LayerExecution], problems: &mut Vec<String>) {
    let rows: Vec<(&str, u64)> = layers
        .iter()
        .map(|l| (l.name.as_str(), l.busy_pe_cycles))
        .collect();
    let pinned: Vec<(&str, u64)> = DCGAN_LAYERS
        .iter()
        .copied()
        .zip(DCGAN_FULL_LAYER_BUSY)
        .collect();
    if rows != pinned {
        problems.push(format!(
            "DCGAN per-layer busy cycles {rows:?} != pinned {pinned:?}"
        ));
    }
    let total: u64 = layers.iter().map(|l| l.busy_pe_cycles).sum();
    if total != DCGAN_FULL_BUSY {
        problems.push(format!(
            "DCGAN busy cycles {total} != pinned {DCGAN_FULL_BUSY}"
        ));
    }
}

/// The `setup_s` samples of a run, taken in two halves: before the timed
/// loop and after it, so that they come from two moments of the host.
#[derive(Default)]
struct Setups {
    samples: Vec<f64>,
    setups: usize,
    seconds: f64,
}

impl Setups {
    /// Builds the server again and again for one half of the samples and
    /// keeps the last one. A sample is the mean time of consecutive set-ups
    /// (engine and server construction plus registering every model) that
    /// together last at least [`SETUP_SAMPLE_S`]; a half takes
    /// [`SETUP_HALF_SAMPLES`] of them.
    fn build(
        &mut self,
        models: &[Model],
        config: ServeConfig,
    ) -> Result<(Server, Vec<ModelHandle>), String> {
        let mut kept = None;
        let half = Instant::now();
        for _ in 0..SETUP_HALF_SAMPLES {
            let (mut spent, mut count) = (0.0, 0);
            while spent < SETUP_SAMPLE_S {
                drop(kept.take());
                let start = Instant::now();
                let engine = InferenceEngine::new(GanaxMachine::paper(), POOL_THREADS);
                let server = Server::new(engine, config).map_err(|e| format!("server: {e}"))?;
                let handles = models
                    .iter()
                    .map(|m| server.register(&m.network, &m.weights))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("register: {e}"))?;
                spent += start.elapsed().as_secs_f64();
                count += 1;
                kept = Some((server, handles));
            }
            self.samples.push(spent / count as f64);
            self.setups += count;
        }
        self.seconds += half.elapsed().as_secs_f64();
        Ok(kept.expect("at least one set-up"))
    }

    /// Drops the served server, takes the second half of the samples and
    /// sets `setup_s` to the median sample of both halves.
    fn close(
        mut self,
        server: Server,
        models: &[Model],
        config: ServeConfig,
        out: &mut Outcome,
    ) -> Result<(), String> {
        drop(server);
        drop(self.build(models, config)?);
        out.metrics.set("setup_s", median(&self.samples), "s");
        out.notes.push(format!(
            "setup_s: {} set-ups in {:.2} s, samples {:?}",
            self.setups, self.seconds, self.samples
        ));
        Ok(())
    }
}

/// Per-request bookkeeping of one phase of a run.
#[derive(Default)]
struct Ledger {
    sent: u64,
    /// Requests answered with the expected output.
    ok: u64,
    errors: Vec<String>,
    busy: u64,
    counts: EventCounts,
    latency_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl Ledger {
    /// Folds another ledger of the same phase into this one.
    fn absorb(&mut self, other: Ledger) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors.extend(other.errors);
        self.busy += other.busy;
        self.counts += other.counts;
        self.latency_ms.extend(other.latency_ms);
        self.traced_ms.extend(other.traced_ms);
        self.untraced_ms.extend(other.untraced_ms);
        self.queue_ms.extend(other.queue_ms);
        self.exec_ms.extend(other.exec_ms);
        self.overhead_ms.extend(other.overhead_ms);
    }

    /// Records one resolved request; `latency_ms` is the client's view.
    /// Returns whether it was served with the expected output.
    fn settle(
        &mut self,
        model: &Model,
        input: usize,
        result: Result<Response, ServeError>,
        latency_ms: f64,
        traced: bool,
    ) -> bool {
        self.sent += 1;
        let response = match result {
            Ok(response) => response,
            Err(e) => {
                self.errors.push(format!("{}: {e}", model.label));
                return false;
            }
        };
        // The server did the work whether or not the output is right.
        self.busy += model.busy;
        self.counts += model.counts;
        if !model.matches(input, &response.output) {
            self.errors
                .push(format!("{}: wrong output for input {input}", model.label));
            return false;
        }
        self.ok += 1;
        self.latency_ms.push(latency_ms);
        if traced {
            self.traced_ms.push(latency_ms);
        } else {
            self.untraced_ms.push(latency_ms);
        }
        self.queue_ms.push(response.queue_seconds * 1e3);
        self.exec_ms.push(response.exec_seconds * 1e3);
        self.overhead_ms.push(
            (response.latency_seconds - response.queue_seconds - response.exec_seconds) * 1e3,
        );
        true
    }
}

/// Submits one request and waits for it, timing it from the client's side.
fn round_trip(
    server: &Server,
    handle: ModelHandle,
    input: &Tensor,
) -> (Result<Response, ServeError>, f64, Instant) {
    let start = Instant::now();
    let result = server
        .submit(handle, input.clone())
        .and_then(|ticket| ticket.wait());
    (result, start.elapsed().as_secs_f64() * 1e3, start)
}

/// Checks the correctness gate and the counter conservation of a finished
/// phase, and fills `attempted`, `failed` and `ok_frac`.
fn settle_run(out: &mut Outcome, warm: &Ledger, timed: &Ledger, stats: &ServeStats) {
    for ledger in [warm, timed] {
        out.problems.extend(ledger.errors.iter().take(5).cloned());
    }
    let busy = warm.busy + timed.busy;
    if stats.busy_pe_cycles != busy {
        out.problems.push(format!(
            "server busy cycles {} != {busy} expected from the served requests",
            stats.busy_pe_cycles
        ));
    }
    if stats.counts != warm.counts + timed.counts {
        out.problems
            .push("server event counts differ from the served requests' sum".into());
    }
    out.attempted = timed.sent.max(1);
    out.failed = timed.sent - timed.ok + warm.sent - warm.ok;
    out.metrics
        .set("ok_frac", timed.ok as f64 / out.attempted as f64, "ratio");
}

/// `sim_busy_cycles`: the simulated busy PE cycles of one inference of the
/// workload's model mix, `shares[i]` parts of `models[i]`. The simulator's
/// timing does not depend on operand values, so this is exact and the same
/// for every seed; the conservation check ties it to the server's counters.
fn mix_busy_cycles(out: &mut Outcome, models: &[Model], shares: &[usize]) {
    let parts: usize = shares.iter().sum();
    let busy: u64 = models
        .iter()
        .zip(shares)
        .map(|(m, &s)| m.busy * s as u64)
        .sum();
    out.metrics
        .set("sim_busy_cycles", busy as f64 / parts as f64, "cycles");
}

/// The latency and throughput metrics of a closed loop: the median, the
/// tail percentile of [`tail_rank`], and requests served correctly per
/// second.
fn closed_loop_metrics(out: &mut Outcome, ledger: &Ledger, seconds: f64) {
    let mut lat = ledger.latency_ms.clone();
    lat.sort_by(f64::total_cmp);
    let (p50, tail) = match lat.len() {
        0 => (f64::NAN, f64::NAN),
        n => (lat[n.div_ceil(2) - 1], lat[tail_rank(n, TAIL_BEYOND) - 1]),
    };
    let m = &mut out.metrics;
    m.set("latency_p50_ms", p50, "ms");
    m.set("latency_tail_ms", tail, "ms");
    m.set("throughput_rps", ledger.ok as f64 / seconds, "1/s");
    let n = lat.len().max(1);
    out.notes.push(format!(
        "{} requests in {seconds:.3} s; latency_tail_ms is the p{:.1} ({} samples beyond it)",
        lat.len(),
        100.0 * tail_rank(n, TAIL_BEYOND) as f64 / n as f64,
        n - tail_rank(n, TAIL_BEYOND)
    ));
}

fn delta(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}

/// The `serve.*`, `engine.*` counter and `trace.*` latency metrics of the
/// timed phase.
fn layer_metrics(out: &mut Outcome, ledger: &Ledger, before: &ServeStats, after: &ServeStats) {
    let m = &mut out.metrics;
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
    m.set("serve.queue_ms.p50", p(&ledger.queue_ms, 50.0), "ms");
    m.set("serve.queue_ms.p90", p(&ledger.queue_ms, 90.0), "ms");
    m.set("serve.exec_ms.p50", p(&ledger.exec_ms, 50.0), "ms");
    m.set("serve.overhead_ms.p50", p(&ledger.overhead_ms, 50.0), "ms");
    m.set(
        "serve.plan_ms.total",
        (after.plan_seconds - before.plan_seconds) * 1e3,
        "ms",
    );
    let hits = delta(after.cache_hits, before.cache_hits);
    let lookups = hits + delta(after.plan_builds, before.plan_builds);
    m.set(
        "serve.cache_hit_ratio",
        if lookups == 0.0 { 1.0 } else { hits / lookups },
        "ratio",
    );
    let completed = delta(after.completed, before.completed).max(1.0);
    let waves = delta(after.waves, before.waves).max(1.0);
    m.set("serve.mean_wave", completed / waves, "requests");
    m.set(
        "serve.batched_frac",
        delta(after.batched_requests, before.batched_requests) / completed,
        "ratio",
    );
    for (name, end, start) in [
        ("serve.retries", after.retries, before.retries),
        ("serve.rejected", after.rejected, before.rejected),
        ("engine.respawns", after.respawns, before.respawns),
        (
            "engine.requeued_shards",
            after.requeued_shards,
            before.requeued_shards,
        ),
        (
            "engine.integrity_violations",
            after.integrity_violations,
            before.integrity_violations,
        ),
        ("engine.rows_healed", after.rows_healed, before.rows_healed),
        (
            "engine.integrity_undetected",
            after.integrity_undetected,
            before.integrity_undetected,
        ),
    ] {
        m.set(name, delta(end, start), "count");
    }
    m.set(
        "engine.integrity_checks_per_inf",
        delta(after.integrity_checks, before.integrity_checks) / completed,
        "count",
    );
    let traced = p(&ledger.traced_ms, 50.0);
    let untraced = p(&ledger.untraced_ms, 50.0);
    m.set("trace.latency_p50_ms.traced", traced, "ms");
    m.set("trace.latency_p50_ms.untraced", untraced, "ms");
    m.set("trace.overhead_ms", traced - untraced, "ms");
    out.notes.push(format!(
        "traced run: {} traced and {} untraced requests",
        ledger.traced_ms.len(),
        ledger.untraced_ms.len()
    ));
}

/// Closes a run: conservation, correctness and the per-phase metrics.
fn finish(
    out: &mut Outcome,
    server: &Server,
    warm: &Ledger,
    timed: &Ledger,
    before: &ServeStats,
    trace: bool,
) {
    let after = server.stats();
    settle_run(out, warm, timed, &after);
    if trace {
        layer_metrics(out, timed, before, &after);
    }
}

/// `dcgan-full`: one closed-loop client, sequential requests to the
/// full-size DCGAN generator, integrity off.
fn dcgan_full(opts: &Options, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut models = [Model::new(
        DCGAN_FULL.into(),
        zoo::dcgan().generator,
        opts.seed,
        0,
        DCGAN_FULL_INPUTS,
    )];
    measure_activity(&mut models, IntegrityMode::Off, out)?;
    check_dcgan_pins(&models[0].layers, &mut out.problems);
    mix_busy_cycles(out, &models, &[1]);
    let mut setups = Setups::default();
    let (server, handles) = setups.build(&models, ServeConfig::default())?;
    let mut warm = Ledger::default();
    let (result, ms, _) = round_trip(&server, handles[0], &models[0].inputs[0]);
    warm.settle(&models[0], 0, result, ms, false);

    let before = server.stats();
    let (timed, seconds) = closed_loop(&server, &handles, &models, opts, tracer, 1, |_| {
        let mut rng = Rng::new(opts.seed, 1);
        move || (0, rng.below(DCGAN_FULL_INPUTS))
    });
    closed_loop_metrics(out, &timed, seconds);
    finish(out, &server, &warm, &timed, &before, opts.trace);
    setups.close(server, &models, ServeConfig::default(), out)?;
    Ok(())
}

/// Runs `clients` closed-loop clients for the measured seconds. Each sends
/// the (model, input) request its picker yields, waits for the response,
/// and sends the next; every other iteration of each client is traced.
/// Returns the settled requests and the seconds they took.
fn closed_loop<P: FnMut() -> (usize, usize) + Send>(
    server: &Server,
    handles: &[ModelHandle],
    models: &[Model],
    opts: &Options,
    tracer: &Tracer,
    clients: u64,
    picker: impl Fn(u64) -> P + Sync,
) -> (Ledger, f64) {
    let start = Instant::now();
    let ledgers: Vec<Ledger> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                let mut next = picker(client);
                scope.spawn(move || {
                    let mut ledger = Ledger::default();
                    let mut k = 0u64;
                    while start.elapsed().as_secs_f64() < opts.seconds {
                        let (model, input) = next();
                        let traced = tracer.enabled() && k.is_multiple_of(2);
                        let iteration = if traced {
                            tracer.begin("iteration", None)
                        } else {
                            None
                        };
                        let (result, ms, sent) =
                            round_trip(server, handles[model], &models[model].inputs[input]);
                        if traced {
                            let id = client << 32 | k;
                            tracer.record("request", iteration, Some(id), sent, Instant::now());
                        }
                        ledger.settle(&models[model], input, result, ms, traced);
                        tracer.end(iteration);
                        k += 1;
                    }
                    ledger
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut timed = Ledger::default();
    for ledger in ledgers {
        timed.absorb(ledger);
    }
    (timed, seconds)
}

/// `dcgan-burst-verify`: a closed loop of bursts of [`BURST`] distinct
/// requests to the 256-channel DCGAN, with ABFT verification on.
fn dcgan_burst_verify(opts: &Options, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut models = [Model::new(
        DCGAN_BURST.into(),
        reduced("DCGAN", 256),
        opts.seed,
        1,
        BURST_INPUTS,
    )];
    measure_activity(&mut models, IntegrityMode::Verify, out)?;
    mix_busy_cycles(out, &models, &[1]);
    let config = ServeConfig {
        max_batch: BURST,
        integrity: IntegrityMode::Verify,
        ..ServeConfig::default()
    };
    let mut setups = Setups::default();
    let (server, handles) = setups.build(&models, config)?;
    let model = &models[0];
    let mut rng = Rng::new(opts.seed, 1);
    let mut pool: Vec<usize> = (0..model.inputs.len()).collect();

    let burst =
        |rng: &mut Rng, pool: &mut Vec<usize>, ledger: &mut Ledger, traced: bool, base: u64| {
            let iteration = if traced {
                tracer.begin("iteration", None)
            } else {
                None
            };
            rng.shuffle(pool);
            let sent: Vec<(usize, Instant, Result<_, ServeError>)> = pool[..BURST]
                .iter()
                .map(|&i| {
                    (
                        i,
                        Instant::now(),
                        server.submit(handles[0], model.inputs[i].clone()),
                    )
                })
                .collect();
            for (k, (input, start, ticket)) in sent.into_iter().enumerate() {
                let result = ticket.and_then(|t| t.wait());
                let done = Instant::now();
                if traced {
                    tracer.record("request", iteration, Some(base + k as u64), start, done);
                }
                let ms = done.duration_since(start).as_secs_f64() * 1e3;
                ledger.settle(model, input, result, ms, traced);
            }
            tracer.end(iteration);
        };

    let mut warm = Ledger::default();
    burst(&mut rng, &mut pool, &mut warm, false, 0);

    let before = server.stats();
    let mut timed = Ledger::default();
    let start = Instant::now();
    let mut bursts = 0u64;
    while start.elapsed().as_secs_f64() < opts.seconds {
        let traced = tracer.enabled() && bursts.is_multiple_of(2);
        burst(
            &mut rng,
            &mut pool,
            &mut timed,
            traced,
            bursts * BURST as u64,
        );
        bursts += 1;
    }
    let seconds = start.elapsed().as_secs_f64();
    closed_loop_metrics(out, &timed, seconds);
    finish(out, &server, &warm, &timed, &before, opts.trace);
    setups.close(server, &models, config, out)?;
    Ok(())
}

/// Compiles `model` on `engine` inside a `compile` span, recording its time
/// and the resident memory it added.
fn probe_compile(
    engine: &InferenceEngine,
    model: &Model,
    tracer: &Tracer,
    parent: Option<SpanId>,
    out: &mut Outcome,
) -> Result<CompiledNetwork, String> {
    let rss = status_mb("VmRSS");
    let start = Instant::now();
    let compiled = tracer
        .span("compile", parent, || {
            engine.compile(&model.network, &model.weights)
        })
        .map_err(|e| format!("{}: compile failed: {e}", model.label))?;
    let label = &model.label;
    out.metrics.set(
        format!("engine.compile_ms.{label}"),
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    out.metrics.set(
        format!("engine.compile_rss_mb.{label}"),
        status_mb("VmRSS") - rss,
        "MB",
    );
    Ok(compiled)
}

/// Executes input `input` of `model` inside an `execute` span and checks the
/// output; returns the layer rows and the wall time in ms.
fn probe_execute(
    engine: &InferenceEngine,
    compiled: &CompiledNetwork,
    model: &Model,
    input: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(Vec<LayerExecution>, f64), String> {
    let start = Instant::now();
    let run = tracer
        .span("execute", parent, || {
            engine.execute(compiled, &model.inputs[input])
        })
        .map_err(|e| format!("{}: execute failed: {e}", model.label))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let agrees = if model.exact {
        model.matches(input, &run.output)
    } else {
        reference_agrees(&run.output, &model.expected[input]).is_ok()
    };
    if !agrees {
        return Err(format!(
            "{}: probe output differs from the reference",
            model.label
        ));
    }
    Ok((run.layers, ms))
}

/// The per-layer probe of a traced run: direct `compile`, `execute` and
/// `execute_batch` calls on every model any workload serves, each inside a
/// span. Identical on every workload.
fn probe(seed: u64, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let full = Model::new(DCGAN_FULL.into(), zoo::dcgan().generator, seed, 0, 1);
    let burst = Model::new(DCGAN_BURST.into(), reduced("DCGAN", 256), seed, 1, BURST);
    let zoo_models: Vec<Model> = ZOO
        .iter()
        .enumerate()
        .map(|(rank, name)| {
            let network = reduced(name, ZOO_CHANNELS);
            Model::new(zoo_label(name), network, seed, 10 + rank as u64, 1)
        })
        .collect();

    let span = tracer.begin("probe", None);
    let off = InferenceEngine::new(GanaxMachine::paper(), POOL_THREADS);
    let mut verify = InferenceEngine::new(GanaxMachine::paper(), POOL_THREADS);
    verify.set_integrity(IntegrityMode::Verify);

    // Full-size DCGAN: the sim layer table.
    {
        let compiled = probe_compile(&off, &full, tracer, span, out)?;
        let (layers, ms) = probe_execute(&off, &compiled, &full, 0, tracer, span)?;
        check_dcgan_pins(&layers, &mut out.problems);
        out.metrics
            .set(format!("engine.execute_ms.{DCGAN_FULL}"), ms, "ms");
        for layer in &layers {
            let wall_s = layer.wall_seconds;
            let name = &layer.name;
            let m = &mut out.metrics;
            m.set(format!("sim.{name}.wall_ms"), wall_s * 1e3, "ms");
            m.set(
                format!("sim.{name}.busy_cycles"),
                layer.busy_pe_cycles as f64,
                "cycles",
            );
            m.set(
                format!("sim.{name}.cycles_per_s"),
                layer.busy_pe_cycles as f64 / wall_s,
                "cycles/s",
            );
            m.set(format!("sim.{name}.balance"), layer.balance, "ratio");
            let fetches = layer.counts.local_uop_fetches + layer.counts.global_uop_fetches;
            m.set(format!("sim.{name}.uop_fetches"), fetches as f64, "count");
            m.set(
                format!("sim.{name}.alu_ops"),
                layer.counts.alu_ops as f64,
                "count",
            );
        }
    }

    // The burst model: paired Verify-vs-Off executes, then one batch.
    {
        let plain = off
            .compile(&burst.network, &burst.weights)
            .map_err(|e| format!("{}: compile failed: {e}", burst.label))?;
        let checked = probe_compile(&verify, &burst, tracer, span, out)?;
        let (mut off_ms, mut verify_ms) = (Vec::new(), Vec::new());
        for pair in 0..TAX_PAIRS {
            // Alternate which side runs first, so drift favours neither.
            for side in [pair % 2, 1 - pair % 2] {
                let (engine, compiled, times) = if side == 0 {
                    (&off, &plain, &mut off_ms)
                } else {
                    (&verify, &checked, &mut verify_ms)
                };
                let (_, ms) = probe_execute(engine, compiled, &burst, pair % BURST, tracer, span)?;
                times.push(ms);
            }
        }
        let (off_p50, verify_p50) = (median(&off_ms), median(&verify_ms));
        out.metrics
            .set(format!("engine.execute_ms.{DCGAN_BURST}"), verify_p50, "ms");
        out.metrics
            .set("engine.verify_tax", verify_p50 / off_p50 - 1.0, "ratio");
        let start = Instant::now();
        let batch = tracer
            .span("execute_batch", span, || {
                verify.execute_batch(&checked, &burst.inputs)
            })
            .map_err(|e| format!("{}: execute_batch failed: {e}", burst.label))?;
        let per_elem = start.elapsed().as_secs_f64() * 1e3 / BURST as f64;
        out.metrics
            .set("engine.execute_batch_ms_per_elem", per_elem, "ms");
        for (i, output) in batch.outputs.iter().enumerate() {
            if !burst.matches(i, output) {
                out.problems.push(format!(
                    "{}: batch element {i} differs from the reference",
                    burst.label
                ));
            }
        }
    }

    // The zoo: compile and execute each reduced generator.
    for model in &zoo_models {
        let compiled = probe_compile(&off, model, tracer, span, out)?;
        let (layers, ms) = probe_execute(&off, &compiled, model, 0, tracer, span)?;
        let busy: u64 = layers.iter().map(|l| l.busy_pe_cycles).sum();
        let label = &model.label;
        out.metrics
            .set(format!("engine.execute_ms.{label}"), ms, "ms");
        out.metrics.set(
            format!("sim.{label}.cycles_per_s"),
            busy as f64 / (ms / 1e3),
            "cycles/s",
        );
    }
    tracer.end(span);
    Ok(())
}

/// `zoo-mix`: [`ZOO_CLIENTS`] closed-loop clients, each sending a seeded
/// Zipf-skewed mix of the six reduced Table I generators back to back.
fn zoo_mix(opts: &Options, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut models: Vec<Model> = ZOO
        .iter()
        .enumerate()
        .map(|(rank, name)| {
            Model::new(
                zoo_label(name),
                reduced(name, ZOO_CHANNELS),
                opts.seed,
                10 + rank as u64,
                ZOO_INPUTS,
            )
        })
        .collect();
    measure_activity(&mut models, IntegrityMode::Off, out)?;
    mix_busy_cycles(out, &models, &zipf_block_counts(ZOO.len()));
    let config = ServeConfig {
        max_batch: 8,
        plan_cache_capacity: 4,
        ..ServeConfig::default()
    };
    let mut setups = Setups::default();
    let (server, handles) = setups.build(&models, config)?;
    let mut warm = Ledger::default();
    for (model, &handle) in models.iter().zip(&handles) {
        let (result, ms, _) = round_trip(&server, handle, &model.inputs[0]);
        warm.settle(model, 0, result, ms, false);
    }
    let before = server.stats();
    let (timed, seconds) = closed_loop(
        &server,
        &handles,
        &models,
        opts,
        tracer,
        ZOO_CLIENTS,
        |client| {
            let mut rng = Rng::new(opts.seed, 100 + client);
            let order = zipf_mix(&mut rng, ZOO.len(), ZOO_MIX_LEN);
            let mut k = 0;
            move || {
                k += 1;
                (order[(k - 1) % ZOO_MIX_LEN], rng.below(ZOO_INPUTS))
            }
        },
    );
    closed_loop_metrics(out, &timed, seconds);
    finish(out, &server, &warm, &timed, &before, opts.trace);
    setups.close(server, &models, config, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn a_held_out_seed_runs_clean() {
        // A seed never used while the benchmark was tuned.
        let opts = Options {
            seed: 90_210,
            seconds: 0.5,
            trace: false,
        };
        let out = run("zoo-mix", &opts).expect("zoo-mix runs");
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        let spec: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        for (name, value, _) in out.metrics.ordered(&spec) {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }
}
