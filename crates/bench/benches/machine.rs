//! Machine-focused benches: the engine path versus the seed single-step
//! serial path, plus micro-benches of one PE chunk retired in closed form and
//! single-stepped.
//!
//! The wall-clock comparison that feeds `BENCH_machine.json` lives in the
//! `bench_machine` binary (it needs a JSON emitter, not Criterion's report);
//! this bench tracks the same hot paths under Criterion so regressions show
//! up in `cargo bench machine`.

use criterion::{criterion_group, criterion_main, Criterion};
use ganax::GanaxMachine;
use ganax_bench::{layer_tensors, machine_bench_layers};
use ganax_isa::{AddrGenKind, ExecUop};
use ganax_sim::{PeConfig, ProcessingEngine};

fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");

    // One chunk of 8 columns x 3 taps dispatched the way the machine issues
    // it: gathered linear operand streams, one output word per column, and
    // the `repeat`+`mac` pairs pushed virtually, so the PE retires the whole
    // dispatch in closed form.
    group.bench_function("pe_chunk_retire_8x3", |b| {
        let cols = 8u16;
        let taps = 3u16;
        let total = cols * taps;
        let inputs: Vec<f32> = (0..total).map(|i| i as f32 * 0.25).collect();
        let weights: Vec<f32> = (0..total).map(|i| 1.0 - i as f32 * 0.01).collect();
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        b.iter(|| {
            pe.load_input(&inputs);
            pe.load_weights(&weights);
            pe.configure_linear(AddrGenKind::Input, 0, 1, total, 1);
            pe.configure_linear(AddrGenKind::Weight, 0, 1, total, 1);
            pe.configure_linear(AddrGenKind::Output, 0, 1, cols, 1);
            pe.start_all();
            pe.set_repeat(taps);
            pe.try_push_mac_pairs(cols as usize).unwrap();
            pe.run_until_idle_burst(1_000);
            std::hint::black_box(pe.read_output(0))
        })
    });

    // The same program single-stepped: the per-cycle reference cost.
    group.bench_function("pe_chunk_single_step_8x3", |b| {
        let cols = 8u16;
        let taps = 3u16;
        let total = cols * taps;
        let inputs: Vec<f32> = (0..total).map(|i| i as f32 * 0.25).collect();
        let weights: Vec<f32> = (0..total).map(|i| 1.0 - i as f32 * 0.01).collect();
        let mut pe = ProcessingEngine::new(PeConfig::roomy());
        b.iter(|| {
            pe.load_input(&inputs);
            pe.load_weights(&weights);
            pe.configure_linear(AddrGenKind::Input, 0, 1, total, 1);
            pe.configure_linear(AddrGenKind::Weight, 0, 1, total, 1);
            pe.configure_linear(AddrGenKind::Output, 0, 1, cols, 1);
            pe.start_all();
            pe.set_repeat(taps);
            for _ in 0..cols {
                pe.push_uop(ExecUop::Repeat);
                pe.push_uop(ExecUop::Mac);
            }
            pe.run_until_idle(1_000);
            std::hint::black_box(pe.read_output(0))
        })
    });

    group.sample_size(10);
    // The mid-size tconv geometry end to end, fast vs reference.
    let layer = machine_bench_layers(true)
        .into_iter()
        .find(|l| l.name == "tconv-mid")
        .expect("bench layers include tconv-mid");
    let (input, weights) = layer_tensors(&layer, 7);
    let machine = GanaxMachine::paper();
    group.bench_function("machine_tconv_mid_fast", |b| {
        b.iter(|| {
            std::hint::black_box(
                machine
                    .execute_layer_threaded(&layer, &input, &weights, 1)
                    .unwrap()
                    .busy_pe_cycles,
            )
        })
    });
    group.bench_function("machine_tconv_mid_reference", |b| {
        b.iter(|| {
            std::hint::black_box(
                machine
                    .execute_layer_reference(&layer, &input, &weights)
                    .unwrap()
                    .busy_pe_cycles,
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_machine);
criterion_main!(benches);
