//! The repository benchmark: end-to-end and per-layer performance of the
//! GANAX serving stack (`Server`, `InferenceEngine`, the cycle-level
//! simulator) on three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dcgan-full|zoo-mix|dcgan-burst-verify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with `--trace 1`
//! it records spans around its calls into each layer and prints every
//! per-layer metric instead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The full result
//! (with the host fingerprint and the facts behind each metric) and, on
//! traced runs, the spans are written under `.bench_out/`. The command exits
//! non-zero when any response is wrong or any counter fails to conserve.
//! See `perfbench/README.md` for the metric definitions.

mod host;
mod load;
mod metrics;
mod trace;
mod workloads;

use host::{json_string, Fingerprint};
use metrics::{json_number, per_layer, END_TO_END};
use workloads::{Options, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok((
        workload,
        Options {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = workloads::run(&workload, &opts).unwrap_or_else(|e| {
        eprintln!("{workload}: {e}");
        std::process::exit(1);
    });

    let layer_metrics = per_layer();
    let spec: Vec<(String, &str)> = if opts.trace {
        layer_metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics = outcome.metrics.ordered(&spec);
    let correct = outcome.problems.is_empty();
    let fingerprint = Fingerprint::collect();

    println!(
        "{workload} seed {} seconds {} trace {}: host {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        fingerprint.to_json()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>18.6} {unit}");
    }

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json.join(", ")
    );

    let stem = format!(
        ".bench_out/{workload}-seed{}-trace{}",
        opts.seed,
        u8::from(opts.trace)
    );
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_string(n)).collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_string(p)).collect();
    // A traced result also says which end-to-end metric each per-layer
    // metric should move.
    let moves: Vec<String> = if opts.trace {
        layer_metrics
            .iter()
            .map(|m| format!("{}: {}", json_string(&m.name), json_string(m.moves)))
            .collect()
    } else {
        Vec::new()
    };
    let report = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"host\": {},\n  \"notes\": [{}],\n  \"problems\": [{}],\n  \"moves\": {{{}}},\n  \"result\": {result}\n}}\n",
        opts.seed,
        opts.seconds,
        fingerprint.to_json(),
        notes.join(", "),
        problems.join(", "),
        moves.join(", ")
    );
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(format!("{stem}.json"), report))
        .and_then(|()| match &outcome.spans_json {
            Some(spans) => std::fs::write(format!("{stem}-spans.json"), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("could not write {stem}.json: {e}");
    }

    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
