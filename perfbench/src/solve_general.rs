//! `solve-general`: in-process `Mc3Solver` solves (algorithm `general`,
//! sequential, no cache — the CLI default) over a rotation of synthetic
//! instances.

use crate::inputs::Inputs;
use crate::pipeline::{put_solve_layers, solve_traced, SolveCounts};
use crate::report::{Layers, Outcome};
use crate::server::peak_rss_mb;
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::{self, Tracer};
use mc3_core::{Certificate, Instance, Solution};
use mc3_solver::{Algorithm, Mc3Solver, ReductionScratch};
use mc3_workload::read_dataset_json;
use std::hint::black_box;
use std::time::Instant;

fn solver() -> Mc3Solver {
    Mc3Solver::new().algorithm(Algorithm::General)
}

/// The untraced run's measurements, shared with the traced run.
struct Measured {
    instances: Vec<Instance>,
    latencies_ms: Vec<f64>,
    solutions: Vec<Option<Solution>>,
}

/// One set-up: decodes every dataset document and solves the warm-up
/// instance. Returns the instances and the seconds it took.
fn set_up(inputs: &Inputs) -> std::io::Result<(Vec<Instance>, f64)> {
    let t = Instant::now();
    let instances = inputs
        .bodies
        .iter()
        .map(|b| read_dataset_json(&b[..]).map(|ds| ds.instance))
        .collect::<std::io::Result<Vec<Instance>>>()?;
    let warm = read_dataset_json(&inputs.warmup[0][..])?;
    black_box(
        solver()
            .solve_report(&warm.instance)
            .map_err(std::io::Error::other)?,
    );
    Ok((instances, t.elapsed().as_secs_f64()))
}

fn measure(
    inputs: &Inputs,
    out: &mut Outcome,
    setups: (usize, usize),
) -> std::io::Result<Measured> {
    let mut times = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..setups.0.max(1) {
        let (decoded, t) = set_up(inputs)?;
        times.push(t);
        instances = decoded;
    }

    let solver = solver();
    let mut latencies_ms = Vec::with_capacity(inputs.sequence.len());
    let mut solutions: Vec<Option<Solution>> = vec![None; instances.len()];
    for &i in &inputs.sequence {
        out.attempted += 1;
        let t = Instant::now();
        let r = solver.solve_report(black_box(&instances[i]));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(report) => match &solutions[i] {
                Some(first) if first.cost() != report.solution.cost() => {
                    out.fail(&format!("input {i}: cost changed between solves"))
                }
                Some(_) => {}
                None => solutions[i] = Some(report.solution),
            },
            Err(e) => out.fail(&format!("input {i}: {e}")),
        }
    }
    let rss = peak_rss_mb("/proc/self/status").unwrap_or(0.0);
    for _ in 0..setups.1 {
        times.push(set_up(inputs)?.1);
    }

    let lat = sorted(latencies_ms.clone());
    out.put("setup_s", median(&times));
    out.put("p50_ms", nearest_rank(&lat, 50.0).unwrap_or(0.0));
    out.put("p95_ms", nearest_rank(&lat, 95.0).unwrap_or(0.0));
    out.put("peak_rss_mb", rss);
    Ok(Measured {
        instances,
        latencies_ms,
        solutions,
    })
}

/// After the timed window: each solution's certificate, and its cost
/// against a fresh cache-off solve of the same input.
fn verify(m: &Measured, out: &mut Outcome) -> u64 {
    let mut cost_total = 0u64;
    for (i, (inst, sol)) in m.instances.iter().zip(&m.solutions).enumerate() {
        let Some(sol) = sol else { continue };
        let cert = Certificate::for_solution(inst, sol).and_then(|c| c.verify(inst, sol));
        if let Err(e) = cert {
            out.fail(&format!("input {i}: certificate: {e}"));
        }
        match solver().solve(inst) {
            Ok(r) if r.cost() == sol.cost() => {}
            Ok(r) => out.fail(&format!(
                "input {i}: cost {} != reference {}",
                sol.cost(),
                r.cost()
            )),
            Err(e) => out.fail(&format!("input {i}: reference solve: {e}")),
        }
        cost_total += sol.cost().raw();
    }
    cost_total
}

/// The untraced run: every end-to-end metric.
pub fn run(inputs: &Inputs) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let m = measure(inputs, &mut out, crate::SETUPS)?;
    let cost_total = verify(&m, &mut out);
    out.put("cost_total", cost_total as f64);
    Ok(out)
}

/// The traced run: the untraced loop for reference, then a sequential
/// replay of the same operations through the layer functions.
pub fn run_traced(inputs: &Inputs, dump_path: &std::path::Path) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let m = measure(inputs, &mut out, (1, 0))?;
    verify(&m, &mut out);
    out.print_table("solve-general, untraced reference:");
    out.metrics.clear();
    let untraced_ms = m.latencies_ms.iter().sum::<f64>() / m.latencies_ms.len().max(1) as f64;

    let mut tr = Tracer::default();
    let mut scratch = ReductionScratch::new();
    let mut counts = SolveCounts::default();
    for &i in &inputs.sequence {
        let op = tr.enter(trace::OP);
        let r = solve_traced(&mut tr, &m.instances[i], None, &mut scratch);
        tr.exit(op);
        match r {
            Ok((sol, c)) => {
                counts.add(&c);
                if m.solutions[i].as_ref().map(Solution::cost) != Some(sol.cost()) {
                    out.fail(&format!("input {i}: replayed cost {} differs", sol.cost()));
                }
            }
            Err(e) => out.fail(&format!("input {i}: replay: {e}")),
        }
    }
    std::fs::write(dump_path, trace::dump(tr.spans()))?;
    let layers = Layers::from_spans(tr.spans());

    // Kernel counters come from the telemetry registry, which counts only
    // inside a session: one counting solve per distinct input, weighted by
    // how often the sequence solves it.
    let mut greedy = 0u64;
    let mut pivots = 0u64;
    let mut decode_ms = 0.0;
    for (i, body) in inputs.bodies.iter().enumerate() {
        let t = Instant::now();
        black_box(read_dataset_json(&body[..])?);
        decode_ms += t.elapsed().as_secs_f64() * 1e3;
        let session = mc3_telemetry::Session::begin();
        let solved = solver().solve_report(&m.instances[i]);
        let report = session.finish();
        if solved.is_err() {
            out.fail(&format!("input {i}: counting solve failed"));
        }
        let weight = inputs.sequence.iter().filter(|&&k| k == i).count() as u64;
        greedy += weight
            * report
                .counters
                .get("greedy_iterations")
                .copied()
                .unwrap_or(0);
        pivots += weight * report.counters.get("lp_pivots").copied().unwrap_or(0);
    }
    let ops = inputs.sequence.len().max(1) as f64;
    layers.print("solve-general");

    let per_op = |v: u64| v as f64 / ops;
    put_solve_layers(&mut out, &layers, &counts);
    out.put("kernels.greedy_iterations", per_op(greedy));
    out.put("kernels.lp_pivots", per_op(pivots));
    out.put("io.decode_ms", decode_ms / inputs.bodies.len() as f64);
    out.put("trace.coverage_min", layers.coverage_min);
    out.put(
        "trace.overhead_pct",
        100.0 * (layers.op_ms / untraced_ms - 1.0),
    );
    Ok(out)
}
