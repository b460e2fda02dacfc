//! `serve-cold` and `serve-repeat`: a release `mc3 serve` with
//! production defaults, driven by a closed loop of at most `nproc`
//! keep-alive connections posting `/solve`.

use crate::http::{Conn, Response};
use crate::inputs::Inputs;
use crate::pipeline::{put_solve_layers, solve_traced, SolveCounts};
use crate::prom::{counter_delta, hit_ratio, Scrape};
use crate::report::{Layers, Outcome};
use crate::server::Server;
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::{self, Tracer};
use mc3_core::json::{self, Json};
use mc3_core::{stable_hash128, Certificate, FxHashMap, PropSet, Solution};
use mc3_solver::{Mc3Solver, ReductionScratch, SolveCache};
use mc3_workload::read_dataset_json;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop connections (capped at the core count).
const CONNECTIONS: usize = 2;
/// The server's default `--cache-mb`, for the replay's component cache.
const CACHE_MB: usize = 64;

/// One `/solve` exchange of the timed window.
struct Sample {
    body: usize,
    first: bool,
    latency_ms: f64,
    result: std::io::Result<Response>,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn post(conn: &mut Conn, body: &[u8]) -> std::io::Result<Vec<u8>> {
    let r = conn.request("POST", "/solve", body)?;
    if r.status == 200 {
        Ok(r.body)
    } else {
        Err(std::io::Error::other(format!(
            "status {}: {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        )))
    }
}

/// One set-up: spawns the server, waits for `/healthz` and sends the
/// warm-up bodies. Returns the server and the seconds it took.
fn set_up(mc3: &Path, inputs: &Inputs) -> std::io::Result<(Server, f64)> {
    let t = Instant::now();
    let server = Server::spawn(mc3, cores())?;
    server.wait_healthy(Duration::from_secs(30))?;
    let mut conn = Conn::connect(server.addr)?;
    for body in &inputs.warmup {
        post(&mut conn, body)?;
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// The timed window: the closed loop over `inputs.sequence`. A repeated
/// body is sent only after its first send has been answered, so repeats
/// reach the request cache on every run.
fn drive(server: &Server, inputs: &Inputs) -> Vec<Sample> {
    let seq = &inputs.sequence;
    let mut first_pos = vec![usize::MAX; inputs.bodies.len()];
    for (k, &b) in seq.iter().enumerate().rev() {
        first_pos[b] = k;
    }
    let next = AtomicUsize::new(0);
    let answered = Mutex::new(vec![false; inputs.bodies.len()]);
    let cv = Condvar::new();
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(seq.len()));
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS.min(cores()) {
            s.spawn(|| {
                let mut conn = Conn::connect(server.addr);
                loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&b) = seq.get(k) else { break };
                    let first = first_pos[b] == k;
                    if !first {
                        let mut done = answered.lock().expect("no client thread panics");
                        while !done[b] {
                            done = cv.wait(done).expect("no client thread panics");
                        }
                    }
                    let t = Instant::now();
                    let result = match &mut conn {
                        Ok(c) => c.request("POST", "/solve", &inputs.bodies[b]),
                        Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                    };
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    if result.is_err() {
                        conn = Conn::connect(server.addr);
                    }
                    if first {
                        answered.lock().expect("no client thread panics")[b] = true;
                        cv.notify_all();
                    }
                    samples
                        .lock()
                        .expect("no client thread panics")
                        .push(Sample {
                            body: b,
                            first,
                            latency_ms,
                            result,
                        });
                }
            });
        }
    });
    samples.into_inner().expect("no client thread panics")
}

/// What the served run measured, shared with the traced run.
struct Served {
    samples: Vec<Sample>,
    before: Scrape,
    after: Scrape,
    /// Verified served cost per distinct body.
    costs: Vec<Option<u64>>,
    /// `wall_ns.total` of each answered first send, ms.
    solve_ms: Vec<f64>,
}

fn parse_answer(resp: &[u8]) -> Option<(u64, Vec<PropSet>, f64)> {
    let doc = json::parse(std::str::from_utf8(resp).ok()?).ok()?;
    let cost = doc.get("cost")?.as_u64()?;
    let classifiers = doc
        .get("classifiers")?
        .as_array()?
        .iter()
        .map(|c| {
            let ids: Option<Vec<u32>> = c.as_array()?.iter().map(Json::as_u32).collect();
            ids.map(PropSet::from_ids)
        })
        .collect::<Option<Vec<PropSet>>>()?;
    let wall = doc.get("wall_ns")?.get("total")?.as_u64()? as f64 / 1e6;
    Some((cost, classifiers, wall))
}

/// After the timed window: every answer's certificate, and its cost
/// against an in-process cache-off solve of the same body. Identical
/// answers to one body are certified once.
fn verify(inputs: &Inputs, served: &mut Served, out: &mut Outcome) {
    let n = inputs.datasets.len();
    let mut reference: Vec<Option<u64>> = vec![None; n];
    let mut certified: Vec<Option<(u64, Vec<PropSet>)>> = vec![None; n];
    for s in &served.samples {
        out.attempted += 1;
        let b = s.body;
        let resp = match &s.result {
            Ok(r) if r.status == 200 => &r.body,
            Ok(r) => {
                out.fail(&format!("body {b}: status {}", r.status));
                continue;
            }
            Err(e) => {
                out.fail(&format!("body {b}: {e}"));
                continue;
            }
        };
        let Some((cost, classifiers, wall_ms)) = parse_answer(resp) else {
            out.fail(&format!("body {b}: unreadable answer"));
            continue;
        };
        if s.first {
            served.solve_ms.push(wall_ms);
        }
        if certified[b].as_ref() == Some(&(cost, classifiers.clone())) {
            continue;
        }
        let inst = &inputs.datasets[b].instance;
        let sol = match Solution::new(inst, classifiers.clone()) {
            Ok(sol) if sol.cost().raw() == cost => sol,
            Ok(sol) => {
                out.fail(&format!("body {b}: answered cost {cost} != {}", sol.cost()));
                continue;
            }
            Err(e) => {
                out.fail(&format!("body {b}: {e}"));
                continue;
            }
        };
        if let Err(e) = Certificate::for_solution(inst, &sol).and_then(|c| c.verify(inst, &sol)) {
            out.fail(&format!("body {b}: certificate: {e}"));
            continue;
        }
        let want = match reference[b] {
            Some(c) => c,
            None => match Mc3Solver::new().solve(inst) {
                Ok(r) => *reference[b].insert(r.cost().raw()),
                Err(e) => {
                    out.fail(&format!("body {b}: reference solve: {e}"));
                    continue;
                }
            },
        };
        if cost != want {
            out.fail(&format!(
                "body {b}: cost {cost} != cache-off reference {want}"
            ));
            continue;
        }
        served.costs[b] = Some(cost);
        certified[b] = Some((cost, classifiers));
    }
}

fn serve(
    mc3: &Path,
    inputs: &Inputs,
    out: &mut Outcome,
    setups: (usize, usize),
) -> std::io::Result<Served> {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..setups.0.max(1) {
        drop(server.take());
        let (s, t) = set_up(mc3, inputs)?;
        times.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up ran");
    let before = server.scrape()?;
    let samples = drive(&server, inputs);
    let after = server.scrape()?;
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    drop(server);
    for _ in 0..setups.1 {
        times.push(set_up(mc3, inputs)?.1);
    }
    let setup_s = median(&times);

    let lat = sorted(samples.iter().map(|s| s.latency_ms).collect());
    out.put("setup_s", setup_s);
    out.put("p50_ms", nearest_rank(&lat, 50.0).unwrap_or(0.0));
    out.put("p95_ms", nearest_rank(&lat, 95.0).unwrap_or(0.0));
    out.put("peak_rss_mb", rss);
    let mut served = Served {
        costs: vec![None; inputs.bodies.len()],
        samples,
        before,
        after,
        solve_ms: Vec::new(),
    };
    verify(inputs, &mut served, out);
    Ok(served)
}

/// The untraced run: every end-to-end metric.
pub fn run(mc3: &Path, inputs: &Inputs) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let served = serve(mc3, inputs, &mut out, crate::SETUPS)?;
    let cost_total: u64 = served.costs.iter().flatten().sum();
    out.put("cost_total", cost_total as f64);
    Ok(out)
}

/// The traced run: the served run (for `/metrics` deltas, bytes and
/// client latency), then a sequential in-process replay of the same
/// requests through the `/solve` handler's stages against a component
/// cache warmed with the same warm-up bodies.
pub fn run_traced(
    mc3: &Path,
    inputs: &Inputs,
    workload: &str,
    dump_path: &Path,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let served = serve(mc3, inputs, &mut out, (1, 0))?;
    out.print_table(&format!("{workload}, untraced reference:"));
    out.metrics.clear();

    let cache = SolveCache::with_capacity_mb(CACHE_MB);
    let mut scratch = ReductionScratch::new();
    for body in &inputs.warmup {
        let ds = read_dataset_json(&body[..])?;
        solve_traced(
            &mut Tracer::default(),
            &ds.instance,
            Some(&cache),
            &mut scratch,
        )
        .map_err(std::io::Error::other)?;
    }
    let mut tr = Tracer::default();
    let mut counts = SolveCounts::default();
    let mut answers: FxHashMap<u128, Json> = FxHashMap::default();
    let mut request_hits = 0u64;
    for &b in &inputs.sequence {
        let body = &inputs.bodies[b];
        let op = tr.enter(trace::OP);
        let key = tr.time("server.request_cache", || stable_hash128(&words(body)));
        if let Some(doc) = tr.time("server.request_cache", || answers.get(&key).cloned()) {
            request_hits += 1;
            tr.time("server.encode", || {
                std::hint::black_box(doc.to_string_pretty())
            });
            tr.exit(op);
            continue;
        }
        let ds = tr.time("io.decode", || read_dataset_json(&body[..]))?;
        let solved = solve_traced(&mut tr, &ds.instance, Some(&cache), &mut scratch);
        let (sol, c) = match solved {
            Ok(x) => x,
            Err(e) => {
                tr.exit(op);
                out.fail(&format!("body {b}: replay: {e}"));
                continue;
            }
        };
        counts.add(&c);
        let cert = tr.time("core.certificate", || {
            Certificate::for_solution(&ds.instance, &sol).and_then(|c| c.verify(&ds.instance, &sol))
        });
        let doc = tr.time("server.encode", || {
            let doc = answer_doc(&sol, c.components);
            std::hint::black_box(doc.to_string_pretty());
            doc
        });
        tr.time("server.request_cache", || answers.insert(key, doc));
        tr.exit(op);
        if let Err(e) = cert {
            out.fail(&format!("body {b}: replayed certificate: {e}"));
        }
        if served.costs[b] != Some(sol.cost().raw()) {
            out.fail(&format!(
                "body {b}: replayed cost {} differs from the served one",
                sol.cost()
            ));
        }
    }
    std::fs::write(dump_path, trace::dump(tr.spans()))?;
    let layers = Layers::from_spans(tr.spans());
    layers.print(workload);

    let (b, a) = (&served.before, &served.after);
    let d = |name: &str| counter_delta(b, a, name);
    let served_lookups = d("mc3_cache_hits_total") + d("mc3_cache_misses_total");
    println!(
        "component cache: served {} hits / {} lookups, replayed {} / {}; request cache: served {} hits, replayed {}",
        d("mc3_cache_hits_total"),
        served_lookups,
        counts.hits,
        counts.lookups,
        d("mc3_request_cache_hits_total"),
        request_hits
    );
    if served_lookups != counts.lookups as f64
        || d("mc3_request_cache_hits_total") != request_hits as f64
    {
        out.fail("the replay's cache lookups differ from the served /metrics deltas");
    }

    let ops = inputs.sequence.len().max(1) as f64;
    let per_op = |v: f64| v / ops;
    let tasks = d("mc3_exec_tasks_total");
    let latency_sum: f64 = served.samples.iter().map(|s| s.latency_ms).sum();
    let solve_sum: f64 = served.solve_ms.iter().sum();
    let kib = |f: fn(&Response) -> usize| {
        let sum: usize = served
            .samples
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .map(f)
            .sum();
        sum as f64 / 1024.0 / ops
    };
    put_solve_layers(&mut out, &layers, &counts);
    out.put(
        "solver.cache.hit_ratio",
        hit_ratio(b, a, "mc3_cache_hits_total", "mc3_cache_misses_total"),
    );
    out.put("solver.cache.lookups", per_op(served_lookups));
    out.put(
        "server.request_cache.hit_ratio",
        hit_ratio(
            b,
            a,
            "mc3_request_cache_hits_total",
            "mc3_request_cache_misses_total",
        ),
    );
    out.put("server.request_cache.ms", layers.ms("server.request_cache"));
    out.put("solver.executor.tasks", per_op(tasks));
    out.put("solver.executor.steals", per_op(d("mc3_exec_steals_total")));
    out.put(
        "solver.executor.wait_ms",
        if tasks > 0.0 {
            d("mc3_exec_wait_ns_sum") / tasks / 1e6
        } else {
            0.0
        },
    );
    out.put(
        "solver.executor.park_ms",
        per_op(d("mc3_exec_park_ns_total") / 1e6),
    );
    out.put(
        "kernels.greedy_iterations",
        per_op(d("mc3_greedy_iterations_total")),
    );
    out.put("kernels.lp_pivots", per_op(d("mc3_lp_pivots_total")));
    out.put("core.certificate.ms", layers.ms("core.certificate"));
    out.put("io.decode_ms", layers.ms("io.decode"));
    out.put("server.encode_ms", layers.ms("server.encode"));
    out.put("server.request_kb", kib(|r| r.sent));
    out.put("server.response_kb", kib(|r| r.received));
    out.put("server.solve_ms", solve_sum / ops);
    out.put("server.outside_solve_ms", (latency_sum - solve_sum) / ops);
    out.put("server.dropped", d("mc3_requests_dropped_total"));
    out.put("trace.coverage_min", layers.coverage_min);
    out.put(
        "trace.overhead_pct",
        100.0 * (layers.op_ms / (latency_sum / ops) - 1.0),
    );
    Ok(out)
}

/// A body as little-endian words for the exact-body key.
fn words(body: &[u8]) -> Vec<u64> {
    let mut w: Vec<u64> = body
        .chunks(8)
        .map(|c| {
            let mut x = [0u8; 8];
            x[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(x)
        })
        .collect();
    w.push(body.len() as u64);
    w
}

/// The response document `/solve` renders for a solution.
fn answer_doc(sol: &Solution, components: u64) -> Json {
    Json::object([
        ("cost", Json::Int(i128::from(sol.cost().raw()))),
        (
            "classifiers",
            Json::array(
                sol.classifiers()
                    .iter()
                    .map(|c| Json::array(c.iter().map(|p| Json::Int(i128::from(p.0))))),
            ),
        ),
        ("components", Json::Int(i128::from(components))),
    ])
}
