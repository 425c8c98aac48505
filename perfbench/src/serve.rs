//! `serve_mix`: one in-process `serve_session` driven by one closed-loop
//! client.
//!
//! Set-up builds the request stream from the seed: about a thousand
//! distinct `tiga_gen` games printed to `.tg`, plus every `examples/tg`
//! objective, in a seeded order.  Each model is sent four times as inline
//! source: first as a miss, then three times as hits, a few requests
//! later.  Two of the four ask for `"controller":true`, so half of all
//! requests do.
//!
//! The client hands the session one line at a time through its reader and
//! takes the response at the writer's flush; a request's latency runs from
//! handing the line over to that flush.  Between requests, outside the
//! latency, the client checks the response: `"status":"ok"`, the expected
//! cache status, a payload byte-identical to the model's earlier payload
//! with the same controller flag (and, without the controller field, to the
//! other flag's), and a winning verdict for every objective.  In the first
//! pass it also parses the served strategy and controller of each objective
//! and of some games, and checks that they decide alike on seeded queries.
//!
//! A pass sends the whole stream to a fresh session; passes repeat until
//! `--seconds` have passed.  A traced run replays each request's layer
//! calls (parse, print, cache key, solve, minimize, compile, strategy and
//! controller print) through the public functions after its response, to
//! split the request's time.

use crate::campaign::objective_files;
use crate::trace::{self, ms, push_span, record, span};
use crate::util::{
    check_decisions, decide_queries, json_escape, json_unescape, median, median_op_s,
    minimize_and_compile, mix64, percentile, record_solve, string_field,
};
use crate::{part, Outcome};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, Read, Write};
use std::time::{Duration, Instant};
use tiga_cli::{serve_session, ServeArgs};
use tiga_gen::{generate_spec, GenConfig};
use tiga_solver::{
    parse_controller, parse_strategy, print_controller, print_strategy, solve, CompiledController,
    SolveCache, SolveOptions, Strategy,
};

/// Distinct generated games per stream.
const GAMES: usize = 1000;
/// Generated games whose served controller is decision-checked per run.
const CHECKED_GAMES: usize = 20;

struct Model {
    name: String,
    text: String,
    example: bool,
}

struct Request {
    model: usize,
    controller: bool,
    hit: bool,
    line: Vec<u8>,
}

struct Stream {
    models: Vec<Model>,
    requests: Vec<Request>,
}

fn build_stream(seed: u64, examples: &[(String, String)]) -> Stream {
    let mut models = Vec::with_capacity(GAMES + examples.len());
    let mut seen = HashSet::new();
    let config = GenConfig::default();
    let mut index = 0u64;
    while models.len() < GAMES && index < 8 * GAMES as u64 {
        let spec = generate_spec(mix64(seed ^ mix64(index)), &config);
        index += 1;
        if let Ok((system, purpose)) = spec.build() {
            let text = tiga_lang::print_system(&system, Some(&purpose));
            if seen.insert(text.clone()) {
                models.push(Model {
                    name: format!("game-{index}"),
                    text,
                    example: false,
                });
            }
        }
    }
    for (name, text) in examples {
        models.push(Model {
            name: name.clone(),
            text: text.clone(),
            example: true,
        });
    }
    // Seeded Fisher–Yates order.
    let mut order: Vec<usize> = (0..models.len()).collect();
    let mut rng = mix64(seed ^ 0x5E7E);
    for i in (1..order.len()).rev() {
        rng = mix64(rng);
        order.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    let mut requests = Vec::with_capacity(4 * models.len());
    for step in 0..order.len() + 3 {
        for k in 0..4 {
            let Some(&model) = step.checked_sub(k).and_then(|i| order.get(i)) else {
                continue;
            };
            // The objectives' flags do not depend on the seed, so every seed
            // sends the same heavy requests.
            let flag = if models[model].example {
                model % 2 == 0
            } else {
                mix64(seed ^ model as u64 ^ 0xC0DE) & 1 == 1
            };
            let controller = if k < 2 { flag } else { !flag };
            let id = requests.len() + 1;
            let line = format!(
                "{{\"id\":{id},\"model\":\"{}\"{}}}\n",
                json_escape(&models[model].text),
                if controller {
                    ",\"controller\":true"
                } else {
                    ""
                }
            );
            requests.push(Request {
                model,
                controller,
                hit: k > 0,
                line: line.into_bytes(),
            });
        }
    }
    Stream { models, requests }
}

/// Length plus two differently salted 64-bit hashes of a payload: the
/// byte-identity check compares these instead of keeping payload copies
/// (some are megabytes), which would add to the measured memory.
type Fingerprint = (usize, u64, u64);

fn fingerprint(text: &str) -> Fingerprint {
    let hash = |salt: u64| {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        text.hash(&mut h);
        h.finish()
    };
    (text.len(), hash(1), hash(2))
}

/// What the traced replay keeps per solved game (the session's cache entry).
struct ReplayEntry {
    name: String,
    winning: bool,
    strategy: Option<Strategy>,
    controller: Option<CompiledController>,
}

/// The client's state, shared by the session's reader and writer.
struct Client<'a> {
    stream: &'a Stream,
    seed: u64,
    pass: u64,
    next: usize,
    /// Request in flight: index, hand-over instant, allocations then.
    pending: Option<(usize, Instant, (u64, u64))>,
    response: Vec<u8>,
    flushed: Option<(Instant, (u64, u64))>,
    /// Fingerprints of each model's first payload without the controller
    /// field (slot 0), and of its first full payload per controller flag
    /// (slots 1 and 2).
    payloads: HashMap<(usize, usize), Fingerprint>,
    decide_checked: &'a mut HashSet<usize>,
    replay: HashMap<String, ReplayEntry>,
    latency_ms: Vec<f64>,
    hit_allocs: Vec<f64>,
    response_bytes: Vec<f64>,
    failed: u64,
    problems: Vec<String>,
}

impl Client<'_> {
    /// Called when the session asks for the next line: finishes the request
    /// in flight and returns the next line, if any.
    fn next_line(&mut self) -> Option<&[u8]> {
        if let Some((index, handed, allocs)) = self.pending.take() {
            self.finish(index, handed, allocs);
        }
        let request = self.stream.requests.get(self.next)?;
        self.next += 1;
        Some(&request.line)
    }

    fn finish(&mut self, index: usize, handed: Instant, allocs: (u64, u64)) {
        // The buffer is taken out while it is read and then put back
        // cleared, so its capacity is reused by the next response.
        let mut buffer = std::mem::take(&mut self.response);
        self.finish_response(index, handed, allocs, &buffer);
        buffer.clear();
        self.response = buffer;
    }

    fn finish_response(&mut self, index: usize, handed: Instant, allocs: (u64, u64), bytes: &[u8]) {
        let request = &self.stream.requests[index];
        let name = &self.stream.models[request.model].name;
        let Some((flushed, allocs_end)) = self.flushed.take() else {
            self.fail(format!(
                "request {} ({name}): no response flushed",
                index + 1
            ));
            return;
        };
        let latency = ms(flushed - handed);
        self.latency_ms.push(latency);
        self.response_bytes.push(bytes.len() as f64);
        let request_allocs = (allocs_end.0 - allocs.0, allocs_end.1 - allocs.1);
        if request.hit {
            self.hit_allocs.push(request_allocs.0 as f64);
        }
        let request_span = push_span(
            "serve.request",
            handed,
            flushed - handed,
            1,
            request_allocs,
            None,
            false,
        );
        let response = std::str::from_utf8(bytes).unwrap_or_default().trim_end();
        if let Err(message) = self.check(request, response) {
            self.fail(format!("request {} ({name}): {message}", index + 1));
        }
        if trace::enabled() {
            let replayed = trace::replay_under(request_span, || self.replay(request, response));
            if let Err(message) = replayed {
                self.fail(format!("request {} ({name}): replay: {message}", index + 1));
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.problems.push(message);
    }

    fn check(&mut self, request: &Request, response: &str) -> Result<(), String> {
        let at = response
            .find(",\"payload\":")
            .ok_or("no payload (error response)")?;
        let (head, payload) = (&response[..at], &response[at + 11..response.len() - 1]);
        if !head.contains("\"status\":\"ok\"") {
            return Err("status is not ok".to_string());
        }
        let expected = if request.hit {
            "\"cache\":\"hit\""
        } else {
            "\"cache\":\"miss\""
        };
        if !head.contains(expected) {
            return Err(format!("expected {expected}"));
        }
        let model = &self.stream.models[request.model];
        if model.example && !payload.contains("\"verdict\":\"winning\"") {
            return Err("objective verdict is not winning".to_string());
        }
        let core = if request.controller {
            let cut = payload
                .rfind(",\"controller\":\"")
                .ok_or("no controller field")?;
            &payload[..cut]
        } else {
            &payload[..payload.len() - 1]
        };
        let full_slot = 1 + usize::from(request.controller);
        for (slot, text) in [(0, core), (full_slot, payload)] {
            let seen = *self
                .payloads
                .entry((request.model, slot))
                .or_insert_with(|| fingerprint(text));
            if seen != fingerprint(text) {
                return Err("payload differs from the model's first payload".to_string());
            }
        }
        let checked_games = self
            .decide_checked
            .iter()
            .filter(|m| !self.stream.models[**m].example)
            .count();
        let wanted = model.example || checked_games < CHECKED_GAMES;
        if request.controller && wanted && !self.decide_checked.contains(&request.model) {
            self.decide_checked.insert(request.model);
            self.check_decisions(payload)?;
        }
        Ok(())
    }

    /// Parses the served strategy and controller and compares their
    /// decisions on a seeded query set.
    fn check_decisions(&mut self, payload: &str) -> Result<(), String> {
        // A check, not part of the op: its spans go under op 0.
        trace::set_op(0);
        let checked = self.decide_payload(payload);
        trace::set_op(self.pass);
        checked
    }

    fn decide_payload(&mut self, payload: &str) -> Result<(), String> {
        let field = |name: &str| {
            string_field(payload, name)
                .and_then(json_unescape)
                .ok_or_else(|| format!("no readable `{name}` field"))
        };
        let (strategy_text, controller_text) = (field("strategy")?, field("controller")?);
        let (strategy, t) = span("strategy.parse", || parse_strategy(&strategy_text));
        record("strategy.parse_ms", ms(t), "ms");
        let (controller, t) = span("controller.parse", || parse_controller(&controller_text));
        record("controller.parse_ms", ms(t), "ms");
        let strategy = strategy
            .map_err(|e| format!("served strategy: {e}"))?
            .strategy;
        let controller = controller
            .map_err(|e| format!("served controller: {e}"))?
            .controller;
        let (Some(strategy), Some(controller)) = (strategy, controller) else {
            return Ok(()); // a losing game: nothing to decide
        };
        let scale = tiga_testing::TestConfig::default().scale;
        let queries = decide_queries(&strategy, self.seed, 32, scale);
        let (disagreements, ns) = check_decisions(&controller, &strategy, &queries, scale);
        record("controller.decide_ns", ns, "ns");
        if disagreements > 0 {
            return Err(format!(
                "served controller disagrees with the served strategy on {disagreements} of {} queries",
                queries.len()
            ));
        }
        Ok(())
    }

    /// Re-runs the request's layer calls to split its time.
    fn replay(&mut self, request: &Request, response: &str) -> Result<(), String> {
        let text = &self.stream.models[request.model].text;
        let (model, t) = span("lang.parse", || tiga_lang::parse_model(text));
        record("lang.parse_ms", ms(t), "ms");
        let model = model.map_err(|e| format!("{e:?}"))?;
        let purpose = model.purpose.clone().ok_or("no control: line")?;
        let (canonical, t) = span("lang.print", || {
            tiga_lang::print_system(&model.system, Some(&purpose))
        });
        record("lang.print_ms", ms(t), "ms");
        let options = SolveOptions::default();
        let (key, t) = span("cache.key", || SolveCache::key(&canonical, &options));
        record("cache.key_us", t.as_secs_f64() * 1e6, "us");
        if string_field(response, "key") != Some(SolveCache::fingerprint(&key).as_str()) {
            return Err("cache key differs from the session's".to_string());
        }
        if !self.replay.contains_key(&key) {
            let before = crate::alloc::snapshot();
            let (solution, t) = span("solver.solve", || solve(&model.system, &purpose, &options));
            let after = crate::alloc::snapshot();
            let solution = solution.map_err(|e| e.to_string())?;
            record_solve(t, &solution, before, after);
            let controller = solution
                .strategy
                .as_ref()
                .map(|strategy| minimize_and_compile(strategy).0);
            self.replay.insert(
                key.clone(),
                ReplayEntry {
                    name: model.system.name().to_string(),
                    winning: solution.winning_from_initial,
                    strategy: solution.strategy,
                    controller,
                },
            );
        }
        let entry = &self.replay[&key];
        let (_, t) = span("strategy.print", || {
            print_strategy(&entry.name, entry.winning, entry.strategy.as_ref())
        });
        record("strategy.print_ms", ms(t), "ms");
        if request.controller {
            let (printed, t) = span("controller.print", || {
                print_controller(&entry.name, entry.winning, entry.controller.as_ref())
            });
            record("controller.print_ms", ms(t), "ms");
            record("controller.bytes", printed.len() as f64, "bytes");
        }
        Ok(())
    }
}

struct Reader<'c, 'a> {
    client: &'c RefCell<Client<'a>>,
    line: Vec<u8>,
    pos: usize,
}

impl Read for Reader<'_, '_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Reader<'_, '_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line.len() {
            let mut client = self.client.borrow_mut();
            self.line.clear();
            self.pos = 0;
            if let Some(line) = client.next_line() {
                self.line.extend_from_slice(line);
                let index = client.next - 1;
                client.pending = Some((index, Instant::now(), crate::alloc::snapshot()));
            }
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amount: usize) {
        self.pos = (self.pos + amount).min(self.line.len());
    }
}

struct Writer<'c, 'a> {
    client: &'c RefCell<Client<'a>>,
}

impl Write for Writer<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.client.borrow_mut().response.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let at = Instant::now();
        let allocs = crate::alloc::snapshot();
        self.client.borrow_mut().flushed = Some((at, allocs));
        Ok(())
    }
}

pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut set_up = |parts: &mut Vec<f64>| {
        let files = part(parts, objective_files)?;
        Ok(part(parts, || build_stream(seed, &files)))
    };
    let stream = crate::set_up(&mut out, &mut set_up)?;
    let (mut hit_allocs, mut response_bytes) = (Vec::new(), Vec::new());
    let mut decide_checked = HashSet::new();
    let mut passes = 0u64;
    let measuring = Instant::now();
    while passes == 0 || measuring.elapsed() < budget {
        passes += 1;
        trace::set_op(passes);
        let client = RefCell::new(Client {
            stream: &stream,
            seed,
            pass: passes,
            next: 0,
            pending: None,
            response: Vec::new(),
            flushed: None,
            payloads: HashMap::new(),
            decide_checked: &mut decide_checked,
            replay: HashMap::new(),
            latency_ms: Vec::new(),
            hit_allocs: Vec::new(),
            response_bytes: Vec::new(),
            failed: 0,
            problems: Vec::new(),
        });
        let reader = Reader {
            client: &client,
            line: Vec::new(),
            pos: 0,
        };
        let mut writer = Writer { client: &client };
        serve_session(reader, &mut writer, &ServeArgs { jobs: 1 })
            .map_err(|e| format!("serve session failed: {e}"))?;
        let client = client.into_inner();
        if client.latency_ms.len() != stream.requests.len() {
            out.problem(format!(
                "pass {passes}: {} responses to {} requests",
                client.latency_ms.len(),
                stream.requests.len()
            ));
        }
        out.attempted += stream.requests.len() as u64;
        out.failed += client.failed;
        for problem in client.problems {
            out.problem(problem);
        }
        out.repeats.push(client.latency_ms);
        hit_allocs.extend(client.hit_allocs);
        response_bytes.extend(client.response_bytes);
        crate::setups_due(&mut out, measuring.elapsed(), budget, &mut set_up)?;
    }
    trace::set_op(0);
    crate::setups_due(&mut out, budget, budget, &mut set_up)?;
    // Every observed latency of every pass.
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for pass in &out.repeats {
        for (request, latency) in stream.requests.iter().zip(pass) {
            if request.hit {
                &mut hit_ms
            } else {
                &mut miss_ms
            }
            .push(*latency);
        }
    }
    let (hits, misses) = (hit_ms.len(), miss_ms.len());
    record(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    record("serve.response_bytes", median(&response_bytes), "bytes");
    record("serve.allocs_per_hit", median(&hit_allocs), "count");
    let n = stream.requests.len();
    out.headline(
        "serve_req_per_s",
        n as f64 / median_op_s(&out.repeats).max(1e-9),
        "1/s",
        format!("{n} requests per pass, median of {passes} passes"),
    );
    for (name, values, p, what) in [
        ("serve_hit_p50_ms", &hit_ms, 50.0, "hits"),
        ("serve_hit_p99_ms", &hit_ms, 99.0, "hits"),
        ("serve_miss_p50_ms", &miss_ms, 50.0, "misses"),
        ("serve_miss_p99_ms", &miss_ms, 99.0, "misses"),
    ] {
        out.headline(
            name,
            percentile(values, p),
            "ms",
            format!("{} {what} over {passes} passes", values.len()),
        );
    }
    Ok(out)
}
