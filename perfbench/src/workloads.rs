//! The four workloads.
//!
//! A round builds a fresh testbed, times set-up from testbed start through
//! the first completed operation, then drives a closed loop for a fixed
//! wall time and checks every output. Load comes from at most two threads.
//! Every module runs the default `NucleusConfig`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntcs::{ComMod, MachineType, NetKind, NtcsError, Testbed, UAdd};
use ntcs_repro::messages::{Answer, Ask, Bulk};
use ntcs_sim::SimRng;

use crate::inputs;
use crate::stats::median;
use crate::sys;
use crate::system::{lock, Counters, Relocation, Service, Sink};
use crate::trace::{Span, SpanLog};

/// A workload, by the name the command line and `BENCHMARK.json` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One caller, Sun client to Vax echo service over one TCP network.
    RpcLan,
    /// Two callers sharing one client module; co-located, over SHM.
    RpcColo,
    /// Bulk casts through two gateway splices, fenced per window.
    StreamChain,
    /// Round-robin calls to four services that keep relocating.
    Churn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::RpcLan,
        Workload::RpcColo,
        Workload::StreamChain,
        Workload::Churn,
    ];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcLan => "rpc_lan",
            Workload::RpcColo => "rpc_colo",
            Workload::StreamChain => "stream_chain",
            Workload::Churn => "churn",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Latency limit of one RPC; a slower call counts as failed.
pub const RPC_LIMIT: Duration = Duration::from_secs(1);
/// Latency limit of one `stream_chain` fence.
pub const FENCE_LIMIT: Duration = Duration::from_secs(5);
/// Casts per `stream_chain` window, each window closed by a fence call.
pub const WINDOW: u32 = 32;
const _: () = assert!(
    inputs::WINDOW_MIX[0] + inputs::WINDOW_MIX[1] + inputs::WINDOW_MIX[2] == WINDOW as usize
        && inputs::POOL.is_multiple_of(WINDOW as usize),
    "windows of the seeded mix tile the schedule"
);
/// Relocating services in `churn`.
pub const CHURN_SERVICES: usize = 4;
/// Per-attempt timeout of a `churn` call, after which it is resent.
pub const CHURN_ATTEMPT: Duration = Duration::from_millis(200);
/// Latency limit of a whole `churn` call, resends included.
pub const CHURN_LIMIT: Duration = Duration::from_secs(10);
/// A `churn` service relocates after serving this many calls (inclusive).
/// With four services called in turn, the first relocation of a round
/// comes after 10000 to 14000 calls, well inside a two-second round.
pub const CHURN_INTERVAL: (u32, u32) = (2500, 3500);

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `Ask` bodies.
    pub bodies: Vec<String>,
    /// `stream_chain` size class of each cast.
    pub schedule: Vec<u8>,
    /// `stream_chain` payload contents per size class.
    pub bulk: Vec<Arc<Vec<u32>>>,
    /// `churn` call order.
    pub order: Vec<u8>,
    /// `churn` relocation intervals per service.
    pub intervals: Vec<Vec<u32>>,
}

impl Inputs {
    /// Derives every input of `workload` from `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let root = SimRng::new(seed);
        let max_body = if workload == Workload::Churn {
            256
        } else {
            1024
        };
        let mut bulk_rng = root.fork("bulk");
        Inputs {
            bodies: inputs::bodies(&mut root.fork("bodies"), inputs::POOL, max_body),
            schedule: inputs::bulk_schedule(
                &mut root.fork("schedule"),
                inputs::POOL / WINDOW as usize,
            ),
            bulk: inputs::BULK_WORDS
                .iter()
                .map(|&w| Arc::new(inputs::bulk_words(&mut bulk_rng, w)))
                .collect(),
            order: inputs::round_robin(&mut root.fork("order"), CHURN_SERVICES, inputs::POOL),
            intervals: inputs::relocation_intervals(
                &mut root.fork("relocation"),
                CHURN_SERVICES,
                CHURN_INTERVAL.0,
                CHURN_INTERVAL.1,
            ),
        }
    }

    /// The payload cast number `seq` carries.
    #[must_use]
    pub fn bulk_for(&self, seq: u32) -> Arc<Vec<u32>> {
        let class = self.schedule[seq as usize % self.schedule.len()];
        Arc::clone(&self.bulk[usize::from(class)])
    }
}

/// What one round's timed phase produced.
#[derive(Debug, Default)]
pub struct Tally {
    /// Round trip of every completed call (fences on `stream_chain`), µs.
    pub latencies_us: Vec<f64>,
    /// `churn`: first call after a relocation until its correct reply, ms.
    pub recoveries_ms: Vec<f64>,
    /// Completed calls, or delivered casts on `stream_chain`.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, timed out or exceeded the latency limit.
    pub failed: u64,
    /// Outputs that were wrong.
    pub wrong: u64,
    /// Useful payload bytes delivered.
    pub payload_bytes: u64,
    /// `churn`: replies to superseded attempts, discarded.
    pub stale_replies: u64,
    /// `churn`: calls that needed more than one attempt.
    pub resent_calls: u64,
    /// Wall time of the timed phase.
    pub wall: Duration,
    /// Process CPU time of the timed phase, if `/proc` is readable.
    pub cpu: Option<Duration>,
    /// Layer counter deltas over the timed phase.
    pub counters: Counters,
    /// Wall time of each relocation, ms.
    pub relocate_ms: Vec<f64>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// First errors seen, for the log.
    pub errors: Vec<String>,
    /// Tallies folded into this one.
    merged: u32,
}

impl Tally {
    /// Folds another round into this one.
    pub fn merge(&mut self, o: Tally) {
        self.latencies_us.extend(o.latencies_us);
        self.recoveries_ms.extend(o.recoveries_ms);
        self.ops += o.ops;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.payload_bytes += o.payload_bytes;
        self.stale_replies += o.stale_replies;
        self.resent_calls += o.resent_calls;
        self.wall += o.wall;
        // One unreadable reading makes the total unknown.
        self.cpu = if self.merged == 0 {
            o.cpu
        } else {
            self.cpu.zip(o.cpu).map(|(a, b)| a + b)
        };
        self.merged += 1;
        self.counters = self.counters.plus(o.counters);
        self.relocate_ms.extend(o.relocate_ms);
        self.spans.extend(o.spans);
        for e in o.errors {
            self.note_error(e);
        }
    }

    fn note_error(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Resolution cost on the workload's own testbed.
#[derive(Debug, Clone, Copy)]
pub struct NamingProbe {
    /// Median `Nucleus::resolve` on a lease hit, µs.
    pub hit_us: f64,
    /// Median `Nucleus::resolve` with both cache layers invalidated, µs.
    pub cold_us: f64,
}

/// How to run one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec {
    /// Round number within the run.
    pub round: usize,
    /// Length of the timed phase.
    pub length: Duration,
    /// Record spans.
    pub traced: bool,
    /// Measure name resolution after the timed phase.
    pub probe_naming: bool,
    /// Span timestamps count from here.
    pub epoch: Instant,
}

/// One round's result.
#[derive(Debug)]
pub struct Round {
    /// Testbed start through the first completed op, s.
    pub setup_s: f64,
    /// The timed phase.
    pub tally: Tally,
    /// Resolution cost, when probed.
    pub naming: Option<NamingProbe>,
}

/// A result whose error says which step failed.
pub(crate) type Res<T> = Result<T, String>;

/// Labels an error with the step that failed.
pub(crate) fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Runs one round of `workload`.
///
/// # Errors
///
/// A testbed that cannot be built or whose first operation fails.
pub fn run_round(workload: Workload, inputs: &Inputs, spec: RoundSpec) -> Res<Round> {
    match workload {
        Workload::RpcLan => rpc_lan(inputs, spec),
        Workload::RpcColo => rpc_colo(inputs, spec),
        Workload::StreamChain => stream_chain(inputs, spec),
        Workload::Churn => churn(inputs, spec),
    }
}

/// Marks the timed phase: wall clock and process CPU time.
struct Phase {
    t0: Instant,
    cpu0: Option<Duration>,
}

impl Phase {
    fn begin() -> Phase {
        Phase {
            cpu0: sys::cpu_time(),
            t0: Instant::now(),
        }
    }

    fn end(self, tally: &mut Tally) {
        tally.wall = self.t0.elapsed();
        tally.cpu = sys::cpu_time()
            .zip(self.cpu0)
            .map(|(c1, c0)| c1.saturating_sub(c0));
    }
}

fn ask(n: u32, body: &str) -> Ask {
    Ask {
        n,
        body: body.to_owned(),
    }
}

/// One call whose reply must echo `n` and `body`.
fn checked_call(client: &ComMod, dst: UAdd, n: u32, body: &str, limit: Duration) -> Res<()> {
    let reply = client
        .send_receive(dst, &ask(n, body), Some(limit))
        .map_err(ctx("call"))?;
    let a: Answer = reply.decode().map_err(ctx("decode"))?;
    if a.n == n && a.body == body {
        Ok(())
    } else {
        Err(format!(
            "reply to {n} carried n={} and a different body",
            a.n
        ))
    }
}

/// A closed-loop caller: the next call starts when the previous returns.
fn call_loop(
    client: &ComMod,
    dst: UAdd,
    bodies: &[String],
    first: usize,
    deadline: Instant,
    log: &mut SpanLog,
) -> Tally {
    let mut t = Tally::default();
    let mut i = first;
    while Instant::now() < deadline {
        let body = &bodies[i % bodies.len()];
        let n = i as u32;
        let msg = ask(n, body);
        let op = log.open("op", 0, u64::from(n));
        let t0 = Instant::now();
        let reply = log
            .within("ali.send_receive", op, u64::from(n), || {
                client.send_receive(dst, &msg, Some(RPC_LIMIT))
            })
            .and_then(|r| log.within("wire.decode", op, u64::from(n), || r.decode::<Answer>()));
        let elapsed = t0.elapsed();
        log.close(op);
        t.attempted += 1;
        match reply {
            Ok(a) if a.n == n && a.body == *body => {
                t.ops += 1;
                t.payload_bytes += 2 * body.len() as u64;
                t.latencies_us.push(elapsed.as_secs_f64() * 1e6);
            }
            Ok(a) => {
                t.wrong += 1;
                t.note_error(format!("reply to {n} carried n={}", a.n));
            }
            Err(e) => {
                t.failed += 1;
                t.note_error(format!("call {n}: {e}"));
            }
        }
        i += 1;
    }
    t
}

/// Median `Nucleus::resolve` time of `dst`, warm and with both cache
/// layers (the nucleus lease and the NSP name cache) dropped first.
fn probe_naming(client: &ComMod, dst: UAdd) -> Res<NamingProbe> {
    let nucleus = client.nucleus();
    nucleus.resolve(dst).map_err(ctx("resolve"))?;
    let mut hits = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = Instant::now();
        nucleus.resolve(dst).map_err(ctx("resolve"))?;
        hits.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mut colds = Vec::with_capacity(300);
    for _ in 0..300 {
        nucleus.statics().invalidate(dst);
        client.nsp().cache().invalidate(dst);
        let t0 = Instant::now();
        nucleus.resolve(dst).map_err(ctx("cold resolve"))?;
        colds.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(NamingProbe {
        hit_us: median(&hits).unwrap_or_default(),
        cold_us: median(&colds).unwrap_or_default(),
    })
}

/// Moves the service-side outcome into the tally.
fn settle_service(t: &mut Tally, svc: &Service) {
    t.wrong += svc
        .shared
        .bad_requests
        .load(std::sync::atomic::Ordering::Relaxed);
    if let Some(e) = lock(&svc.shared.error).clone() {
        t.failed += 1;
        t.note_error(format!("service: {e}"));
    }
}

fn rpc_lan(inp: &Inputs, spec: RoundSpec) -> Res<Round> {
    let t_setup = Instant::now();
    let mut tb = Testbed::builder();
    let net = tb.add_network(NetKind::Tcp, "lan");
    let sun = tb
        .add_machine(MachineType::Sun, "sun", &[net])
        .map_err(ctx("machine"))?;
    let vax = tb
        .add_machine(MachineType::Vax, "vax", &[net])
        .map_err(ctx("machine"))?;
    tb.name_server_on(vax);
    let testbed = tb.start().map_err(ctx("testbed"))?;
    let svc = Service::spawn(&testbed, vax, "echo", None).map_err(ctx("service"))?;
    let client = testbed.module(sun, "caller").map_err(ctx("client"))?;
    let dst = client.locate("echo").map_err(ctx("locate"))?;
    checked_call(&client, dst, u32::MAX, "", RPC_LIMIT)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut log = SpanLog::new(spec.traced, spec.epoch, 1);
    let before = Counters::of_nucleus(client.nucleus());
    svc.shared.phase_start();
    let phase = Phase::begin();
    let deadline = Instant::now() + spec.length;
    let mut tally = call_loop(
        &client,
        dst,
        &inp.bodies,
        spec.round * 7919,
        deadline,
        &mut log,
    );
    phase.end(&mut tally);
    tally.counters = Counters::of_nucleus(client.nucleus())
        .minus(before)
        .plus(svc.shared.phase_counters());
    tally.spans = log.take();
    settle_service(&mut tally, &svc);
    let naming = spec
        .probe_naming
        .then(|| probe_naming(&client, dst))
        .transpose()?;
    svc.stop();
    client.shutdown();
    Ok(Round {
        setup_s,
        tally,
        naming,
    })
}

fn rpc_colo(inp: &Inputs, spec: RoundSpec) -> Res<Round> {
    let t_setup = Instant::now();
    let mut tb = Testbed::builder();
    let wire = tb.add_network(NetKind::Tcp, "lan");
    let (host, _shm) = tb
        .add_colocated_machine(MachineType::Sun, "host", &[wire])
        .map_err(ctx("machine"))?;
    tb.name_server_on(host);
    let testbed = tb.start().map_err(ctx("testbed"))?;
    let services = [
        Service::spawn(&testbed, host, "echo-a", None).map_err(ctx("service"))?,
        Service::spawn(&testbed, host, "echo-b", None).map_err(ctx("service"))?,
    ];
    let client = testbed.module(host, "callers").map_err(ctx("client"))?;
    let dsts = [
        client.locate("echo-a").map_err(ctx("locate"))?,
        client.locate("echo-b").map_err(ctx("locate"))?,
    ];
    for dst in dsts {
        checked_call(&client, dst, u32::MAX, "", RPC_LIMIT)?;
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let before = Counters::of_nucleus(client.nucleus());
    for s in &services {
        s.shared.phase_start();
    }
    let phase = Phase::begin();
    let deadline = Instant::now() + spec.length;
    let client = &client;
    let halves: Vec<(Tally, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = dsts
            .into_iter()
            .enumerate()
            .map(|(k, dst)| {
                scope.spawn(move || {
                    let mut log = SpanLog::new(spec.traced, spec.epoch, 1 + k as u64);
                    let first = spec.round * 7919 + k * (inputs::POOL / 2);
                    let t = call_loop(client, dst, &inp.bodies, first, deadline, &mut log);
                    (t, log.take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    for (t, spans) in halves {
        tally.merge(t);
        tally.spans.extend(spans);
    }
    phase.end(&mut tally);
    tally.counters = services.iter().fold(
        Counters::of_nucleus(client.nucleus()).minus(before),
        |c, s| c.plus(s.shared.phase_counters()),
    );
    for s in &services {
        settle_service(&mut tally, s);
    }
    let naming = spec
        .probe_naming
        .then(|| probe_naming(client, dsts[0]))
        .transpose()?;
    for s in services {
        s.stop();
    }
    client.shutdown();
    Ok(Round {
        setup_s,
        tally,
        naming,
    })
}

/// A `stream_chain` fence: a call queued behind the window just cast. The
/// reply carries how many casts the sink has delivered, which must equal
/// the number sent.
fn fence(client: &ComMod, dst: UAdd, n: u32, sent: u64) -> Res<()> {
    let reply = client
        .send_receive(dst, &ask(n, ""), Some(FENCE_LIMIT))
        .map_err(ctx("fence"))?;
    let a: Answer = reply.decode().map_err(ctx("fence decode"))?;
    if a.n == n && a.body == sent.to_string() {
        Ok(())
    } else {
        Err(format!(
            "fence {n}: sink delivered {} of {sent} casts (reply n={})",
            a.body, a.n
        ))
    }
}

fn stream_chain(inp: &Inputs, spec: RoundSpec) -> Res<Round> {
    let t_setup = Instant::now();
    let mut tb = Testbed::builder();
    let nets: Vec<_> = (0..3)
        .map(|i| tb.add_network(NetKind::Tcp, &format!("net{i}")))
        .collect();
    let machine = |tb: &mut ntcs::TestbedBuilder, t, name: &str, on: &[ntcs::NetworkId]| {
        tb.add_machine(t, name, on).map_err(ctx("machine"))
    };
    let ns = machine(&mut tb, MachineType::Sun, "ns-host", &nets)?;
    let src = machine(&mut tb, MachineType::Sun, "edge0", &nets[..1])?;
    let dst_m = machine(&mut tb, MachineType::Sun, "edge2", &nets[2..])?;
    let g0 = machine(&mut tb, MachineType::Apollo, "gw-host0", &nets[..2])?;
    let g1 = machine(&mut tb, MachineType::Apollo, "gw-host1", &nets[1..])?;
    tb.name_server_on(ns);
    let testbed = tb.start().map_err(ctx("testbed"))?;
    let gateways = [
        testbed.gateway(g0, "gw-0-1").map_err(ctx("gateway"))?,
        testbed.gateway(g1, "gw-1-2").map_err(ctx("gateway"))?,
    ];
    let expected = {
        let inp = inp.clone();
        Arc::new(move |seq: u32| inp.bulk_for(seq))
    };
    let sink = Sink::spawn(&testbed, dst_m, "sink", expected).map_err(ctx("sink"))?;
    let client = testbed.module(src, "sender").map_err(ctx("client"))?;
    let dst = client.locate("sink").map_err(ctx("locate"))?;
    fence(&client, dst, u32::MAX, 0)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    // One reusable message per size class: only `seq` changes per cast.
    let mut msgs: Vec<Bulk> = inp
        .bulk
        .iter()
        .map(|w| Bulk {
            seq: 0,
            words: w.as_ref().clone(),
        })
        .collect();
    let mut log = SpanLog::new(spec.traced, spec.epoch, 1);
    let counters = |c: &ComMod| {
        gateways.iter().fold(
            Counters::of_nucleus(c.nucleus()).plus(Counters::of_nucleus(sink.nucleus())),
            |acc, g| acc.plus(Counters::of_gateway(g)),
        )
    };
    let before = counters(&client);
    let mut tally = Tally::default();
    let phase = Phase::begin();
    let deadline = Instant::now() + spec.length;
    let mut seq: u32 = 0;
    let mut window: u32 = 0;
    while Instant::now() < deadline {
        let op = log.open("window", 0, u64::from(window));
        for _ in 0..WINDOW {
            let class = usize::from(inp.schedule[seq as usize % inp.schedule.len()]);
            let msg = &mut msgs[class];
            msg.seq = seq;
            tally.attempted += 1;
            if let Err(e) = log.within("ali.cast", op, u64::from(window), || {
                client.cast(dst, &*msg)
            }) {
                tally.failed += 1;
                tally.note_error(format!("cast {seq}: {e}"));
            }
            seq += 1;
        }
        tally.attempted += 1;
        let t0 = Instant::now();
        let fenced = log.within("ali.send_receive", op, u64::from(window), || {
            fence(&client, dst, window, u64::from(seq))
        });
        let elapsed = t0.elapsed();
        log.close(op);
        match fenced {
            Ok(()) => tally.latencies_us.push(elapsed.as_secs_f64() * 1e6),
            Err(e) => {
                tally.wrong += 1;
                tally.note_error(e);
                break;
            }
        }
        window += 1;
    }
    phase.end(&mut tally);
    tally.counters = counters(&client).minus(before);
    tally.ops = sink
        .shared
        .delivered
        .load(std::sync::atomic::Ordering::Acquire);
    tally.payload_bytes = sink.shared.bytes.load(std::sync::atomic::Ordering::Relaxed);
    tally.wrong += sink.shared.wrong.load(std::sync::atomic::Ordering::Relaxed);
    tally.spans = log.take();
    let naming = spec
        .probe_naming
        .then(|| probe_naming(&client, dst))
        .transpose()?;
    drop(sink);
    client.shutdown();
    for g in &gateways {
        g.shutdown();
    }
    Ok(Round {
        setup_s,
        tally,
        naming,
    })
}

fn churn(inp: &Inputs, spec: RoundSpec) -> Res<Round> {
    let t_setup = Instant::now();
    let mut tb = Testbed::builder();
    let net = tb.add_network(NetKind::Tcp, "lan");
    let m0 = tb
        .add_machine(MachineType::Sun, "m0", &[net])
        .map_err(ctx("machine"))?;
    let m1 = tb
        .add_machine(MachineType::Vax, "m1", &[net])
        .map_err(ctx("machine"))?;
    let m2 = tb
        .add_machine(MachineType::Apollo, "m2", &[net])
        .map_err(ctx("machine"))?;
    tb.name_server_on(m0);
    tb.ns_shard_on(m1);
    let testbed = tb.start().map_err(ctx("testbed"))?;
    let services: Vec<Service> = (0..CHURN_SERVICES)
        .map(|i| {
            let hosts = if i % 2 == 0 { [m1, m2] } else { [m2, m1] };
            let plan = Relocation {
                hosts,
                intervals: inp.intervals[i].clone(),
            };
            Service::spawn(&testbed, hosts[0], &format!("svc{i}"), Some(plan))
                .map_err(ctx("service"))
        })
        .collect::<Res<_>>()?;
    let client = testbed.commod(m0, "churn-client").map_err(ctx("client"))?;
    // The client keeps calling the UAdd it first resolved.
    let dsts: Vec<UAdd> = (0..CHURN_SERVICES)
        .map(|i| client.locate(&format!("svc{i}")).map_err(ctx("locate")))
        .collect::<Res<_>>()?;
    checked_call(&client, dsts[0], u32::MAX, "", RPC_LIMIT)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut log = SpanLog::new(spec.traced, spec.epoch, 1);
    let before = Counters::of_nucleus(client.nucleus());
    for s in &services {
        s.shared.phase_start();
    }
    let mut tally = Tally::default();
    // Incarnation of each service that answered last.
    let mut seen = [0usize; CHURN_SERVICES];
    // Request numbers that were sent more than once.
    let mut resent: HashSet<u32> = HashSet::new();
    let phase = Phase::begin();
    let deadline = Instant::now() + spec.length;
    let mut i = spec.round * 7919;
    while Instant::now() < deadline {
        let k = usize::from(inp.order[i % inp.order.len()]);
        let n = i as u32;
        let body = &inp.bodies[i % inp.bodies.len()];
        let msg = ask(n, body);
        let op = log.open("op", 0, u64::from(n));
        let t0 = Instant::now();
        tally.attempted += 1;
        let mut attempts = 0;
        let outcome = loop {
            attempts += 1;
            if attempts == 2 {
                resent.insert(n);
                tally.resent_calls += 1;
            }
            let r = log.within("ali.send_receive", op, u64::from(n), || {
                client.send_receive(dsts[k], &msg, Some(CHURN_ATTEMPT))
            });
            match r {
                Ok(reply) => break Ok(reply),
                Err(e) if t0.elapsed() >= CHURN_LIMIT => break Err(e.to_string()),
                // Lost with a retiring incarnation, or refused mid-move:
                // send again.
                Err(NtcsError::Timeout) => {}
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let elapsed = t0.elapsed();
        log.close(op);
        i += 1;
        let reply = match outcome {
            Ok(r) => r,
            Err(e) => {
                tally.failed += 1;
                tally.note_error(format!("call {n} to svc{k}: {e}"));
                continue;
            }
        };
        // The reply must echo the request and come from an incarnation of
        // the service called, never an older one than last answered.
        let incarnation = lock(&services[k].shared.incarnations)
            .iter()
            .position(|u| *u == reply.src());
        match (reply.decode::<Answer>(), incarnation) {
            (Ok(a), Some(inc)) if a.n == n && a.body == *body && inc >= seen[k] => {
                if elapsed > CHURN_LIMIT {
                    tally.failed += 1;
                } else {
                    tally.ops += 1;
                    tally.payload_bytes += 2 * body.len() as u64;
                    tally.latencies_us.push(elapsed.as_secs_f64() * 1e6);
                    if inc > seen[k] {
                        tally.recoveries_ms.push(elapsed.as_secs_f64() * 1e3);
                    }
                }
                seen[k] = inc;
            }
            (a, inc) => {
                tally.wrong += 1;
                tally.note_error(format!(
                    "call {n} to svc{k}: reply {:?} from incarnation {inc:?} (last {})",
                    a.map(|a| a.n),
                    seen[k]
                ));
            }
        }
        drain_stale(&client, &resent, &mut tally, Duration::ZERO);
    }
    phase.end(&mut tally);
    drain_stale(&client, &resent, &mut tally, Duration::from_millis(50));
    tally.counters = services.iter().fold(
        Counters::of_nucleus(client.nucleus()).minus(before),
        |c, s| c.plus(s.shared.phase_counters()),
    );
    for s in &services {
        settle_service(&mut tally, s);
        tally
            .relocate_ms
            .extend(lock(&s.shared.relocate_ms).iter().copied());
    }
    tally.spans = log.take();
    let naming = if spec.probe_naming {
        let live = *lock(&services[0].shared.incarnations)
            .last()
            .expect("a service has at least one incarnation");
        Some(probe_naming(&client, live)?)
    } else {
        None
    };
    for s in services {
        s.stop();
    }
    client.shutdown();
    Ok(Round {
        setup_s,
        tally,
        naming,
    })
}

/// Discards replies to superseded attempts. Each must answer a request
/// that was resent; anything else in the inbox is a wrong output.
fn drain_stale(client: &ComMod, resent: &HashSet<u32>, tally: &mut Tally, wait: Duration) {
    while let Ok(m) = client.receive(Some(wait)) {
        match m.decode::<Answer>() {
            Ok(a) if resent.contains(&a.n) => tally.stale_replies += 1,
            other => {
                tally.wrong += 1;
                tally.note_error(format!(
                    "unexpected message in inbox: {:?}",
                    other.map(|a| a.n)
                ));
            }
        }
    }
}
