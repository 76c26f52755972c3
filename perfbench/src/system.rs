//! The modules the workloads run against — echo services, a stream sink —
//! and the layer counters read from the program's public metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntcs::{ComMod, Gateway, MachineId, NtcsError, Testbed, UAdd};
use ntcs_nucleus::Nucleus;
use ntcs_repro::messages::{Answer, Ask, Bulk};

/// How long a module's receive loop waits before re-checking its stop flag.
const POLL: Duration = Duration::from_millis(20);

/// Locks a mutex whose data every update leaves valid.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Raw layer counters, in the order of [`Counters`]' array.
pub const COUNTER_NAMES: [&str; 24] = [
    "lcm.circuits_opened",
    "lcm.address_faults",
    "lcm.reconnects",
    "lcm.retransmissions",
    "lcm.duplicates_suppressed",
    "lcm.dropped_messages",
    "lcm.breaker_trips",
    "lcm.dead_letters",
    "nd.flushes",
    "nd.flushed_frames",
    "nd.rx_sheds",
    "flow.stalls",
    "flow.sheds",
    "gateway.frames_relayed",
    "gateway.circuits_spliced",
    "gateway.teardowns",
    "ipcs.substrate_selects",
    "ipcs.substrate_fallbacks",
    "ipcs.substrate_handoffs",
    "naming.ns_lookups",
    "naming.invalidations",
    "naming.cache_hits",
    "naming.cache_misses",
    "naming.cache_stale",
];

/// Counter values summed over modules; deltas taken over a timed phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters(pub [u64; COUNTER_NAMES.len()]);

impl Counters {
    /// The LCM, ND and naming counters of one Nucleus.
    #[must_use]
    pub fn of_nucleus(n: &Nucleus) -> Self {
        let m = n.metrics().snapshot();
        let nd = n.nd();
        let batch = nd.batch_stats();
        Counters([
            m.circuits_opened,
            m.address_faults,
            m.reconnects,
            m.retransmissions,
            m.duplicates_suppressed,
            m.dropped_messages,
            m.breaker_trips,
            m.dead_letters,
            batch.flushes(),
            batch.flushed_frames(),
            nd.rx_shed_count(),
            m.flow_stalls,
            m.flow_sheds,
            // Splice counters: a gateway's own, added by `of_gateway`.
            0,
            0,
            0,
            m.substrate_selects,
            m.substrate_fallbacks,
            m.substrate_handoffs,
            m.ns_lookups,
            m.ns_invalidations,
            m.ns_cache_hits,
            m.ns_cache_misses,
            m.ns_cache_stale,
        ])
    }

    /// A gateway's splice counters plus those of its Nucleus.
    #[must_use]
    pub fn of_gateway(g: &Gateway) -> Self {
        let mut c = Self::of_nucleus(g.nucleus());
        let m = g.metrics();
        c.0[slot("gateway.frames_relayed")] += m.frames_relayed;
        c.0[slot("gateway.circuits_spliced")] += m.circuits_spliced;
        c.0[slot("gateway.teardowns")] += m.teardowns;
        c
    }

    /// Element-wise sum.
    #[must_use]
    pub fn plus(mut self, other: Counters) -> Self {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
        self
    }

    /// Element-wise difference, saturating at zero.
    #[must_use]
    pub fn minus(mut self, other: Counters) -> Self {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a = a.saturating_sub(b);
        }
        self
    }

    /// The counter named `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.0[slot(name)]
    }
}

fn slot(name: &str) -> usize {
    COUNTER_NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("no counter named {name}"))
}

/// When a relocating service moves, and where to.
#[derive(Debug, Clone)]
pub struct Relocation {
    /// The two machines the service alternates between.
    pub hosts: [MachineId; 2],
    /// Calls served before each successive relocation.
    pub intervals: Vec<u32>,
}

/// State a service shares with the benchmark.
#[derive(Debug, Default)]
pub struct ServiceShared {
    /// UAdd of every incarnation, in order; a reply must come from one.
    pub incarnations: Mutex<Vec<UAdd>>,
    /// The live incarnation's Nucleus and its counters at phase start.
    live: Mutex<Option<(Nucleus, Counters)>>,
    /// Counters of incarnations retired since the phase started.
    retired: Mutex<Counters>,
    /// Wall time of each relocation, ms.
    pub relocate_ms: Mutex<Vec<f64>>,
    /// Requests that did not decode as a known message.
    pub bad_requests: AtomicU64,
    /// The first error that ended the service early.
    pub error: Mutex<Option<String>>,
}

impl ServiceShared {
    /// Starts counter accounting for a timed phase.
    pub fn phase_start(&self) {
        if let Some((n, base)) = lock(&self.live).as_mut() {
            *base = Counters::of_nucleus(n);
        }
        *lock(&self.retired) = Counters::default();
    }

    /// Counters accumulated since [`ServiceShared::phase_start`].
    #[must_use]
    pub fn phase_counters(&self) -> Counters {
        let live = lock(&self.live)
            .as_ref()
            .map_or_else(Counters::default, |(n, base)| {
                Counters::of_nucleus(n).minus(*base)
            });
        live.plus(*lock(&self.retired))
    }

    fn install(&self, commod: &ComMod) {
        let old = lock(&self.live).replace((commod.nucleus().clone(), Counters::default()));
        if let Some((n, base)) = old {
            let done = Counters::of_nucleus(&n).minus(base);
            let mut retired = lock(&self.retired);
            *retired = retired.plus(done);
        }
        lock(&self.incarnations).push(commod.my_uadd());
    }
}

/// An echo service: answers `Ask` with an `Answer` carrying the same `n`
/// and body, and a `Bulk` request with the same `Bulk`. With a
/// [`Relocation`] it moves itself to the other host every so many calls.
pub struct Service {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// State shared with the benchmark.
    pub shared: Arc<ServiceShared>,
    uadd: UAdd,
}

impl Service {
    /// Binds and registers `name` on `machine` and starts serving.
    ///
    /// # Errors
    ///
    /// Binding or registration failures.
    pub fn spawn(
        testbed: &Testbed,
        machine: MachineId,
        name: &str,
        relocation: Option<Relocation>,
    ) -> ntcs::Result<Service> {
        let commod = testbed.module(machine, name)?;
        let uadd = commod.my_uadd();
        let shared = Arc::new(ServiceShared::default());
        shared.install(&commod);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (stop, shared) = (Arc::clone(&stop), Arc::clone(&shared));
            std::thread::Builder::new()
                .name(format!("svc-{name}"))
                .spawn(move || serve(commod, machine, relocation, &stop, &shared))
                .expect("spawn service thread")
        };
        Ok(Service {
            stop,
            thread: Some(thread),
            shared,
            uadd,
        })
    }

    /// The UAdd the service first registered under.
    #[must_use]
    pub fn uadd(&self) -> UAdd {
        self.uadd
    }

    /// Stops the service and waits for its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            if t.join().is_err() {
                lock(&self.shared.error).get_or_insert_with(|| "service thread panicked".into());
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.halt();
    }
}

fn serve(
    mut commod: ComMod,
    mut host: MachineId,
    relocation: Option<Relocation>,
    stop: &AtomicBool,
    shared: &ServiceShared,
) {
    let mut served: u32 = 0;
    let mut moves: usize = 0;
    while !stop.load(Ordering::SeqCst) {
        let msg = match commod.receive(Some(POLL)) {
            Ok(m) => m,
            Err(NtcsError::Timeout) => continue,
            Err(e) => {
                lock(&shared.error).get_or_insert_with(|| format!("receive: {e}"));
                break;
            }
        };
        let replied = if let Ok(a) = msg.decode::<Ask>() {
            commod.reply(
                &msg,
                &Answer {
                    n: a.n,
                    body: a.body,
                },
            )
        } else if let Ok(b) = msg.decode::<Bulk>() {
            commod.reply(&msg, &b)
        } else {
            shared.bad_requests.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        if let Err(e) = replied {
            lock(&shared.error).get_or_insert_with(|| format!("reply: {e}"));
        }
        served += 1;
        let Some(plan) = &relocation else { continue };
        if served < plan.intervals[moves % plan.intervals.len()] {
            continue;
        }
        served = 0;
        moves += 1;
        host = if host == plan.hosts[0] {
            plan.hosts[1]
        } else {
            plan.hosts[0]
        };
        let t0 = Instant::now();
        commod = match commod.relocate_to(host) {
            Ok(moved) => moved,
            Err(e) => {
                lock(&shared.error).get_or_insert_with(|| format!("relocate: {}", e.error));
                e.commod
            }
        };
        lock(&shared.relocate_ms).push(t0.elapsed().as_secs_f64() * 1e3);
        shared.install(&commod);
    }
    commod.shutdown();
}

/// What a [`Sink`] has seen.
#[derive(Debug, Default)]
pub struct SinkShared {
    /// Casts delivered in sequence with the right contents.
    pub delivered: AtomicU64,
    /// Payload bytes delivered.
    pub bytes: AtomicU64,
    /// Casts out of sequence (lost or duplicated) or with a wrong body.
    pub wrong: AtomicU64,
}

/// The `stream_chain` sink: checks each `Bulk` cast against the seeded
/// schedule — sequence number, size and contents — and answers each `Ask`
/// fence with the number of casts delivered so far.
pub struct Sink {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    commod: Arc<ComMod>,
    /// Counts shared with the benchmark.
    pub shared: Arc<SinkShared>,
}

impl Sink {
    /// Binds and registers `name` on `machine`. `expected(seq)` gives the
    /// payload the cast numbered `seq` must carry.
    ///
    /// # Errors
    ///
    /// Binding or registration failures.
    pub fn spawn(
        testbed: &Testbed,
        machine: MachineId,
        name: &str,
        expected: Arc<dyn Fn(u32) -> Arc<Vec<u32>> + Send + Sync>,
    ) -> ntcs::Result<Sink> {
        let commod = Arc::new(testbed.module(machine, name)?);
        let shared = Arc::new(SinkShared::default());
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (commod, shared, stop) =
                (Arc::clone(&commod), Arc::clone(&shared), Arc::clone(&stop));
            std::thread::Builder::new()
                .name(format!("sink-{name}"))
                .spawn(move || {
                    // The next sequence number due: TCP and the gateway
                    // splices keep casts in order, so any other number is a
                    // loss (skipped numbers) or a duplicate (older number).
                    let mut next: u64 = 0;
                    while !stop.load(Ordering::SeqCst) {
                        let msg = match commod.receive(Some(POLL)) {
                            Ok(m) => m,
                            Err(NtcsError::Timeout) => continue,
                            Err(_) => return,
                        };
                        if let Ok(b) = msg.decode::<Bulk>() {
                            let seq = u64::from(b.seq);
                            if seq < next {
                                shared.wrong.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            shared.wrong.fetch_add(seq - next, Ordering::Relaxed);
                            next = seq + 1;
                            if b.words != *expected(b.seq) {
                                shared.wrong.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            shared
                                .bytes
                                .fetch_add(4 * b.words.len() as u64, Ordering::Relaxed);
                            shared.delivered.fetch_add(1, Ordering::Release);
                        } else if let Ok(a) = msg.decode::<Ask>() {
                            let count = shared.delivered.load(Ordering::Acquire);
                            let _ = commod.reply(
                                &msg,
                                &Answer {
                                    n: a.n,
                                    body: count.to_string(),
                                },
                            );
                        } else {
                            shared.wrong.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
                .expect("spawn sink thread")
        };
        Ok(Sink {
            stop,
            thread: Some(thread),
            commod,
            shared,
        })
    }

    /// The sink's Nucleus, for counters.
    #[must_use]
    pub fn nucleus(&self) -> &Nucleus {
        self.commod.nucleus()
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.commod.shutdown();
    }
}
