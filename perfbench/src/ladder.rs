//! The layer ladder of a traced run: round trips through each layer's
//! public interface in turn, on the workload's own substrate, machine-type
//! pair and messages, one after another in the same process.
//!
//! * `ipcs` — raw `IpcsChannel::send`/`recv` against an echoing channel;
//! * `nd` — `Lvc::send_frame`/`recv_frame` against an echoing LVC;
//! * `lcm` — `Nucleus::request` (send, then `wait_reply`) to an echo module;
//! * `ali` — `ComMod::send_receive` to the same echo module;
//! * `gateway` — `ali` across zero, one and two gateway splices over TCP.
//!
//! A layer's self time is its round trip minus the round trip of the layer
//! below it, both medians.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ntcs::{ComMod, MachineId, MachineType, NetKind, NtcsError, Testbed, UAdd, World};
use ntcs_ipcs::Bytes;
use ntcs_nucleus::Lvc;
use ntcs_repro::messages::{Ask, Bulk};
use ntcs_wire::{encode_payload, ConvMode, Frame, FrameHeader, FrameType, InboundPayload, Message};

use crate::report::Report;
use crate::stats::median;
use crate::system::Service;
use crate::trace::{Span, SpanLog};
use crate::workloads::{ctx, Inputs, Res, Workload, WINDOW};

/// Round trips timed per rung (after a short warm-up).
const ITERS: usize = 2000;
/// Warm-up round trips per rung.
const WARMUP: usize = 50;
/// Per-call timeout on every rung.
const T: Option<Duration> = Some(Duration::from_secs(5));

/// The ladder's medians, µs.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Substrate the rungs below the gateway ran on.
    pub substrate: &'static str,
    ipcs_us: f64,
    nd_us: f64,
    lcm_us: f64,
    ali_us: f64,
    gateway_us: [f64; 3],
    encode_us: f64,
    decode_us: f64,
    header_bytes: f64,
    /// Spans recorded around every call.
    pub spans: Vec<Span>,
}

impl Ladder {
    /// Adds the ladder's metrics to `r`.
    pub fn report(&self, r: &mut Report) {
        let sub = self.substrate;
        r.put_noted("ipcs.rtt_us", self.ipcs_us, "us", format!("on {sub}"));
        r.put_noted("nd.rtt_us", self.nd_us, "us", format!("on {sub}"));
        r.put_noted("lcm.rtt_us", self.lcm_us, "us", format!("on {sub}"));
        r.put_noted("ali.rtt_us", self.ali_us, "us", format!("on {sub}"));
        for (hops, v) in self.gateway_us.iter().enumerate() {
            r.put_noted(
                &format!("gateway.rtt_{hops}hop_us"),
                *v,
                "us",
                "ali over tcp".into(),
            );
        }
        r.put("nd.self_us", self.nd_us - self.ipcs_us, "us");
        r.put("lcm.self_us", self.lcm_us - self.nd_us, "us");
        r.put("ali.self_us", self.ali_us - self.lcm_us, "us");
        r.put(
            "gateway.hop_us",
            (self.gateway_us[2] - self.gateway_us[0]) / 2.0,
            "us",
        );
        r.put("wire.encode_us", self.encode_us, "us");
        r.put("wire.decode_us", self.decode_us, "us");
        r.put("wire.header_bytes_per_msg", self.header_bytes, "bytes");
    }
}

/// The machine type a workload's client talks to.
fn peer_type(w: Workload) -> MachineType {
    match w {
        Workload::RpcLan | Workload::Churn => MachineType::Vax,
        Workload::RpcColo | Workload::StreamChain => MachineType::Sun,
    }
}

/// Runs the ladder for workload `w`.
///
/// # Errors
///
/// A rung whose deployment cannot be built or whose calls fail.
pub fn measure(w: Workload, inputs: &Inputs, epoch: Instant) -> Res<Ladder> {
    match w {
        Workload::StreamChain => {
            let msgs: Vec<Bulk> = (0..inputs.schedule.len() as u32)
                .map(|seq| Bulk {
                    seq,
                    words: inputs.bulk_for(seq).as_ref().clone(),
                })
                .take(4 * WINDOW as usize)
                .collect();
            climb(w, &msgs, epoch)
        }
        _ => {
            let msgs: Vec<Ask> = inputs
                .bodies
                .iter()
                .enumerate()
                .map(|(n, body)| Ask {
                    n: n as u32,
                    body: body.clone(),
                })
                .collect();
            climb(w, &msgs, epoch)
        }
    }
}

fn climb<M: Message + Clone>(w: Workload, msgs: &[M], epoch: Instant) -> Res<Ladder> {
    let src = MachineType::Sun;
    let dst = peer_type(w);
    let mode = ConvMode::select(src, dst);
    let kind = if w == Workload::RpcColo {
        NetKind::Shm
    } else {
        NetKind::Tcp
    };
    let mut log = SpanLog::new(true, epoch, 9);
    let payloads: Vec<Bytes> = msgs.iter().map(|m| encode_payload(m, mode, src)).collect();
    let mut l = Ladder {
        substrate: if kind == NetKind::Shm { "shm" } else { "tcp" },
        ..Ladder::default()
    };
    (l.encode_us, l.decode_us) = wire_costs(msgs, mode, src, dst, &mut log)?;
    let header = FrameHeader::new(
        FrameType::Data,
        UAdd::from_raw(0x100),
        UAdd::from_raw(0x101),
        src,
    );
    let frame = Frame::new(header, payloads[0].clone());
    l.header_bytes = (frame.encoded_len() - frame.payload.len()) as f64;
    l.ipcs_us = channel_rtt(kind, dst, &payloads, false, &mut log)?;
    l.nd_us = channel_rtt(kind, dst, &payloads, true, &mut log)?;
    (l.lcm_us, l.ali_us) = module_rtts(kind, dst, msgs, &mut log)?;
    l.gateway_us = gateway_rtts(dst, msgs, &mut log)?;
    l.spans = log.take();
    Ok(l)
}

/// Times `f` once per iteration after a warm-up; returns the median, µs.
fn timed(
    log: &mut SpanLog,
    name: &'static str,
    mut f: impl FnMut(usize, &mut SpanLog, u64) -> Res<()>,
) -> Res<f64> {
    for i in 0..WARMUP {
        f(i, &mut SpanLog::off(), 0)?;
    }
    let mut us = Vec::with_capacity(ITERS);
    for i in 0..ITERS {
        let span = log.open(name, 0, i as u64);
        let t0 = Instant::now();
        f(WARMUP + i, log, span)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        log.close(span);
    }
    Ok(median(&us).unwrap_or_default())
}

fn wire_costs<M: Message + Clone>(
    msgs: &[M],
    mode: ConvMode,
    src: MachineType,
    dst: MachineType,
    log: &mut SpanLog,
) -> Res<(f64, f64)> {
    let encode = timed(log, "wire.encode_payload", |i, _, _| {
        std::hint::black_box(encode_payload(
            std::hint::black_box(&msgs[i % msgs.len()]),
            mode,
            src,
        ));
        Ok(())
    })?;
    let inbound: Vec<InboundPayload> = msgs
        .iter()
        .map(|m| InboundPayload {
            type_id: M::TYPE_ID,
            mode,
            src_machine: src,
            bytes: encode_payload(m, mode, src),
        })
        .collect();
    let decode = timed(log, "wire.decode", |i, _, _| {
        std::hint::black_box(inbound[i % inbound.len()].decode::<M>(dst)).map_err(ctx("decode"))?;
        Ok(())
    })?;
    Ok((encode, decode))
}

/// Round trips over a bare channel (`framed == false`) or an LVC.
fn channel_rtt(
    kind: NetKind,
    dst: MachineType,
    payloads: &[Bytes],
    framed: bool,
    log: &mut SpanLog,
) -> Res<f64> {
    let world = World::new();
    let net = world.add_network(kind, "ladder");
    let a = world
        .add_machine(MachineType::Sun, "a", &[net])
        .map_err(ctx("machine"))?;
    // Shared memory only joins modules on one machine.
    let b = if kind == NetKind::Shm {
        a
    } else {
        world
            .add_machine(dst, "b", &[net])
            .map_err(ctx("machine"))?
    };
    let (addr, listener) = world
        .create_listener(b, net, "echo")
        .map_err(ctx("listen"))?;
    let echo = std::thread::Builder::new()
        .name("ladder-echo".into())
        .spawn(move || -> Res<()> {
            let chan: Arc<dyn ntcs_ipcs::IpcsChannel> =
                Arc::from(listener.accept(T).map_err(ctx("accept"))?);
            if framed {
                let lvc = Lvc::new(chan, net);
                loop {
                    match lvc.recv_frame(T) {
                        Ok(f) => lvc.send_frame(&f).map_err(ctx("echo"))?,
                        Err(NtcsError::Timeout) => {}
                        Err(_) => return Ok(()),
                    }
                }
            }
            loop {
                match chan.recv(T) {
                    Ok(b) => chan.send(b).map_err(ctx("echo"))?,
                    Err(NtcsError::Timeout) => {}
                    Err(_) => return Ok(()),
                }
            }
        })
        .expect("spawn ladder echo");
    let chan: Arc<dyn ntcs_ipcs::IpcsChannel> =
        Arc::from(world.connect(a, &addr).map_err(ctx("connect"))?);
    let result = if framed {
        let lvc = Lvc::new(Arc::clone(&chan), net);
        let header = FrameHeader::new(
            FrameType::Data,
            UAdd::from_raw(0x100),
            UAdd::from_raw(0x101),
            MachineType::Sun,
        );
        let frames: Vec<Frame> = payloads
            .iter()
            .map(|p| Frame::new(header.clone(), p.clone()))
            .collect();
        timed(log, "nd.round_trip", |i, log, span| {
            log.within("nd.send_frame", span, i as u64, || {
                lvc.send_frame(&frames[i % frames.len()])
            })
            .map_err(ctx("send_frame"))?;
            log.within("nd.recv_frame", span, i as u64, || lvc.recv_frame(T))
                .map_err(ctx("recv_frame"))?;
            Ok(())
        })
    } else {
        timed(log, "ipcs.round_trip", |i, log, span| {
            log.within("ipcs.send", span, i as u64, || {
                chan.send(payloads[i % payloads.len()].clone())
            })
            .map_err(ctx("send"))?;
            log.within("ipcs.recv", span, i as u64, || chan.recv(T))
                .map_err(ctx("recv"))?;
            Ok(())
        })
    };
    chan.close();
    let echoed = echo
        .join()
        .map_err(|_| "ladder echo panicked".to_string())?;
    let rtt = result?;
    echoed?;
    Ok(rtt)
}

/// `Nucleus::request` and `ComMod::send_receive` round trips to an echo
/// module on the workload's substrate.
fn module_rtts<M: Message + Clone>(
    kind: NetKind,
    dst: MachineType,
    msgs: &[M],
    log: &mut SpanLog,
) -> Res<(f64, f64)> {
    let mut tb = Testbed::builder();
    let wire = tb.add_network(NetKind::Tcp, "lan");
    let (client_m, server_m) = if kind == NetKind::Shm {
        let (host, _) = tb
            .add_colocated_machine(MachineType::Sun, "host", &[wire])
            .map_err(ctx("machine"))?;
        (host, host)
    } else {
        (
            tb.add_machine(MachineType::Sun, "client", &[wire])
                .map_err(ctx("machine"))?,
            tb.add_machine(dst, "server", &[wire])
                .map_err(ctx("machine"))?,
        )
    };
    tb.name_server_on(server_m);
    let testbed = tb.start().map_err(ctx("testbed"))?;
    let svc = Service::spawn(&testbed, server_m, "ladder-echo", None).map_err(ctx("service"))?;
    let client = testbed
        .module(client_m, "ladder-client")
        .map_err(ctx("client"))?;
    let to = svc.uadd();
    let nucleus = client.nucleus();
    let lcm = timed(log, "lcm.round_trip", |i, log, span| {
        log.within("lcm.request", span, i as u64, || {
            nucleus.request(to, &msgs[i % msgs.len()], T)
        })
        .map(|_| ())
        .map_err(ctx("request"))
    })?;
    let ali = ali_rtt(&client, to, msgs, log, "ali.round_trip")?;
    svc.stop();
    client.shutdown();
    Ok((lcm, ali))
}

fn ali_rtt<M: Message>(
    client: &ComMod,
    to: UAdd,
    msgs: &[M],
    log: &mut SpanLog,
    name: &'static str,
) -> Res<f64> {
    timed(log, name, |i, log, span| {
        log.within("ali.send_receive", span, i as u64, || {
            client.send_receive(to, &msgs[i % msgs.len()], T)
        })
        .map(|_| ())
        .map_err(ctx("send_receive"))
    })
}

/// `ComMod::send_receive` over TCP to echo modules zero, one and two
/// gateway splices away: net0 — gw — net1 — gw — net2.
fn gateway_rtts<M: Message>(dst: MachineType, msgs: &[M], log: &mut SpanLog) -> Res<[f64; 3]> {
    let mut tb = Testbed::builder();
    let nets: Vec<_> = (0..3)
        .map(|i| tb.add_network(NetKind::Tcp, &format!("net{i}")))
        .collect();
    let mut machine = |t, name: &str, on: &[ntcs::NetworkId]| -> Res<MachineId> {
        tb.add_machine(t, name, on).map_err(ctx("machine"))
    };
    let ns = machine(MachineType::Sun, "ns-host", &nets)?;
    let client_m = machine(MachineType::Sun, "edge0", &nets[..1])?;
    let servers = [
        machine(dst, "near0", &nets[..1])?,
        machine(dst, "edge1", &nets[1..2])?,
        machine(dst, "edge2", &nets[2..])?,
    ];
    let g0 = machine(MachineType::Apollo, "gw-host0", &nets[..2])?;
    let g1 = machine(MachineType::Apollo, "gw-host1", &nets[1..])?;
    tb.name_server_on(ns);
    let testbed = tb.start().map_err(ctx("testbed"))?;
    let gateways = [
        testbed.gateway(g0, "gw-0-1").map_err(ctx("gateway"))?,
        testbed.gateway(g1, "gw-1-2").map_err(ctx("gateway"))?,
    ];
    let client = testbed
        .module(client_m, "ladder-client")
        .map_err(ctx("client"))?;
    let names = ["gateway.0hop", "gateway.1hop", "gateway.2hop"];
    let mut out = [0.0; 3];
    for (hops, server) in servers.into_iter().enumerate() {
        let svc = Service::spawn(&testbed, server, &format!("echo{hops}"), None)
            .map_err(ctx("service"))?;
        out[hops] = ali_rtt(&client, svc.uadd(), msgs, log, names[hops])?;
        svc.stop();
    }
    client.shutdown();
    for g in &gateways {
        g.shutdown();
    }
    Ok(out)
}
