//! A shut-down module must be freeable.
//!
//! The handles a Nucleus holds often point back at it: the NSP-Layer
//! resolver and its invalidation intercept, a gateway's splice handler, a
//! dead-letter sink. `Nucleus::shutdown` drops them all, so once the
//! module's reader and acceptor threads exit, dropping the last handle
//! frees the Nucleus. Without that, every relocated or stopped module
//! leaks its whole binding for the life of the process.

use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use ntcs::{
    AttrQuery, ComMod, DeadLetter, DeadLetterHook, Gateway, MachineType, NetKind, UAdd,
    WeakNucleus, World,
};
use ntcs_naming::{NameServer, NameServerConfig};

/// Whether the Nucleus behind `weak` is freed within a generous bound
/// (its threads notice the shutdown within their poll intervals).
fn freed(weak: &WeakNucleus) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if weak.upgrade().is_none() {
            return true;
        }
        sleep(Duration::from_millis(20));
    }
    false
}

struct Ignore;

impl DeadLetterHook for Ignore {
    fn dead_letter(&self, _letter: &DeadLetter) {}
}

#[test]
fn shut_down_commod_is_freed() {
    let world = World::new();
    let net = world.add_network(NetKind::Mbx, "lan");
    let host = world.add_machine(MachineType::Sun, "host", &[net]).unwrap();
    let mut ns = NameServer::spawn(&world, NameServerConfig::primary(host)).unwrap();
    let module = ComMod::bind(
        &world,
        host,
        "leaky",
        vec![(UAdd::NAME_SERVER, ns.phys_addrs())],
        vec![UAdd::NAME_SERVER],
    )
    .unwrap();
    module.set_dead_letter_hook(Arc::new(Ignore));
    // Exercise the resolver: registration and a lookup over the NS circuit.
    let me = module.register("leaky").unwrap();
    assert_eq!(module.locate("leaky").unwrap(), me);

    let weak = module.nucleus().downgrade();
    module.shutdown();
    drop(module);
    assert!(
        freed(&weak),
        "a shut-down ComMod's Nucleus is still referenced"
    );
    ns.shutdown();
}

#[test]
fn shut_down_gateway_is_freed() {
    let world = World::new();
    let a = world.add_network(NetKind::Mbx, "net-a");
    let b = world.add_network(NetKind::Mbx, "net-b");
    let ns_host = world.add_machine(MachineType::Sun, "ns", &[a, b]).unwrap();
    let mut ns = NameServer::spawn(&world, NameServerConfig::primary(ns_host)).unwrap();
    let gw_host = world
        .add_machine(MachineType::Apollo, "gw", &[a, b])
        .unwrap();
    let gw = Gateway::spawn(&world, gw_host, "gw-a-b", ns.phys_addrs()).unwrap();
    // The gateway registered through its resolver; a locate proves the
    // naming path is live before it shuts down.
    let probe = ComMod::bind(
        &world,
        ns_host,
        "probe",
        vec![(UAdd::NAME_SERVER, ns.phys_addrs())],
        vec![UAdd::NAME_SERVER],
    )
    .unwrap();
    assert_eq!(
        probe
            .nsp()
            .locate(&AttrQuery::by_name("gw-a-b").unwrap())
            .unwrap(),
        gw.uadd()
    );

    let weak = gw.nucleus().downgrade();
    gw.shutdown();
    drop(gw);
    assert!(
        freed(&weak),
        "a shut-down Gateway's Nucleus is still referenced"
    );
    probe.shutdown();
    ns.shutdown();
}
