//! Shared test helpers (test builds only).

use dharma_kademlia::{KadConfig, KademliaNode};
use dharma_net::{SimConfig, SimNet};
use dharma_types::Id160;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds and bootstraps an `n`-node overlay with fast links and a large
/// MTU (tests focus on protocol behaviour, not payload limits).
pub(crate) fn overlay(n: usize, seed: u64) -> SimNet<KademliaNode> {
    overlay_with(n, seed, 1, |_| {})
}

/// [`overlay`] on `shards` event shards (1 = the serial engine), with
/// `tweak` applied to the node config every node shares.
pub(crate) fn overlay_with(
    n: usize,
    seed: u64,
    shards: usize,
    tweak: impl FnOnce(&mut KadConfig),
) -> SimNet<KademliaNode> {
    let mut net = SimNet::new(SimConfig {
        latency_min_us: 1_000,
        latency_max_us: 8_000,
        drop_rate: 0.0,
        mtu: 64 * 1024,
        seed,
        shards,
        topology: None,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = KadConfig {
        k: 8,
        alpha: 3,
        rpc_timeout_us: 300_000,
        reply_budget: 60_000,
        counters: net.counters(),
        ..KadConfig::default()
    };
    tweak(&mut cfg);
    let mut first = None;
    for i in 0..n {
        let id = Id160::random(&mut rng);
        let node = KademliaNode::new(id, i as u32, cfg.clone());
        let addr = net.add_node(node);
        if let Some(seed_contact) = &first {
            net.node_mut(addr)
                .add_seed(dharma_kademlia::Contact::clone(seed_contact));
            net.with_node(addr, |node, ctx| {
                node.bootstrap(ctx);
            });
        } else {
            first = Some(net.node(addr).contact().clone());
        }
    }
    // Loss-free overlays go idle long before the budget; it bounds the
    // set-up of overlays whose tweak arms periodic timers.
    net.run_until_idle(200_000);
    net.take_completions();
    net
}
