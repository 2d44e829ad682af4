//! One round of a workload: build the overlay, preload it, run the timed
//! phase, and account every op.
//!
//! Writes go through [`DharmaClient`], so the paper's primitives are what
//! gets timed. Reads go through [`World::get`], which issues
//! `KademliaNode::get` and steps the serial engine one event at a time,
//! stopping at the event that completes the op: its virtual latency is
//! exact. The client cannot be used for reads: its `wait_for` runs
//! 1024-event batches past the completion, so the virtual time a client
//! observes is time-to-quiesce, not time-to-complete.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dharma_cache::PopularityConfig;
use dharma_core::{ApproxPolicy, DharmaClient, DharmaConfig};
use dharma_folksonomy::{Fg, ResId, TagId, Trg};
use dharma_kademlia::messages::FetchedValue;
use dharma_kademlia::{KadOutput, KademliaNode, LatencyConfig, StoredEntry};
use dharma_likir::CertificationAuthority;
use dharma_net::{Ctx, NetCounters, SimNet, TopologyConfig};
use dharma_sim::overlay::{build_overlay, OverlayConfig};
use dharma_sim::{CacheSimConfig, FreshSimConfig, LatencySimConfig};
use dharma_types::{block_key, BlockType, Id160, VersionStamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{res_id, res_name, tag_id, tag_name, Inputs, Op, Workload, CLIENTS};
use crate::trace::{ClientKind, Tracer};

/// Index-side filtering limit of a search step's `GET t̂` (paper: 100).
pub const TOP_N: u32 = 100;
/// Lookup attempts per driver GET on a lossy overlay before a value
/// counts as missing (the client's own retry budget, 1 + `op_retries`).
/// On a loss-free overlay a lookup that finds nothing is final.
const LOSSY_GET_ATTEMPTS: u32 = 3;
/// Event budget of one driver op before it counts as failed.
const OP_EVENT_BUDGET: u64 = 2_000_000;
/// Safety bound on search-session length (sessions converge long before).
const MAX_SESSION_STEPS: usize = 50;
/// §V-C stop rule: `|R| ≤ 10` or `|T| ≤ 1`.
const RESOURCE_STOP: usize = 10;
const TAG_STOP: usize = 1;

/// Overlay size of a workload.
pub fn nodes_of(workload: Workload) -> usize {
    match workload {
        Workload::MixedGeo => 64,
        _ => 128,
    }
}

/// The overlay of one instance. Node ids, link delays and the engine's
/// RNG depend on the instance only, never on `--seed`: like a fixed test
/// cluster, the same overlays serve every seed's inputs.
fn overlay_config(workload: Workload, instance: u64) -> OverlayConfig {
    let base = OverlayConfig {
        nodes: nodes_of(workload),
        seed: 0x0E7A_0000 + instance,
        ..OverlayConfig::default()
    };
    match workload {
        // The paper's plain overlay: k = 20, uniform 1–10 ms, no loss.
        Workload::TagReplay => base,
        Workload::SearchZipf => OverlayConfig {
            k: CacheSimConfig::default().k,
            cache: Some(CacheSimConfig::ablation_cache()),
            replication: Some(CacheSimConfig::ablation_replication()),
            ..base
        },
        Workload::MixedGeo => {
            let lat = LatencySimConfig::default();
            OverlayConfig {
                k: lat.k,
                alpha: lat.alpha,
                // The latency ablation's clusters and 1% link loss, without
                // its 25%-loss cluster: that cluster cuts some blocks off
                // from some homes for good, so reads would fail however
                // often they are retried (see README, findings).
                topology: Some(TopologyConfig {
                    lossy_cluster: None,
                    ..LatencySimConfig::ablation_topology()
                }),
                latency: Some(LatencyConfig::default()),
                maintenance: Some(LatencySimConfig::ablation_maintenance()),
                cache: Some(FreshSimConfig::ablation_cache()),
                freshness: Some(FreshSimConfig::ablation_freshness_push()),
                // Popularity tracking only (digests rank hot keys), as in
                // the freshness ablation: promotion never triggers.
                replication: Some(PopularityConfig {
                    hot_threshold: f64::INFINITY,
                    ..PopularityConfig::default()
                }),
                ..base
            }
        }
    }
}

/// The overlay plus the writer clients, and the driver for reads.
pub struct World {
    pub net: SimNet<KademliaNode>,
    pub counters: NetCounters,
    pub clients: Vec<DharmaClient>,
    pub nodes: usize,
    get_attempts: u32,
    pub tracer: Option<Tracer>,
}

/// What a driver op returned, and what it cost.
pub struct Driven {
    pub out: Option<KadOutput>,
    pub virtual_us: u64,
    pub events: u64,
}

impl World {
    /// Builds instance `instance`'s overlay with writer clients whose
    /// Approximation A draws come from `input_seed`.
    pub fn build(workload: Workload, instance: u64, input_seed: u64) -> World {
        let cfg = overlay_config(workload, instance);
        let mut net = build_overlay(&cfg);
        if cfg.topology.is_some() {
            join_retries(&mut net, cfg.nodes);
        }
        let counters = net.counters();
        let ca = CertificationAuthority::new(b"dharma-e2e-bench");
        let clients = (0..CLIENTS)
            .map(|i| {
                let home = (i * cfg.nodes / CLIENTS) as u32;
                let config = DharmaConfig::builder()
                    .policy(ApproxPolicy::paper(1))
                    .seed(input_seed ^ (i as u64) << 8)
                    .build()
                    .expect("benchmark client config is in range");
                DharmaClient::new(home, ca.register(&format!("writer-{i}"), 0), config)
            })
            .collect();
        World {
            net,
            counters,
            clients,
            nodes: cfg.nodes,
            get_attempts: if cfg.topology.is_some() {
                LOSSY_GET_ATTEMPTS
            } else {
                1
            },
            tracer: None,
        }
    }

    /// Issues one overlay op on `home` and steps the engine one event at a
    /// time until that op completes (or the queue drains, or the budget
    /// runs out: then `out` is `None`).
    pub fn drive(
        &mut self,
        home: u32,
        issue: impl FnOnce(&mut KademliaNode, &mut Ctx<KadOutput>) -> u64,
    ) -> Driven {
        let t0 = self.net.now_us();
        let e0 = self.net.events_processed();
        let op = self.net.with_node(home, issue);
        let mut out = None;
        loop {
            let done = self
                .net
                .take_completions_from()
                .into_iter()
                .find(|&(addr, id, _)| addr == home && id == op);
            if let Some((_, _, o)) = done {
                out = Some(o);
                break;
            }
            if self.net.events_processed() - e0 >= OP_EVENT_BUDGET {
                break;
            }
            let stepped = match self.tracer.as_mut() {
                Some(tr) => {
                    let s = Instant::now();
                    let stepped = self.net.step();
                    tr.step(s.elapsed().as_nanos() as u64);
                    stepped
                }
                None => self.net.step(),
            };
            if !stepped {
                break;
            }
        }
        Driven {
            out,
            virtual_us: self.net.now_us() - t0,
            events: self.net.events_processed() - e0,
        }
    }

    /// A filtered GET, re-issued while the value is missing, up to
    /// `get_attempts` lookups. Returns the value, the lookups spent, and
    /// the virtual time from first issue to completion.
    fn get(
        &mut self,
        home: u32,
        key: Id160,
        top_n: u32,
        t: &mut Tally,
    ) -> (Option<FetchedValue>, u32, u64) {
        let mut elapsed = 0u64;
        let mut attempt = 0;
        loop {
            attempt += 1;
            t.rejoins += u64::from(self.rejoin_if_isolated(home));
            let bytes0 = self.counters.bytes_sent();
            if let Some(tr) = self.tracer.as_mut() {
                tr.begin_get(home, key, top_n);
            }
            let started = Instant::now();
            let d = self.drive(home, |n, ctx| n.get(ctx, key, top_n));
            let wall_ns = started.elapsed().as_nanos() as u64;
            elapsed += d.virtual_us;
            let (value, messages) = match d.out {
                Some(KadOutput::Value { value, messages }) => (value, messages),
                _ => (None, 0),
            };
            t.gets += 1;
            t.get_events += d.events;
            t.get_msgs += u64::from(messages);
            t.get_virtual_us.push(d.virtual_us);
            if let Some(tr) = self.tracer.as_mut() {
                tr.end_get(wall_ns, self.counters.bytes_sent() - bytes0);
            }
            if value.is_some() {
                t.gets_found += 1;
                return (value, attempt, elapsed);
            }
            if attempt == self.get_attempts {
                return (None, attempt, elapsed);
            }
        }
    }

    /// An append driven to completion; `(acks, targets)` when it completed.
    pub fn append(
        &mut self,
        home: u32,
        key: Id160,
        entries: Vec<StoredEntry>,
    ) -> Option<(u32, u32)> {
        match self
            .drive(home, |n, ctx| n.append_many(ctx, key, entries))
            .out
        {
            Some(KadOutput::Written { acks, targets, .. }) => Some((acks, targets)),
            _ => None,
        }
    }

    /// Re-joins `home` through the rendezvous when loss has left it with
    /// fewer than three contacts — the join retry the latency ablation
    /// runs at start-up, applied wherever an op is about to be issued.
    /// Returns whether it re-joined.
    pub fn rejoin_if_isolated(&mut self, home: u32) -> bool {
        if home == 0 || self.net.node(home).routing().len() >= 3 {
            return false;
        }
        let rendezvous = self.net.node(0).contact().clone();
        self.net.node_mut(home).add_seed(rendezvous);
        self.drive(home, |n, ctx| n.bootstrap(ctx));
        true
    }

    /// Nodes whose storage holds `key`.
    pub fn holders(&self, key: &Id160) -> impl Iterator<Item = u32> + '_ {
        let key = *key;
        (0..self.nodes as u32).filter(move |&a| self.net.node(a).storage().contains(&key))
    }

    /// The highest stamp any writer client's session has for `key`.
    fn writer_floor(&self, key: &Id160) -> VersionStamp {
        self.clients
            .iter()
            .map(|c| c.session().floor(key))
            .max()
            .unwrap_or(VersionStamp::ZERO)
    }
}

/// Re-bootstraps nodes a lossy join left with fewer than three contacts
/// (the latency ablation's join retries).
fn join_retries(net: &mut SimNet<KademliaNode>, nodes: usize) {
    let rendezvous = net.node(0).contact().clone();
    for _ in 0..8 {
        let strays: Vec<u32> = (1..nodes as u32)
            .filter(|a| net.node(*a).routing().len() < 3)
            .collect();
        if strays.is_empty() {
            break;
        }
        for a in strays {
            net.node_mut(a).add_seed(rendezvous.clone());
            net.with_node(a, |n, ctx| {
                n.bootstrap(ctx);
            });
        }
        net.run_until(net.now_us() + 2_000_000);
        net.take_completions();
    }
}

/// Writes every preload block with one overlay append from a spread of
/// nodes. A block that reached no holder at all (possible on the lossy
/// topology) is appended again once the network had time to deliver
/// every datagram of the first attempt — safe, because nobody applied it.
pub fn preload(world: &mut World, inputs: &Inputs) {
    for (i, block) in inputs.preload.iter().enumerate() {
        for attempt in 0..4 {
            let writer = ((i + attempt * 13) % world.nodes) as u32;
            world.rejoin_if_isolated(writer);
            world.append(writer, block.key, block.entries.clone());
            if world.holders(&block.key).next().is_some() {
                break;
            }
            let settle = world.net.now_us() + 1_000_000;
            world.net.run_until(settle);
            world.net.take_completions();
            if world.holders(&block.key).next().is_some() {
                break;
            }
        }
    }
}

/// Everything deterministic a round measures. Two rounds at one seed must
/// produce equal tallies (compared through their `Debug` form).
///
/// The timed phase is the whole op list, except on `tag-replay`: there it
/// is the replay, and the read-back sessions after it are checked and
/// feed the search latencies but not the per-op figures.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub inserts: u64,
    pub tags: u64,
    pub sessions: u64,
    pub steps: u64,
    /// Overlay lookups: client receipts plus driver GET attempts.
    pub lookups: u64,
    /// Table I: `2 + 2m` per insert, `4 + min(k, |Tags(r) \ {t}|)` per
    /// tag, 2 per search step.
    pub table1_lookups: u64,
    /// Ops and lookups of the timed phase.
    pub timed_ops: u64,
    pub timed_lookups: u64,
    /// Virtual time per search step (both GETs, retries included).
    pub step_virtual_us: Vec<u64>,
    /// Driver GET attempts, their events, lookup datagrams and latency.
    pub gets: u64,
    pub gets_found: u64,
    pub get_events: u64,
    pub get_msgs: u64,
    pub get_virtual_us: Vec<u64>,
    /// Reads of keys a writer client wrote, and those served below the
    /// writers' session floor.
    pub written_reads: u64,
    pub stale_reads: u64,
    /// Tags whose client judged `newly_attached` differently from the
    /// written state (it reads `r̄` with eventual consistency).
    pub false_attaches: u64,
    /// Search steps that served more than was written (`mixed-geo`; on
    /// the exact workloads that is a violation instead).
    pub phantom_reads: u64,
    /// Homes re-joined because loss had emptied their routing table.
    pub rejoins: u64,
    /// Counter deltas over the timed phase and over the whole round.
    pub timed: Counters,
    pub round: Counters,
    /// Read and storage hotspots of the timed phase.
    pub max_load_ratio: f64,
    pub max_store_ratio: f64,
    /// `search-zipf` first steps: `(seed tag, |T|, |R|)`.
    pub first_steps: Vec<(TagId, usize, usize)>,
    /// Failed correctness checks, with a reason each.
    pub violations: Vec<String>,
}

impl Tally {
    pub fn violation(&mut self, msg: String) {
        // Keep the report readable; the count is what fails the run.
        if self.violations.len() < 20 {
            self.violations.push(msg);
        } else if self.violations.len() == 20 {
            self.violations.push("…further violations omitted".into());
        }
    }

    /// Ends the timed phase that began at `start`.
    fn close_timed(&mut self, w: &World, start: &Counters) {
        self.timed_ops = self.ops;
        self.timed_lookups = self.lookups;
        self.timed = Counters::take(w).since(start);
        self.max_load_ratio = max_over_mean(&self.timed.load);
        let store: Vec<u64> = (0..w.nodes as u32)
            .map(|a| w.net.node(a).storage().heap_bytes() as u64)
            .collect();
        self.max_store_ratio = max_over_mean(&store);
    }
}

/// The shared counters and the engine's event count, as a snapshot or as
/// the delta between two snapshots.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub events: u64,
    pub sent: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub timers: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub stale_drops: u64,
    pub revalidations: u64,
    pub pushes: u64,
    pub alpha_widened: u64,
    pub rtt_samples: u64,
    pub maint_msgs: u64,
    /// `KademliaNode::gets_served`, per node.
    pub load: Vec<u64>,
}

impl Counters {
    fn take(w: &World) -> Counters {
        let c = &w.counters;
        Counters {
            events: w.net.events_processed(),
            sent: c.sent(),
            bytes: c.bytes_sent(),
            dropped: c.dropped(),
            timers: c.timers_fired(),
            cache_hits: c.cache_hits(),
            cache_misses: c.cache_misses(),
            stale_drops: c.stale_drops(),
            revalidations: c.revalidations(),
            pushes: c.invalidate_pushes(),
            alpha_widened: c.alpha_widened(),
            rtt_samples: c.rtt_samples(),
            maint_msgs: c.maintenance_messages(),
            load: (0..w.nodes as u32)
                .map(|a| w.net.node(a).gets_served())
                .collect(),
        }
    }

    /// What grew from `before` to this snapshot.
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            events: self.events - before.events,
            sent: self.sent - before.sent,
            bytes: self.bytes - before.bytes,
            dropped: self.dropped - before.dropped,
            timers: self.timers - before.timers,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            stale_drops: self.stale_drops - before.stale_drops,
            revalidations: self.revalidations - before.revalidations,
            pushes: self.pushes - before.pushes,
            alpha_widened: self.alpha_widened - before.alpha_widened,
            rtt_samples: self.rtt_samples - before.rtt_samples,
            maint_msgs: self.maint_msgs - before.maint_msgs,
            load: self
                .load
                .iter()
                .zip(&before.load)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

fn max_over_mean(v: &[u64]) -> f64 {
    let sum: u64 = v.iter().sum();
    if sum == 0 {
        return 1.0;
    }
    let max = v.iter().copied().max().unwrap_or(0);
    max as f64 * v.len() as f64 / sum as f64
}

/// What the benchmark expects the overlay to hold, kept as writes are
/// issued: the written TRG and an upper bound on every `t̂` weight.
pub struct Expected {
    pub trg: Trg,
    /// Exact FG of the workload's state, the bound on approximated `t̂`.
    /// `None` for `tag-replay`, whose bound is derived after the replay.
    pub fg: Option<Fg>,
    /// Static, loss-free workload: reads must equal the expectation, and
    /// a client's `r̄` read sees exactly the written `Tags(r)`. Otherwise
    /// reads must stay within what was written.
    pub exact: bool,
    /// `t̂` blocks hold the exact FG (preloaded, never approximated).
    pub exact_fg: bool,
    /// Keys of the preloaded blocks.
    pub preloaded: BTreeSet<Id160>,
}

impl Expected {
    pub fn new(inputs: &Inputs) -> Expected {
        let preloaded = inputs.preload.iter().map(|b| b.key).collect();
        match inputs.workload {
            Workload::TagReplay => Expected {
                trg: Trg::new(),
                fg: None,
                exact: true,
                exact_fg: false,
                preloaded,
            },
            Workload::SearchZipf => Expected {
                trg: inputs.dataset.trg.clone(),
                fg: Some(inputs.exact_fg.clone()),
                exact: true,
                exact_fg: true,
                preloaded,
            },
            Workload::MixedGeo => Expected {
                trg: inputs.dataset.trg.clone(),
                fg: Some(inputs.exact_fg.clone()),
                exact: false,
                exact_fg: false,
                preloaded,
            },
        }
    }

    /// Records one annotation `(t, r)`. Returns `Tags(r) \ {t}` as it was
    /// before, and whether `t` is new on `r`.
    fn annotate(&mut self, tag: TagId, res: ResId) -> (Vec<TagId>, bool) {
        let others: Vec<TagId> = self
            .trg
            .tags_of(res)
            .map(|(t, _)| t)
            .filter(|&t| t != tag)
            .collect();
        let newly = self.trg.weight(tag, res) == 0;
        self.trg.add_annotation(tag, res);
        if let Some(fg) = self.fg.as_mut() {
            // sim(τ, t) = Σ_{r ∈ Res(τ)} u(t, r) grows by one for every
            // τ on r; sim(t, τ) gains u(τ, r) when t is new on r.
            for &tau in &others {
                fg.add_sim(tau, tag, 1);
                if newly {
                    let u = u64::from(self.trg.weight(tau, res));
                    fg.add_sim(tag, tau, u);
                }
            }
        }
        (others, newly)
    }
}

/// Timing of one round, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTimes {
    pub generate_s: f64,
    pub build_s: f64,
    pub preload_s: f64,
    /// Wall time of the timed phase minus the benchmark's own checks.
    pub ops_s: f64,
}

impl RoundTimes {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.preload_s
    }
}

/// Shortest window the timed phase's throughput is sampled over.
const RATE_WINDOW_S: f64 = 0.1;

/// One complete round.
pub struct Round {
    pub inputs: Inputs,
    pub world: World,
    pub expected: Expected,
    pub tally: Tally,
    pub times: RoundTimes,
    /// Ops per second of the timed phase (checks excluded) in windows
    /// from one input op's end to the first end `RATE_WINDOW_S` later.
    pub rates: Vec<f64>,
}

/// Sets up and runs one round of `instance`: the instance's overlay, and
/// inputs generated from `seed` and the instance. `traced` attaches span
/// recording to the timed phase.
pub fn run_round(workload: Workload, seed: u64, instance: u64, traced: bool) -> Round {
    let input_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ instance;
    let t = Instant::now();
    let inputs = Inputs::generate(workload, input_seed, nodes_of(workload));
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut world = World::build(workload, instance, input_seed);
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    preload(&mut world, &inputs);
    let preload_s = t.elapsed().as_secs_f64();

    if traced {
        world.tracer = Some(Tracer::default());
    }
    let mut expected = Expected::new(&inputs);
    let mut tally = Tally::default();
    let start = Counters::take(&world);
    let clock = Instant::now();
    let mut check_s = 0.0;
    let mut ops_s = None;
    let mut rates = Vec::new();
    let (mut window_s, mut window_ops) = (0.0, 0u64);
    for op in &inputs.ops {
        match *op {
            Op::Insert { client, res, tag } => {
                run_insert(&mut world, &mut expected, &mut tally, client, res, tag)
            }
            Op::Tag { client, res, tag } => {
                run_tag(&mut world, &mut expected, &mut tally, client, res, tag)
            }
            Op::Session {
                home,
                seed_tag,
                rng_seed,
            } => {
                if expected.fg.is_none() {
                    // The replay, `tag-replay`'s timed phase, is over. Read
                    // back, bounded by the replay's exact FG.
                    ops_s = Some(clock.elapsed().as_secs_f64() - check_s);
                    tally.close_timed(&world, &start);
                    expected.fg = Some(Fg::derive_exact(&expected.trg));
                }
                run_session(
                    &mut world,
                    workload,
                    &expected,
                    &mut tally,
                    &mut check_s,
                    home,
                    seed_tag,
                    rng_seed,
                )
            }
        }
        if ops_s.is_none() {
            let now = clock.elapsed().as_secs_f64() - check_s;
            if now - window_s >= RATE_WINDOW_S {
                rates.push((tally.ops - window_ops) as f64 / (now - window_s));
                (window_s, window_ops) = (now, tally.ops);
            }
        }
    }
    let ops_s = ops_s.unwrap_or_else(|| {
        tally.close_timed(&world, &start);
        clock.elapsed().as_secs_f64() - check_s
    });
    tally.round = Counters::take(&world).since(&start);
    Round {
        inputs,
        world,
        expected,
        tally,
        times: RoundTimes {
            generate_s,
            build_s,
            preload_s,
            ops_s,
        },
        rates,
    }
}

/// Runs a client primitive, accounting its events, virtual time and
/// (when traced) its span.
pub fn client_call<R>(
    world: &mut World,
    client: usize,
    t: &mut Tally,
    kind: ClientKind,
    call: impl FnOnce(&mut DharmaClient, &mut SimNet<KademliaNode>) -> dharma_types::Result<(R, u32)>,
) -> Option<R> {
    let home = world.clients[client].home();
    t.rejoins += u64::from(world.rejoin_if_isolated(home));
    let e0 = world.net.events_processed();
    let v0 = world.net.now_us();
    let sent0 = world.counters.sent();
    let started = Instant::now();
    let out = call(&mut world.clients[client], &mut world.net);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let events = world.net.events_processed() - e0;
    let virtual_us = world.net.now_us() - v0;
    t.ops += 1;
    let lookups = out.as_ref().map(|(_, l)| *l).unwrap_or(0);
    if let Some(tr) = world.tracer.as_mut() {
        tr.client(
            kind,
            wall_ns,
            events,
            world.counters.sent() - sent0,
            virtual_us,
            lookups,
        );
    }
    match out {
        Ok((r, l)) => {
            t.lookups += u64::from(l);
            Some(r)
        }
        Err(_) => {
            t.failed += 1;
            None
        }
    }
}

fn run_insert(
    w: &mut World,
    x: &mut Expected,
    t: &mut Tally,
    client: usize,
    res: ResId,
    tag: TagId,
) {
    let (r, tn) = (res_name(res), tag_name(tag));
    let uri = format!("uri://{r}");
    let done = client_call(w, client, t, ClientKind::Insert, |c, net| {
        c.insert_resource(net, &r, &uri, &[tn.as_str()])
            .map(|cost| ((), cost.lookups))
    });
    if done.is_none() && x.exact {
        t.violation(format!(
            "insert_resource({r}, {tn}) failed on a loss-free overlay"
        ));
    }
    x.annotate(tag, res);
    t.inserts += 1;
    // Table I: 2 + 2m with m = 1.
    t.table1_lookups += 4;
}

fn run_tag(w: &mut World, x: &mut Expected, t: &mut Tally, client: usize, res: ResId, tag: TagId) {
    let (r, tn) = (res_name(res), tag_name(tag));
    let k = ApproxPolicy::paper(1)
        .connection_k
        .expect("paper policy sets k");
    let receipt = client_call(w, client, t, ClientKind::Tag, |c, net| {
        c.tag(net, &r, &tn).map(|rc| {
            let l = rc.cost.lookups;
            (rc, l)
        })
    });
    let (others, newly) = x.annotate(tag, res);
    t.tags += 1;
    let Some(rc) = receipt else {
        if x.exact {
            t.violation(format!("tag({r}, {tn}) failed on a loss-free overlay"));
        }
        return;
    };
    // Table I over the neighbourhood the client saw (a lossy `r̄` read can
    // miss tags; loss-free, it must be the written one, checked below).
    t.table1_lookups += 4 + rc.neighborhood.min(k) as u64;
    if x.exact && rc.neighborhood != others.len() {
        t.violation(format!(
            "tag({r}, {tn}): client saw |Tags(r) \\ {{t}}| = {}, expected {}",
            rc.neighborhood,
            others.len()
        ));
    }
    if rc.newly_attached != newly {
        // The client judged "newly attached" from an incomplete or stale
        // `r̄` view. Told it is new, it appends a forward arc (t, τ) of one
        // token for each τ it saw: that is written data, so the `t̂` bound
        // grows by exactly that.
        t.false_attaches += 1;
        if x.exact {
            t.violation(format!(
                "tag({r}, {tn}): client judged newly_attached = {}",
                rc.newly_attached
            ));
        }
        if let (true, Some(fg)) = (rc.newly_attached, x.fg.as_mut()) {
            for &tau in &others {
                fg.add_sim(tag, tau, 1);
            }
        }
    }
}

/// What one search step shows: candidate tags with their weights, and
/// resource names.
type StepView = (Vec<(String, u64)>, Vec<String>);

/// One search step: `GET t̂` at top 100, then `GET t̄`. Returns the
/// candidate and resource views, or `None` when a value is missing.
fn search_step(
    w: &mut World,
    x: &Expected,
    t: &mut Tally,
    check_s: &mut f64,
    home: u32,
    tag: TagId,
    first: bool,
) -> Option<StepView> {
    let name = tag_name(tag);
    let hat_key = block_key(&name, BlockType::TagNeighbors);
    let bar_key = block_key(&name, BlockType::TagResources);
    let (hat, l1, v1) = w.get(home, hat_key, TOP_N, t);
    let (bar, l2, v2) = w.get(home, bar_key, 0, t);
    t.ops += 1;
    t.steps += 1;
    t.lookups += u64::from(l1 + l2);
    t.table1_lookups += 2;
    t.step_virtual_us.push(v1 + v2);
    // Under Approximation A a tag's `t̂` may never have received an arc:
    // its updates were all empty, and an empty append stores nothing. A
    // `t̂` that was not preloaded and that no node holds reads as empty.
    // Any other value the lookups did not find was written: the op fails,
    // and on a loss-free workload that is a violation too.
    let started = Instant::now();
    let hat = match hat {
        None if !x.preloaded.contains(&hat_key) && w.holders(&hat_key).next().is_none() => {
            Some(FetchedValue::default())
        }
        hat => hat,
    };
    let (Some(hat), Some(bar)) = (hat, bar) else {
        *check_s += started.elapsed().as_secs_f64();
        t.failed += 1;
        if x.exact {
            t.violation(format!(
                "search step on {name}: a written block was not found"
            ));
        }
        return None;
    };
    for (key, value) in [(hat_key, &hat), (bar_key, &bar)] {
        let floor = w.writer_floor(&key);
        if !floor.is_zero() {
            t.written_reads += 1;
            if value.version < floor {
                t.stale_reads += 1;
            }
        }
    }
    if !crate::checks::check_step(x, t, tag, &hat, &bar, first) {
        // Data the benchmark never wrote: the step failed.
        t.failed += 1;
        t.phantom_reads += 1;
    }
    *check_s += started.elapsed().as_secs_f64();
    let cands = hat
        .entries
        .into_iter()
        .map(|e| (e.name, e.weight))
        .collect();
    let res = bar.entries.into_iter().map(|e| e.name).collect();
    Some((cands, res))
}

/// A §V-C random-strategy session: start at `seed_tag`, pick a random
/// displayed candidate each step, narrow `T` and `R` locally, stop when
/// `|R| ≤ 10` or `|T| ≤ 1`.
#[allow(clippy::too_many_arguments)]
fn run_session(
    w: &mut World,
    workload: Workload,
    x: &Expected,
    t: &mut Tally,
    check_s: &mut f64,
    home: u32,
    seed_tag: TagId,
    rng_seed: u64,
) {
    t.sessions += 1;
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let first = workload == Workload::SearchZipf;
    let Some((mut cands, res)) = search_step(w, x, t, check_s, home, seed_tag, first) else {
        return;
    };
    let mut res: BTreeMap<String, ()> = res.into_iter().map(|r| (r, ())).collect();
    let mut chosen = vec![tag_name(seed_tag)];
    let mut steps = 1;
    while res.len() > RESOURCE_STOP && cands.len() > TAG_STOP && steps < MAX_SESSION_STEPS {
        let (pick, _) = cands[rng.gen_range(0..cands.len())].clone();
        let Some(tag) = tag_id(&pick) else {
            t.violation(format!("t̂ lists a non-tag entry {pick}"));
            return;
        };
        let Some((fetched, fetched_res)) = search_step(w, x, t, check_s, home, tag, false) else {
            return;
        };
        chosen.push(pick);
        let fetched: BTreeMap<String, u64> = fetched.into_iter().collect();
        cands = cands
            .into_iter()
            .filter(|(n, _)| !chosen.contains(n))
            .filter_map(|(n, _)| fetched.get(&n).map(|&wt| (n, wt)))
            .collect();
        cands.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let keep: BTreeMap<String, ()> = fetched_res.into_iter().map(|r| (r, ())).collect();
        res.retain(|r, _| keep.contains_key(r));
        steps += 1;
    }
    // Every resource left must carry every chosen tag.
    let started = Instant::now();
    if x.exact {
        for r in res.keys() {
            let Some(rid) = res_id(r) else {
                t.violation(format!("t̄ lists a non-resource entry {r}"));
                continue;
            };
            if chosen
                .iter()
                .any(|c| tag_id(c).is_none_or(|tid| x.trg.weight(tid, rid) == 0))
            {
                t.violation(format!("session result {r} lacks one of the chosen tags"));
            }
        }
    }
    *check_s += started.elapsed().as_secs_f64();
}
