//! The traced run: spans recorded around the calls this benchmark makes
//! into each layer, replays of single layers on the workload's own
//! recorded keys, and the per-layer metrics derived from both.
//!
//! Workload spans: one per `DharmaClient` primitive and one per driver
//! GET, the GET with a child span per `SimNet::step`. Each span carries
//! the `NetCounters` and `events_processed` deltas it saw. Spans live in
//! memory and are reduced to metrics when the run ends.

use std::hint::black_box;
use std::time::Instant;

use dharma_cache::HotCache;
use dharma_kademlia::storage::FilteredRead;
use dharma_kademlia::{Contact, Message, StoredEntry};
use dharma_sim::CacheSimConfig;
use dharma_types::{Id160, VersionStamp, WireDecode, WireEncode};

use crate::run::{client_call, Round, Tally, World};
use crate::stats::{percentile, Metric};

/// Reply budget of a `FoundValue` (the overlay's MTU less headroom).
const REPLY_BUDGET: usize = 64 * 1024 - 200;
/// Distinct recorded reads each layer replay runs over.
const REPLAY_KEYS: usize = 512;
/// Minimum wall time of one replay measurement.
const REPLAY_MIN_NS: u128 = 30_000_000;
/// Probe inserts and tags timed where the workload issues none.
const CLIENT_PROBES: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    Insert,
    Tag,
}

/// One client primitive.
struct ClientSpan {
    kind: ClientKind,
    wall_ns: u64,
    events: u64,
    sent: u64,
    virtual_us: u64,
    lookups: u32,
}

/// One driver GET; its `SimNet::step` children are
/// `Tracer::step_ns[first_step..first_step + steps]`.
struct GetSpan {
    home: u32,
    key: Id160,
    top_n: u32,
    wall_ns: u64,
    bytes: u64,
    steps: u32,
    first_step: usize,
}

#[derive(Default)]
pub struct Tracer {
    clients: Vec<ClientSpan>,
    gets: Vec<GetSpan>,
    step_ns: Vec<u32>,
    open_get: Option<(u32, Id160, u32, usize)>,
}

impl Tracer {
    pub fn client(
        &mut self,
        kind: ClientKind,
        wall_ns: u64,
        events: u64,
        sent: u64,
        virtual_us: u64,
        lookups: u32,
    ) {
        self.clients.push(ClientSpan {
            kind,
            wall_ns,
            events,
            sent,
            virtual_us,
            lookups,
        });
    }

    pub fn begin_get(&mut self, home: u32, key: Id160, top_n: u32) {
        self.open_get = Some((home, key, top_n, self.step_ns.len()));
    }

    pub fn step(&mut self, ns: u64) {
        self.step_ns.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    pub fn end_get(&mut self, wall_ns: u64, bytes: u64) {
        let (home, key, top_n, first_step) = self.open_get.take().expect("a GET span is open");
        self.gets.push(GetSpan {
            home,
            key,
            top_n,
            wall_ns,
            bytes,
            steps: (self.step_ns.len() - first_step) as u32,
            first_step,
        });
    }
}

/// Nanoseconds per item of `pass`, which handles `items` items, repeating
/// passes until the measurement spans at least [`REPLAY_MIN_NS`].
fn ns_per_call(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || started.elapsed().as_nanos() < REPLAY_MIN_NS {
        pass();
        passes += 1;
    }
    started.elapsed().as_nanos() as f64 / (passes as f64 * items as f64)
}

/// The recorded reads, deduplicated by `(key, top_n)`, with a holder.
struct Read {
    home: u32,
    key: Id160,
    top_n: u32,
    holder: u32,
}

fn recorded_reads(world: &World, tracer: &Tracer) -> Vec<Read> {
    let mut seen = std::collections::BTreeSet::new();
    let mut reads = Vec::new();
    for g in &tracer.gets {
        if reads.len() == REPLAY_KEYS {
            break;
        }
        if !seen.insert((g.key, g.top_n)) {
            continue;
        }
        if let Some(holder) = world.holders(&g.key).next() {
            reads.push(Read {
                home: g.home,
                key: g.key,
                top_n: g.top_n,
                holder,
            });
        }
    }
    reads
}

/// Per-layer metrics of a traced round, once its checks have run. The
/// metrics that need every round's timing are added by the caller.
pub fn layer_metrics(round: &mut Round) -> Vec<Metric> {
    let tracer = round.world.tracer.take().expect("the round was traced");
    let t = &round.tally;
    let world = &mut round.world;
    let ops = t.ops.max(1) as f64;
    let timed_ops = t.timed_ops.max(1) as f64;
    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| m.push(Metric::new(name, value, unit));

    // net.sim
    put(
        "net.events_per_op",
        t.timed.events as f64 / timed_ops,
        "events",
    );
    let steps: Vec<f64> = tracer.step_ns.iter().map(|&n| f64::from(n)).collect();
    put("net.step_ns", percentile(&steps, 0.5), "ns");
    put(
        "net.timers_per_op",
        t.timed.timers as f64 / timed_ops,
        "timers",
    );
    put(
        "net.loss_ratio",
        t.round.dropped as f64 / t.round.sent.max(1) as f64,
        "ratio",
    );

    // kademlia.node
    let get_ms: Vec<f64> = t.get_virtual_us.iter().map(|&u| u as f64 / 1e3).collect();
    let gets = t.gets.max(1) as f64;
    put("kademlia.get_p50_ms", percentile(&get_ms, 0.5), "ms");
    put("kademlia.get_p99_ms", percentile(&get_ms, 0.99), "ms");
    put(
        "kademlia.events_per_get",
        t.get_events as f64 / gets,
        "events",
    );
    put("kademlia.msgs_per_get", t.get_msgs as f64 / gets, "msgs");
    put("kademlia.found_ratio", t.gets_found as f64 / gets, "ratio");
    let get_bytes: u64 = tracer.gets.iter().map(|g| g.bytes).sum();
    put(
        "kademlia.bytes_per_get",
        get_bytes as f64 / tracer.gets.len().max(1) as f64,
        "bytes",
    );
    let get_self_us: Vec<f64> = tracer
        .gets
        .iter()
        .map(|g| {
            let children: u64 = tracer.step_ns[g.first_step..g.first_step + g.steps as usize]
                .iter()
                .map(|&n| u64::from(n))
                .sum();
            g.wall_ns.saturating_sub(children) as f64 / 1e3
        })
        .collect();
    put(
        "driver.get_self_us_p50",
        percentile(&get_self_us, 0.5),
        "us",
    );

    // Layer replays on the workload's own keys.
    let reads = recorded_reads(world, &tracer);
    let routing_k = world.net.node(0).routing().k();
    put(
        "routing.closest_ns",
        ns_per_call(reads.len(), || {
            for r in &reads {
                black_box(world.net.node(r.home).routing().closest(&r.key, routing_k));
            }
        }),
        "ns",
    );
    let (top, all): (Vec<&Read>, Vec<&Read>) = reads.iter().partition(|r| r.top_n > 0);
    for (name, set) in [
        ("storage.read_top100_ns", &top),
        ("storage.read_all_ns", &all),
    ] {
        let v = ns_per_call(set.len(), || {
            for r in set.iter() {
                black_box(world.net.node(r.holder).storage().read_filtered(
                    &r.key,
                    r.top_n,
                    REPLY_BUDGET,
                ));
            }
        });
        put(name, v, "ns");
    }
    // Appends: rebuild each recorded block entry by entry in fresh storage.
    let blocks: Vec<(Id160, Vec<StoredEntry>, VersionStamp)> = reads
        .iter()
        .filter_map(|r| {
            let (_, entries, stamp) = world.net.node(r.holder).storage().snapshot(&r.key)?;
            Some((r.key, entries, stamp))
        })
        .collect();
    let appends: usize = blocks.iter().map(|b| b.1.len()).sum();
    put(
        "storage.append_ns",
        ns_per_call(appends, || {
            let mut s = dharma_kademlia::Storage::new();
            for (key, entries, stamp) in &blocks {
                for e in entries {
                    black_box(s.append(*key, &e.name, e.weight, *stamp));
                }
            }
        }),
        "ns",
    );
    let mut entry_counts: Vec<f64> = Vec::new();
    for a in 0..world.nodes as u32 {
        let storage = world.net.node(a).storage();
        for key in storage.keys() {
            entry_counts.push(storage.get(key).map_or(0, |v| v.entry_count()) as f64);
        }
    }
    put(
        "storage.entries_p99",
        percentile(&entry_counts, 0.99),
        "entries",
    );

    // kademlia.messages: FoundValue replies rebuilt from the stored values.
    let views: Vec<(Id160, u32, FilteredRead)> = reads
        .iter()
        .filter_map(|r| {
            let v =
                world
                    .net
                    .node(r.holder)
                    .storage()
                    .read_filtered(&r.key, r.top_n, REPLY_BUDGET)?;
            Some((r.key, r.top_n, v))
        })
        .collect();
    let from = world.net.node(0).contact().clone();
    let replies: Vec<Message> = views
        .iter()
        .enumerate()
        .map(|(i, (_, _, v))| found_value(i as u64, &from, v))
        .collect();
    put(
        "codec.encode_ns",
        ns_per_call(replies.len(), || {
            for msg in &replies {
                black_box(msg.encode_to_bytes());
            }
        }),
        "ns",
    );
    let encoded: Vec<Vec<u8>> = replies
        .iter()
        .map(|m| m.encode_to_bytes().to_vec())
        .collect();
    put(
        "codec.decode_ns",
        ns_per_call(encoded.len(), || {
            for bytes in &encoded {
                black_box(
                    Message::decode_exact(bytes).expect("a reply this benchmark encoded decodes"),
                );
            }
        }),
        "ns",
    );
    put(
        "codec.bytes_per_msg",
        t.round.bytes as f64 / t.round.sent.max(1) as f64,
        "bytes",
    );

    // cache
    let c = &t.round;
    let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
    put("cache.hit_ratio", c.cache_hits as f64 / lookups, "ratio");
    put(
        "cache.stale_drops_per_get",
        c.stale_drops as f64 / gets,
        "drops",
    );
    put(
        "cache.revalidations_per_get",
        c.revalidations as f64 / gets,
        "rpcs",
    );
    let write_lookups = t.lookups.saturating_sub(t.gets + t.tags).max(1) as f64;
    put(
        "cache.pushes_per_write",
        c.pushes as f64 / write_lookups,
        "msgs",
    );
    let mut cache: HotCache<FilteredRead> = HotCache::new(CacheSimConfig::ablation_cache());
    put(
        "cache.insert_ns",
        ns_per_call(views.len(), || {
            for (key, top_n, v) in &views {
                black_box(cache.insert((*key, *top_n), v.version, v.clone(), 0));
            }
        }),
        "ns",
    );
    put(
        "cache.get_ns",
        ns_per_call(views.len(), || {
            for (key, top_n, _) in &views {
                black_box(cache.get(&(*key, *top_n), 1));
            }
        }),
        "ns",
    );

    // kademlia.rtt and maintenance
    put(
        "rtt.alpha_widened_per_get",
        c.alpha_widened as f64 / gets,
        "steps",
    );
    put(
        "rtt.samples_per_get",
        c.rtt_samples as f64 / gets,
        "samples",
    );
    put(
        "maint.msgs_per_op",
        t.timed.maint_msgs as f64 / timed_ops,
        "msgs",
    );
    put("maint.rejoins_per_op", t.rejoins as f64 / ops, "rejoins");
    put(
        "client.false_attach_ratio",
        t.false_attaches as f64 / t.tags.max(1) as f64,
        "ratio",
    );
    put(
        "client.phantom_reads_per_op",
        t.phantom_reads as f64 / ops,
        "reads",
    );

    // kademlia.node writes: one probe append to each recorded key, after
    // every check has run.
    let (mut acks, mut targets, mut msgs, mut writes) = (0u64, 0u64, 0u64, 0u64);
    for r in reads.iter().take(100) {
        let sent0 = world.counters.sent();
        let probe = vec![StoredEntry {
            name: "probe".into(),
            weight: 1,
        }];
        if let Some((a, tg)) = world.append(r.home, r.key, probe) {
            acks += u64::from(a);
            targets += u64::from(tg);
            writes += 1;
        }
        msgs += world.counters.sent() - sent0;
    }
    put(
        "kademlia.msgs_per_write",
        msgs as f64 / writes.max(1) as f64,
        "msgs",
    );
    put(
        "kademlia.write_ack_ratio",
        acks as f64 / targets.max(1) as f64,
        "ratio",
    );

    // core.client, from the workload's client spans. Where it issues no
    // inserts or no tags, spans from probe calls, made after every check
    // has run, stand in for that kind, so every client metric is measured.
    let has = |kind: ClientKind| tracer.clients.iter().any(|c| c.kind == kind);
    let probes = if has(ClientKind::Insert) && has(ClientKind::Tag) {
        Vec::new()
    } else {
        probe_client(world)
    };
    for (kind, name) in [(ClientKind::Insert, "insert"), (ClientKind::Tag, "tag")] {
        let source = if has(kind) { &tracer.clients } else { &probes };
        let spans: Vec<&ClientSpan> = source.iter().filter(|c| c.kind == kind).collect();
        let wall_us: Vec<f64> = spans.iter().map(|c| c.wall_ns as f64 / 1e3).collect();
        put(
            &format!("client.{name}_us_p50"),
            percentile(&wall_us, 0.5),
            "us",
        );
        let lookups: u64 = spans.iter().map(|c| u64::from(c.lookups)).sum();
        put(
            &format!("client.lookups_per_{name}"),
            lookups as f64 / spans.len().max(1) as f64,
            "lookups",
        );
    }
    let pooled = if tracer.clients.is_empty() {
        &probes
    } else {
        &tracer.clients
    };
    let client_lookups: u64 = pooled.iter().map(|c| u64::from(c.lookups)).sum();
    let client_events: u64 = pooled.iter().map(|c| c.events).sum();
    let client_vus: u64 = pooled.iter().map(|c| c.virtual_us).sum();
    let client_sent: u64 = pooled.iter().map(|c| c.sent).sum();
    put(
        "client.events_per_lookup",
        client_events as f64 / client_lookups.max(1) as f64,
        "events",
    );
    put(
        "client.vms_per_lookup",
        client_vus as f64 / 1e3 / client_lookups.max(1) as f64,
        "ms",
    );
    put(
        "client.msgs_per_lookup",
        client_sent as f64 / client_lookups.max(1) as f64,
        "msgs",
    );

    m
}

/// Client spans of [`CLIENT_PROBES`] inserts of fresh resources, each
/// followed by a tag on it, all by writer client 0.
fn probe_client(world: &mut World) -> Vec<ClientSpan> {
    world.tracer = Some(Tracer::default());
    let mut scratch = Tally::default();
    for i in 0..CLIENT_PROBES {
        let res = format!("probe-res-{i}");
        client_call(world, 0, &mut scratch, ClientKind::Insert, |c, net| {
            c.insert_resource(net, &res, &format!("uri://{res}"), &["probe-tag-a"])
                .map(|cost| ((), cost.lookups))
        });
        client_call(world, 0, &mut scratch, ClientKind::Tag, |c, net| {
            c.tag(net, &res, "probe-tag-b")
                .map(|rc| ((), rc.cost.lookups))
        });
    }
    world.tracer.take().expect("set above").clients
}

fn found_value(rpc: u64, from: &Contact, v: &FilteredRead) -> Message {
    Message::FoundValue {
        rpc,
        from: from.clone(),
        blob: v.blob.clone(),
        entries: v.entries.clone(),
        truncated: v.truncated,
        version: v.version,
        from_cache: false,
        digest: Vec::new(),
    }
}
