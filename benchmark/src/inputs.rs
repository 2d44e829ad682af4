//! Seeded input generation. Everything the program under test receives —
//! the blocks preloaded into the overlay and the ordered list of
//! operations — is made here from `--seed`, so the same seed always yields
//! the same inputs and the program never sees the generator.

use dharma_dataset::{Dataset, Fenwick, GeneratorConfig, Scale, Zipf};
use dharma_folksonomy::{Fg, ResId, TagId, Trg};
use dharma_kademlia::StoredEntry;
use dharma_types::{block_key, BlockType, FxHashSet, Id160};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The three workloads of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Write-heavy §V-B annotation replay on the paper's plain overlay,
    /// followed by a read-back of the replayed blocks.
    TagReplay,
    /// Read-heavy §V-C random-strategy search sessions over preloaded
    /// exact blocks, hot-block cache and adaptive replication on.
    SearchZipf,
    /// Search sessions beside tagging on a lossy four-cluster topology
    /// with latency awareness, maintenance, freshness and push.
    MixedGeo,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TagReplay,
        Workload::SearchZipf,
        Workload::MixedGeo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TagReplay => "tag-replay",
            Workload::SearchZipf => "search-zipf",
            Workload::MixedGeo => "mixed-geo",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Instances a run pools. Each is a fixed overlay with its own
    /// inputs; the read hotspot and the largest blocks depend on which
    /// tags a dataset makes hot, so many small instances give steadier
    /// figures than a few large ones. `mixed-geo` rounds cost most.
    pub fn instances(self) -> u64 {
        match self {
            Workload::MixedGeo => 8,
            _ => 16,
        }
    }
}

/// Writer clients; writes rotate through them.
pub const CLIENTS: usize = 4;
/// Seed tags of search sessions are drawn from this many most popular tags.
pub const SEED_TAGS: usize = 100;
/// Zipf exponent of the seed-tag and hot-tag draws (the cache ablation's).
pub const ZIPF_S: f64 = 1.2;
/// Annotations replayed per `tag-replay` round.
const REPLAY_WRITES: usize = 1_000;
/// Read-back sessions after the replay.
const REPLAY_READBACK_SESSIONS: usize = 150;
/// Sessions per `search-zipf` round.
const SEARCH_SESSIONS: usize = 300;
/// Sessions per `mixed-geo` round; one tag op is issued per two sessions.
const MIXED_SESSIONS: usize = 240;

/// One operation of the timed phase.
#[derive(Clone, Debug)]
pub enum Op {
    /// `DharmaClient::insert_resource` with the resource's first tag.
    Insert {
        client: usize,
        res: ResId,
        tag: TagId,
    },
    /// `DharmaClient::tag`.
    Tag {
        client: usize,
        res: ResId,
        tag: TagId,
    },
    /// One §V-C random-strategy search session from `home`; each of its
    /// steps counts as one op.
    Session {
        home: u32,
        seed_tag: TagId,
        rng_seed: u64,
    },
}

/// A block written into the overlay before the timed phase.
#[derive(Clone, Debug)]
pub struct Block {
    pub ty: BlockType,
    pub key: Id160,
    pub entries: Vec<StoredEntry>,
}

/// Everything one round runs on.
pub struct Inputs {
    pub workload: Workload,
    /// The generated dataset (the reference TRG).
    pub dataset: Dataset,
    /// `Fg::derive_exact` of the reference TRG.
    pub exact_fg: Fg,
    /// Blocks preloaded with overlay appends (empty for `tag-replay`).
    pub preload: Vec<Block>,
    /// The timed phase, in issue order.
    pub ops: Vec<Op>,
}

pub fn tag_name(t: TagId) -> String {
    format!("tag-{}", t.0)
}

pub fn res_name(r: ResId) -> String {
    format!("res-{}", r.0)
}

pub fn tag_id(name: &str) -> Option<TagId> {
    name.strip_prefix("tag-")?.parse().ok().map(TagId)
}

pub fn res_id(name: &str) -> Option<ResId> {
    name.strip_prefix("res-")?.parse().ok().map(ResId)
}

impl Inputs {
    /// Generates the inputs of `workload` on an overlay of `nodes` nodes.
    pub fn generate(workload: Workload, seed: u64, nodes: usize) -> Inputs {
        let dataset = GeneratorConfig::lastfm_like(Scale::Tiny, seed).generate();
        let exact_fg = Fg::derive_exact(&dataset.trg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C_4A11);
        let (preload, ops) = match workload {
            Workload::TagReplay => {
                let mut ops = replay_order(&dataset.trg, REPLAY_WRITES, &mut rng);
                // Read back from the tags the replay made popular.
                let mut replayed = Trg::new();
                for op in &ops {
                    if let Op::Insert { res, tag, .. } | Op::Tag { res, tag, .. } = *op {
                        replayed.add_annotation(tag, res);
                    }
                }
                let seeds = Dataset::from_trg(replayed).most_popular_tags(SEED_TAGS);
                ops.extend(sessions(&seeds, REPLAY_READBACK_SESSIONS, nodes, &mut rng));
                (Vec::new(), ops)
            }
            Workload::SearchZipf => {
                let seeds = dataset.most_popular_tags(SEED_TAGS);
                let ops = sessions(&seeds, SEARCH_SESSIONS, nodes, &mut rng);
                (exact_blocks(&dataset.trg, &exact_fg), ops)
            }
            Workload::MixedGeo => {
                let seeds = dataset.most_popular_tags(SEED_TAGS);
                let zipf = Zipf::new(seeds.len(), ZIPF_S);
                let mut ops = Vec::new();
                for (i, s) in sessions(&seeds, MIXED_SESSIONS, nodes, &mut rng)
                    .into_iter()
                    .enumerate()
                {
                    ops.push(s);
                    if i % 2 == 1 {
                        let tag = seeds[zipf.sample(&mut rng)];
                        let mut res: Vec<ResId> = dataset.trg.res_of(tag).map(|(r, _)| r).collect();
                        res.sort_unstable();
                        let res = res[rng.gen_range(0..res.len())];
                        ops.push(Op::Tag {
                            client: (i / 2) % CLIENTS,
                            res,
                            tag,
                        });
                    }
                }
                // Every tag's blocks (sessions may reach any tag), and the
                // `r̄` of each resource a tag op will read.
                let tagged: FxHashSet<Id160> = ops
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Tag { res, .. } => {
                            Some(block_key(&res_name(res), BlockType::ResourceTags))
                        }
                        _ => None,
                    })
                    .collect();
                let mut blocks = exact_blocks(&dataset.trg, &exact_fg);
                blocks.retain(|b| b.ty != BlockType::ResourceTags || tagged.contains(&b.key));
                (blocks, ops)
            }
        };
        Inputs {
            workload,
            dataset,
            exact_fg,
            preload,
            ops,
        }
    }

    /// Distinct block keys the generated inputs name: preloaded blocks,
    /// the blocks each write touches, and each session's seed blocks.
    pub fn distinct_keys(&self) -> usize {
        let mut keys: FxHashSet<Id160> = self.preload.iter().map(|b| b.key).collect();
        for op in &self.ops {
            match *op {
                Op::Insert { res, tag, .. } | Op::Tag { res, tag, .. } => {
                    let (r, t) = (res_name(res), tag_name(tag));
                    keys.insert(block_key(&r, BlockType::ResourceTags));
                    keys.insert(block_key(&t, BlockType::TagResources));
                    keys.insert(block_key(&t, BlockType::TagNeighbors));
                    if matches!(op, Op::Insert { .. }) {
                        keys.insert(block_key(&r, BlockType::ResourceUri));
                    }
                }
                Op::Session { seed_tag, .. } => {
                    let t = tag_name(seed_tag);
                    keys.insert(block_key(&t, BlockType::TagResources));
                    keys.insert(block_key(&t, BlockType::TagNeighbors));
                }
            }
        }
        keys.len()
    }

    /// `(writes, sessions)` in the generated op list.
    pub fn op_counts(&self) -> (usize, usize) {
        let sessions = self
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Session { .. }))
            .count();
        (self.ops.len() - sessions, sessions)
    }
}

/// The first `n` annotations of the reference in the §V-B order: the
/// resource is drawn ∝ `|Tags(r)|` among resources with annotations left,
/// the tag within it ∝ `u(t, r)` among tags with instances left. A
/// resource's first annotation becomes an insert, every later one a tag.
fn replay_order(trg: &Trg, n: usize, rng: &mut StdRng) -> Vec<Op> {
    let num_res = trg.num_resources();
    let mut playlists: Vec<Vec<(TagId, u32, u32)>> = (0..num_res)
        .map(|r| {
            let mut list: Vec<(TagId, u32, u32)> = trg
                .tags_of(ResId(r as u32))
                .map(|(t, u)| (t, u, u))
                .collect();
            list.sort_unstable_by_key(|&(t, _, _)| t);
            list
        })
        .collect();
    let mut remaining: Vec<u64> = playlists
        .iter()
        .map(|l| l.iter().map(|&(_, u, _)| u64::from(u)).sum())
        .collect();
    let popularity: Vec<u64> = playlists.iter().map(|l| l.len() as u64).collect();
    let mut fenwick = Fenwick::from_weights(&popularity);
    let mut started = vec![false; num_res];
    let mut ops = Vec::with_capacity(n);
    let total: u64 = remaining.iter().sum();
    for i in 0..n.min(total as usize) {
        let r = fenwick.sample(rng);
        let list = &mut playlists[r];
        let live: u64 = list
            .iter()
            .filter(|&&(_, _, left)| left > 0)
            .map(|&(_, u, _)| u64::from(u))
            .sum();
        let mut pick = rng.gen_range(0..live);
        let slot = list
            .iter()
            .position(|&(_, u, left)| {
                if left == 0 {
                    return false;
                }
                if pick < u64::from(u) {
                    return true;
                }
                pick -= u64::from(u);
                false
            })
            .expect("a live tag is always found");
        list[slot].2 -= 1;
        let (tag, res, client) = (list[slot].0, ResId(r as u32), i % CLIENTS);
        ops.push(if std::mem::replace(&mut started[r], true) {
            Op::Tag { client, res, tag }
        } else {
            Op::Insert { client, res, tag }
        });
        remaining[r] -= 1;
        if remaining[r] == 0 {
            fenwick.sub(r, fenwick.weight(r));
        }
    }
    ops
}

/// `count` search sessions: seeds Zipf-drawn from `seeds` (most popular
/// first). Homes are random but balanced: each pass over the overlay
/// visits every node once, in a fresh random order.
fn sessions(seeds: &[TagId], count: usize, nodes: usize, rng: &mut StdRng) -> Vec<Op> {
    let zipf = Zipf::new(seeds.len(), ZIPF_S);
    let mut homes: Vec<u32> = Vec::new();
    (0..count)
        .map(|_| {
            if homes.is_empty() {
                homes = (0..nodes as u32).collect();
                homes.shuffle(rng);
            }
            Op::Session {
                home: homes.pop().expect("refilled above"),
                seed_tag: seeds[zipf.sample(rng)],
                rng_seed: rng.gen(),
            }
        })
        .collect()
}

/// The exact `r̄`, `t̄` and `t̂` blocks of a TRG and its exact FG.
fn exact_blocks(trg: &Trg, fg: &Fg) -> Vec<Block> {
    let sorted = |mut v: Vec<StoredEntry>| {
        v.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        v
    };
    let mut blocks = Vec::new();
    for r in 0..trg.num_resources() as u32 {
        let r = ResId(r);
        let entries: Vec<StoredEntry> = trg
            .tags_of(r)
            .map(|(t, u)| StoredEntry {
                name: tag_name(t),
                weight: u64::from(u),
            })
            .collect();
        if !entries.is_empty() {
            blocks.push(Block {
                ty: BlockType::ResourceTags,
                key: block_key(&res_name(r), BlockType::ResourceTags),
                entries: sorted(entries),
            });
        }
    }
    for t in 0..trg.num_tags() as u32 {
        let t = TagId(t);
        let res: Vec<StoredEntry> = trg
            .res_of(t)
            .map(|(r, u)| StoredEntry {
                name: res_name(r),
                weight: u64::from(u),
            })
            .collect();
        if res.is_empty() {
            continue;
        }
        let name = tag_name(t);
        blocks.push(Block {
            ty: BlockType::TagResources,
            key: block_key(&name, BlockType::TagResources),
            entries: sorted(res),
        });
        let nbrs: Vec<StoredEntry> = fg
            .neighbors(t)
            .map(|(n, w)| StoredEntry {
                name: tag_name(n),
                weight: w,
            })
            .collect();
        // A tag seen only on single-tag resources has no FG arc. An empty
        // append stores nothing, so there is no block to preload.
        if !nbrs.is_empty() {
            blocks.push(Block {
                ty: BlockType::TagNeighbors,
                key: block_key(&name, BlockType::TagNeighbors),
                entries: sorted(nbrs),
            });
        }
    }
    blocks
}
