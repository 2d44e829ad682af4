//! The DHARMA client: tagging primitives over the DHT (paper §IV).
//!
//! A [`DharmaClient`] is bound to one overlay node (its *home node*) and
//! drives the simulated network synchronously: each overlay lookup is
//! issued, the simulation is stepped one event at a time up to the event
//! that completes the operation, and the client accounts one lookup on its
//! [`OpCost`] receipt. This mirrors the deployment model of the paper,
//! where the tagging application sits on a Likir node and performs
//! blocking PUT/GET primitives.
//!
//! The **naive vs approximated** tagging split of §IV-B is a client-side
//! policy ([`ApproxPolicy`]): the DHT neither knows nor cares — which is the
//! point, since Approximation A only *bounds how many `τ̂` blocks the client
//! updates* and Approximation B only *changes the increment it appends*.

use dharma_folksonomy::{ApproxPolicy, BPolicy};
use dharma_kademlia::{KadOutput, KademliaNode, StoredEntry};
use dharma_likir::{AuthenticatedRecord, Identity};
use dharma_net::SimNet;
use dharma_types::{block_key, BlockType, DharmaError, FxHashMap, Id160, Result, VersionStamp};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cost::OpCost;

/// Client configuration.
///
/// Marked `#[non_exhaustive]`: construct one with
/// [`DharmaConfig::default`] or [`DharmaConfig::builder`] and adjust
/// fields from there — new client knobs then stop being breaking struct
/// literal changes for downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct DharmaConfig {
    /// Approximation policy for tagging operations.
    pub policy: ApproxPolicy,
    /// Index-side filtering limit for search-step `GET t̂` (paper: 100).
    pub search_top_n: u32,
    /// Likir application namespace used when signing URI records.
    pub namespace: String,
    /// Client-side RNG seed (Approximation A subset selection).
    pub seed: u64,
    /// Safety cap on simulator events per overlay operation attempt,
    /// charged one event at a time from the attempt's issue (the sharded
    /// engine steps a whole window at once, so it may overshoot by the
    /// rest of that window). Every event counts, background ones
    /// included. An attempt that reaches the cap returns
    /// [`DharmaError::Timeout`], as does one whose event queue empties.
    pub max_events_per_op: u64,
    /// How many times a timed-out **idempotent** operation (GET, blob
    /// PUT) is reissued before the error surfaces. An overlay op can die
    /// with its coordinator (the home node crashes mid-lookup and its RPC
    /// timers die with it) or starve when every replica times out; under
    /// churn a fresh attempt usually routes around the corpses. APPENDs
    /// are **never** retried: replicas that applied the append before the
    /// timeout would double-count its tokens on a reissue. Each attempt
    /// is accounted as one more lookup on the receipt. 0 restores
    /// fail-fast.
    pub op_retries: u32,
}

impl Default for DharmaConfig {
    fn default() -> Self {
        DharmaConfig {
            policy: ApproxPolicy::paper(1),
            search_top_n: 100,
            namespace: "dharma".into(),
            seed: 0,
            max_events_per_op: 5_000_000,
            op_retries: 2,
        }
    }
}

impl DharmaConfig {
    /// A range-validated builder starting from [`DharmaConfig::default()`].
    pub fn builder() -> DharmaConfigBuilder {
        DharmaConfigBuilder {
            cfg: DharmaConfig::default(),
        }
    }
}

/// Builder for [`DharmaConfig`] with validated ranges ([`DharmaConfig::builder()`]).
#[derive(Clone, Debug)]
pub struct DharmaConfigBuilder {
    cfg: DharmaConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, v: $ty) -> Self {
            self.cfg.$name = v;
            self
        }
    };
}

impl DharmaConfigBuilder {
    setter!(
        /// See [`DharmaConfig::policy`].
        policy: ApproxPolicy
    );
    setter!(
        /// See [`DharmaConfig::search_top_n`].
        search_top_n: u32
    );
    setter!(
        /// See [`DharmaConfig::seed`].
        seed: u64
    );
    setter!(
        /// See [`DharmaConfig::max_events_per_op`].
        max_events_per_op: u64
    );
    setter!(
        /// See [`DharmaConfig::op_retries`].
        op_retries: u32
    );

    /// See [`DharmaConfig::namespace`].
    pub fn namespace(mut self, v: impl Into<String>) -> Self {
        self.cfg.namespace = v.into();
        self
    }

    /// Validates ranges and produces the config. Errors name the bad knob.
    pub fn build(self) -> std::result::Result<DharmaConfig, String> {
        let c = &self.cfg;
        if c.namespace.is_empty() {
            return Err("namespace must be non-empty (it scopes record signatures)".into());
        }
        if c.max_events_per_op == 0 {
            return Err("max_events_per_op must be >= 1 (0 would time out every op)".into());
        }
        Ok(self.cfg)
    }
}

/// The consistency level a [`DharmaClient::get`] read is served under.
///
/// [`Eventual`](Consistency::Eventual) is the classic read path — byte-
/// identical behaviour to a plain overlay GET. The session levels enforce
/// a *floor*: the read's served version must not fall below what this
/// client session has already observed ([`SessionToken`]); a below-floor
/// serve triggers one authoritative re-read
/// ([`KademliaNode::get_fresh`]), and if even that stays below the floor
/// the read surfaces [`DharmaError::StaleRead`] instead of silently going
/// back in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// No session floor: caches serve freely, staleness is bounded only
    /// by the overlay's freshness machinery (TTL, gossip, push).
    #[default]
    Eventual,
    /// Reads reflect every write this client session has completed: a
    /// GET of a key the session wrote never serves a pre-write view.
    ReadYourWrites,
    /// Successive reads of a key never move backwards within this
    /// session, even across cache hits on different serving nodes.
    MonotonicReads,
}

/// The per-session consistency floor: the highest origin stamp this
/// client has observed for each key, through its own writes *and* reads.
///
/// One combined floor serves both session levels — it is the pointwise
/// maximum of what read-your-writes (own writes) and monotonic reads
/// (own reads) each require, so enforcing it yields both guarantees at
/// once, never a wrong serve. Bounded only by the number of distinct
/// keys the session touches; [`SessionToken::reset`] starts a new
/// session.
#[derive(Clone, Debug, Default)]
pub struct SessionToken {
    floors: FxHashMap<Id160, VersionStamp>,
}

impl SessionToken {
    /// The floor for `key`: the highest stamp observed, or the
    /// never-written [`VersionStamp::ZERO`] when the session has not
    /// touched the key (every serve passes a zero floor).
    pub fn floor(&self, key: &Id160) -> VersionStamp {
        self.floors.get(key).copied().unwrap_or(VersionStamp::ZERO)
    }

    /// Folds an observed stamp into the floor (monotone: only raises).
    pub fn observe(&mut self, key: Id160, stamp: VersionStamp) {
        let slot = self.floors.entry(key).or_insert(VersionStamp::ZERO);
        *slot = (*slot).max(stamp);
    }

    /// Number of keys this session has observed.
    pub fn tracked(&self) -> usize {
        self.floors.len()
    }

    /// Forgets every observation — the next read starts a fresh session.
    pub fn reset(&mut self) {
        self.floors.clear();
    }
}

/// What a tagging operation reports beyond its cost.
#[derive(Clone, Debug)]
pub struct TagReceipt {
    /// Lookup/message cost.
    pub cost: OpCost,
    /// `|Tags(r)|` as observed from the fetched `r̄` block (excluding `t`).
    pub neighborhood: usize,
    /// How many `τ̂` blocks were updated (≤ k under Approximation A).
    pub updated: usize,
    /// Whether `t` was newly attached to `r`.
    pub newly_attached: bool,
}

/// A fetched block: entries (name → weight) plus truncation flag.
#[derive(Clone, Debug, Default)]
pub struct BlockView {
    /// Entries of the weighted set.
    pub entries: Vec<(String, u64)>,
    /// True if the server cut the list (top-n filtering or MTU).
    pub truncated: bool,
    /// Blob content, if the block stores one.
    pub blob: Option<Vec<u8>>,
}

/// The DHARMA tagging client.
///
/// Every primitive runs its overlay operations one after another, and
/// each returns at the event that completes it: the virtual clock a
/// caller sees afterwards is the completion time, not the time the
/// network went quiet. Whatever else is queued (trailing RPC timers,
/// maintenance, gossip, pushes) stays queued. Background timers therefore
/// advance only while some operation is being driven, by this client or
/// by whoever else steps the [`SimNet`].
pub struct DharmaClient {
    home: dharma_net::NodeAddr,
    identity: Identity,
    cfg: DharmaConfig,
    rng: StdRng,
    /// Session-consistency floor: highest stamp observed per key, fed by
    /// every write receipt and every served read of this client.
    session: SessionToken,
}

impl DharmaClient {
    /// Binds a client to its home overlay node.
    pub fn new(home: dharma_net::NodeAddr, identity: Identity, cfg: DharmaConfig) -> Self {
        let seed = cfg.seed;
        DharmaClient {
            home,
            identity,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            session: SessionToken::default(),
        }
    }

    /// The configured approximation policy.
    pub fn policy(&self) -> ApproxPolicy {
        self.cfg.policy
    }

    /// The home node's transport address.
    pub fn home(&self) -> dharma_net::NodeAddr {
        self.home
    }

    /// The session-consistency floor accumulated so far (every write
    /// receipt and served read raises it).
    pub fn session(&self) -> &SessionToken {
        &self.session
    }

    /// Starts a fresh session: forgets every observed stamp, so the next
    /// session-level read passes vacuously.
    pub fn reset_session(&mut self) {
        self.session.reset();
    }

    /// Merges another session's floors into this one — the causal-handoff
    /// path. A client resuming someone's session (same user, different
    /// home node or process) imports the token; its session-level reads
    /// then reflect everything the imported session observed.
    pub fn import_session(&mut self, token: &SessionToken) {
        // dharma-lint: allow(D3): observe() folds a max per key; order-independent
        for (key, stamp) in &token.floors {
            self.session.observe(*key, *stamp);
        }
    }

    /// A consistency-levelled block read: fetch the weighted set at `key`
    /// (index-side filtered to `top_n` heaviest entries when `top_n > 0`).
    ///
    /// [`Consistency::Eventual`] is exactly the read path every other
    /// client operation uses. The session levels check the served version
    /// against this session's floor ([`SessionToken`]); a below-floor
    /// serve escalates once to an authoritative re-read (cache-bypassing,
    /// one more accounted lookup), and surfaces
    /// [`DharmaError::StaleRead`] if the overlay still cannot meet the
    /// floor. Reads and writes by this client raise the floor as a side
    /// effect, whatever level they run at.
    pub fn get(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
        consistency: Consistency,
    ) -> Result<(Option<BlockView>, OpCost)> {
        let (served, cost) = self.get_stamped(net, key, top_n, consistency)?;
        Ok((served.map(|(view, _)| view), cost))
    }

    /// [`DharmaClient::get`], but the served view keeps its origin stamp.
    ///
    /// The stamp is what the session floor is made of — callers that hand
    /// a view to another process (or audit the consistency contract, as
    /// the session proptests do) need it alongside the payload: a
    /// successful session-level read always satisfies
    /// `stamp >= self.session().floor(&key)` as observed before the call.
    pub fn get_stamped(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
        consistency: Consistency,
    ) -> Result<(Option<(BlockView, VersionStamp)>, OpCost)> {
        let (served, mut cost) = self.run_get_stamped(net, key, top_n, false)?;
        let floor = self.session.floor(&key);
        let below = |s: &Option<(BlockView, VersionStamp)>| match s {
            // A missing value is below any real floor: the session saw a
            // write (or a written view) the responding holders lack.
            None => !floor.is_zero(),
            Some((_, stamp)) => *stamp < floor,
        };
        let enforce = matches!(
            consistency,
            Consistency::ReadYourWrites | Consistency::MonotonicReads
        );
        if !enforce || !below(&served) {
            return Ok((served, cost));
        }
        // Escalate: re-read refusing caches end-to-end, then re-check.
        let (served, retry_cost) = self.run_get_stamped(net, key, top_n, true)?;
        cost.absorb(retry_cost);
        if below(&served) {
            return Err(DharmaError::StaleRead(format!(
                "key {key:?}: authoritative re-read served {:?}, session floor is {floor:?}",
                served.map(|(_, s)| s).unwrap_or(VersionStamp::ZERO)
            )));
        }
        Ok((served, cost))
    }

    /// **Resource insertion** (§IV-A): publishes `r` with URI and tags,
    /// in `2 + 2m` lookups.
    ///
    /// 1. `PUT r̃` — the signed URI record;
    /// 2. `APPEND r̄` — all `m` tag entries at weight 1 (one block update);
    /// 3. per tag `tᵢ`: `APPEND t̄ᵢ` (the reverse edge) and `APPEND t̂ᵢ`
    ///    (the `m − 1` new FG arcs) — `2m` block updates.
    pub fn insert_resource(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        resource: &str,
        uri: &str,
        tags: &[&str],
    ) -> Result<OpCost> {
        let mut unique: Vec<&str> = tags.to_vec();
        unique.sort_unstable();
        unique.dedup();
        if unique.is_empty() {
            return Err(DharmaError::InvalidArgument(
                "a resource needs at least one tag".into(),
            ));
        }
        let mut cost = OpCost::default();

        // 1. r̃ — the URI record, signed by the author (Likir content
        //    authentication).
        let record =
            AuthenticatedRecord::sign(&self.identity, &self.cfg.namespace, uri.as_bytes().to_vec());
        let blob = dharma_types::WireEncode::encode_to_bytes(&record).to_vec();
        let key = block_key(resource, BlockType::ResourceUri);
        let (stamp, put_cost) =
            self.run_write(net, true, |n, ctx| n.put_blob(ctx, key, blob.clone()))?;
        self.session.observe(key, stamp);
        cost.absorb(put_cost);

        // 2. r̄ — all tags of the new resource in one block update.
        let key = block_key(resource, BlockType::ResourceTags);
        let entries: Vec<StoredEntry> = unique
            .iter()
            .map(|t| StoredEntry {
                name: (*t).to_owned(),
                weight: 1,
            })
            .collect();
        cost.absorb(self.run_append(net, key, entries)?);

        // 3. per tag: t̄ᵢ reverse edge + t̂ᵢ pairwise FG arcs.
        for &t in &unique {
            let key = block_key(t, BlockType::TagResources);
            let entry = vec![StoredEntry {
                name: resource.to_owned(),
                weight: 1,
            }];
            cost.absorb(self.run_append(net, key, entry)?);

            let key = block_key(t, BlockType::TagNeighbors);
            let arcs: Vec<StoredEntry> = unique
                .iter()
                .filter(|&&other| other != t)
                .map(|&other| StoredEntry {
                    name: other.to_owned(),
                    weight: 1,
                })
                .collect();
            // A single-tag resource has no arcs: the paper still counts
            // the lookup, so the update goes out empty.
            cost.absorb(self.run_append(net, key, arcs)?);
        }
        Ok(cost)
    }

    /// **Tag insertion** (§IV-A/B): attaches `t` to existing resource `r`.
    ///
    /// Naive policy: `4 + |Tags(r)|` lookups. Approximated: `4 + k`.
    ///
    /// 1. `APPEND r̄ (t, +1)`;
    /// 2. `APPEND t̄ (r, +1)`;
    /// 3. `GET r̄` — retrieve `Tags(r)` with weights;
    /// 4. `APPEND t̂` — forward arcs `(t, τ)` for **all** `τ ∈ Tags(r)` in
    ///    one block update (empty when `t` was already on `r`: the exact
    ///    model leaves `sim(t, ·)` unchanged in that case);
    /// 5. per selected `τ` (all of them naive, ≤ k under Approximation A):
    ///    `APPEND τ̂ (t, +1)` — the reverse arcs, one lookup each.
    ///
    /// Steps 1–3 plus the `t̂` touch make the constant 4; step 5 contributes
    /// `|Tags(r)|` or `k`. When `t` was already present, step 4 is a no-op
    /// append so the lookup count stays at the paper's constant.
    pub fn tag(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        resource: &str,
        tag: &str,
    ) -> Result<TagReceipt> {
        let mut cost = OpCost::default();

        // 1. u(t, r) += 1 on r̄.
        let r_bar = block_key(resource, BlockType::ResourceTags);
        let e = vec![StoredEntry {
            name: tag.to_owned(),
            weight: 1,
        }];
        cost.absorb(self.run_append(net, r_bar, e)?);

        // 2. u(t, r) += 1 on t̄.
        let t_bar = block_key(tag, BlockType::TagResources);
        let e = vec![StoredEntry {
            name: resource.to_owned(),
            weight: 1,
        }];
        cost.absorb(self.run_append(net, t_bar, e)?);

        // 3. Fetch Tags(r) from r̄ (unfiltered: tagging needs the full set;
        //    resources carry few tags compared to popular tags' blocks).
        let (view, get_cost) = self.run_get(net, r_bar, 0)?;
        cost.absorb(get_cost);
        let view = view.ok_or_else(|| {
            DharmaError::NotFound(format!("resource '{resource}' has no r̄ block"))
        })?;

        // The weight of t after our own step-1 increment tells us whether
        // this tagging attached t to r for the first time.
        let t_weight = view
            .entries
            .iter()
            .find(|(n, _)| n == tag)
            .map(|(_, w)| *w)
            .unwrap_or(1);
        let newly_attached = t_weight <= 1;

        // Neighborhood τ ∈ Tags(r) \ {t}.
        let mut neighbors: Vec<(String, u64)> =
            view.entries.into_iter().filter(|(n, _)| n != tag).collect();
        let neighborhood = neighbors.len();

        // 4. Forward arcs (t, τ) on t̂ — only when newly attached. This is a
        //    single block update whatever its entry count, so Approximation A
        //    does not subset it (Table I's constant-4 term); Approximation B
        //    replaces the u(τ, r) bulk increment with one token.
        let t_hat = block_key(tag, BlockType::TagNeighbors);
        let forward: Vec<StoredEntry> = if newly_attached {
            neighbors
                .iter()
                .map(|(name, u_tau_r)| {
                    let delta = match self.cfg.policy.b_policy {
                        BPolicy::Exact | BPolicy::LiteralB => *u_tau_r,
                        BPolicy::UnitIncrement => 1,
                    };
                    StoredEntry {
                        name: name.clone(),
                        weight: delta,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        cost.absorb(self.run_append(net, t_hat, forward)?);

        // Approximation A: the per-neighbor τ̂ updates below are each a full
        // overlay lookup, so they are capped at k random neighbors.
        if let Some(k) = self.cfg.policy.connection_k {
            if neighbors.len() > k {
                neighbors.partial_shuffle(&mut self.rng, k);
                neighbors.truncate(k);
            }
        }

        // 5. Reverse arcs (τ, t) on each τ̂ — the linear/k term.
        let mut updated = 0usize;
        for (name, _) in &neighbors {
            let tau_hat = block_key(name, BlockType::TagNeighbors);
            let e = vec![StoredEntry {
                name: tag.to_owned(),
                weight: 1,
            }];
            cost.absorb(self.run_append(net, tau_hat, e)?);
            updated += 1;
        }

        Ok(TagReceipt {
            cost,
            neighborhood,
            updated,
            newly_attached,
        })
    }

    /// One **faceted-search step** (§IV-A): fetch `t̂` (filtered to the top
    /// `search_top_n` by `sim`) and `t̄`. Two lookups; intersections happen
    /// locally in [`crate::search::DhtFacetedSearch`].
    pub fn search_step(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        tag: &str,
    ) -> Result<(BlockView, BlockView, OpCost)> {
        let mut cost = OpCost::default();
        let t_hat = block_key(tag, BlockType::TagNeighbors);
        let (nbrs, c1) = self.run_get(net, t_hat, self.cfg.search_top_n)?;
        cost.absorb(c1);
        let t_bar = block_key(tag, BlockType::TagResources);
        let (res, c2) = self.run_get(net, t_bar, 0)?;
        cost.absorb(c2);
        Ok((nbrs.unwrap_or_default(), res.unwrap_or_default(), cost))
    }

    /// Resolves a resource name to its signed URI record (`GET r̃`).
    pub fn resolve_uri(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        resource: &str,
    ) -> Result<(Option<Vec<u8>>, OpCost)> {
        let key = block_key(resource, BlockType::ResourceUri);
        let (view, cost) = self.run_get(net, key, 0)?;
        Ok((view.and_then(|v| v.blob), cost))
    }

    /// Gracefully departs the overlay: the home node pushes a parting
    /// snapshot of every held key to its `k` closest peers and sends
    /// `Leave` notices so receivers purge it immediately, then it is
    /// removed from the network. The simulation is run briefly so the
    /// farewell datagrams land. Every subsequent operation on this client
    /// fails fast with [`DharmaError::NodeUnavailable`].
    pub fn leave(&mut self, net: &mut SimNet<KademliaNode>) -> Result<()> {
        if net.is_removed(self.home) {
            return Err(DharmaError::NodeUnavailable(format!(
                "home node {} already departed the overlay",
                self.home
            )));
        }
        // A crashed (suspended) node cannot execute a farewell — letting it
        // broadcast parting datagrams while every other op fails fast would
        // be inconsistent. Revive it first, or let it stay a crash.
        if !net.is_alive(self.home) {
            return Err(DharmaError::NodeUnavailable(format!(
                "home node {} is down (crashed or suspended)",
                self.home
            )));
        }
        net.leave(self.home, |n, ctx| n.leave(ctx));
        net.run_until(net.now_us() + 1_000_000);
        Ok(())
    }

    // ----- blocking operation drivers ---------------------------------

    /// Issues one operation on the home node and runs the net until it
    /// completes, reissuing on timeout (up to `op_retries`) when
    /// `retryable`. **Only idempotent operations may be retried**: a GET
    /// or a blob PUT can be repeated safely, but an `APPEND` that was
    /// applied at some replicas before the coordinator died would
    /// double-count its tokens if reissued — append callers pass
    /// `retryable = false` and surface the timeout instead. Each attempt
    /// counts as one overlay lookup on the receipt; cache hits are only
    /// meaningful (and only tallied) for reads.
    fn run_op(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        retryable: bool,
        count_cache_hits: bool,
        mut issue: impl FnMut(&mut KademliaNode, &mut dharma_net::Ctx<KadOutput>) -> u64,
    ) -> Result<(KadOutput, OpCost)> {
        let mut cost = OpCost::default();
        let mut attempt = 0u32;
        loop {
            if net.is_removed(self.home) {
                return Err(DharmaError::NodeUnavailable(format!(
                    "home node {} departed the overlay",
                    self.home
                )));
            }
            // A crashed (suspended) home is just as unusable as a departed
            // one: its timers are frozen, so every issued op would sit in
            // the queue forever and the client would burn all its retries
            // on timeouts before surfacing a generic error. Fail fast with
            // the distinct error instead; the caller can revive or rebind.
            if !net.is_alive(self.home) {
                return Err(DharmaError::NodeUnavailable(format!(
                    "home node {} is down (crashed or suspended)",
                    self.home
                )));
            }
            let before = net.counters().sent();
            let hits_before = net.counters().cache_hits();
            let op = net.with_node(self.home, &mut issue);
            let out = self.wait_for(net, op);
            cost.lookups += 1;
            cost.messages += net.counters().sent() - before;
            if count_cache_hits {
                cost.cache_hits += net.counters().cache_hits() - hits_before;
            }
            match out {
                Ok(out) => return Ok((out, cost)),
                Err(DharmaError::Timeout(_)) if retryable && attempt < self.cfg.op_retries => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Issues a write op on the home node and runs the net to completion,
    /// returning the origin stamp the coordinator minted for it. A stored
    /// write's stamp must raise this session's floor for its key — the
    /// read-your-writes obligation; the callers do that. `retryable` must
    /// only be true for idempotent writes (blob PUTs) — see
    /// [`DharmaClient::run_op`].
    fn run_write(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        retryable: bool,
        issue: impl FnMut(&mut KademliaNode, &mut dharma_net::Ctx<KadOutput>) -> u64,
    ) -> Result<(VersionStamp, OpCost)> {
        let (out, cost) = self.run_op(net, retryable, false, issue)?;
        match out {
            KadOutput::Written { stamp, .. } => Ok((stamp, cost)),
            other => Err(DharmaError::Protocol(format!(
                "expected write completion, got {other:?}"
            ))),
        }
    }

    /// One block update: `APPEND entries` at `key`, never retried. Its
    /// stamp raises the session floor unless `entries` is empty: an empty
    /// append still costs its lookup (Table I counts it), but no holder
    /// stores anything for it, so no holder's version ever reaches the
    /// stamp minted for it and a session read would wait on it forever.
    fn run_append(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        entries: Vec<StoredEntry>,
    ) -> Result<OpCost> {
        let (stamp, cost) = self.run_write(net, false, |n, ctx| {
            n.append_many(ctx, key, entries.clone())
        })?;
        if !entries.is_empty() {
            self.session.observe(key, stamp);
        }
        Ok(cost)
    }

    /// Issues a filtered GET (idempotent, hence always retryable) and runs
    /// the net to completion.
    fn run_get(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
    ) -> Result<(Option<BlockView>, OpCost)> {
        let (served, cost) = self.run_get_stamped(net, key, top_n, false)?;
        Ok((served.map(|(view, _)| view), cost))
    }

    /// The stamped GET underneath every client read. `fresh` requests the
    /// cache-bypassing, authoritative-only lookup
    /// ([`KademliaNode::get_fresh`] — the session-consistency
    /// escalation). Every served version raises the session floor: a
    /// later monotonic read may not go back behind it.
    fn run_get_stamped(
        &mut self,
        net: &mut SimNet<KademliaNode>,
        key: Id160,
        top_n: u32,
        fresh: bool,
    ) -> Result<(Option<(BlockView, VersionStamp)>, OpCost)> {
        let (out, cost) = self.run_op(net, true, true, |n, ctx| {
            if fresh {
                n.get_fresh(ctx, key, top_n)
            } else {
                n.get(ctx, key, top_n)
            }
        })?;
        match out {
            KadOutput::Value { value, .. } => {
                let served = value.map(|v| {
                    (
                        BlockView {
                            entries: v.entries.into_iter().map(|e| (e.name, e.weight)).collect(),
                            truncated: v.truncated,
                            blob: v.blob,
                        },
                        v.version,
                    )
                });
                if let Some((_, stamp)) = &served {
                    self.session.observe(key, *stamp);
                }
                Ok((served, cost))
            }
            other => Err(DharmaError::Protocol(format!(
                "expected value completion, got {other:?}"
            ))),
        }
    }

    /// Steps the simulation one event at a time and returns at the event
    /// that completes operation `op` on the home node. Op ids are only
    /// unique per node, so the match is on `(home, op)`. The client has one
    /// op in flight, so every other completion drained here (another
    /// node's, or a timed-out earlier attempt's) is never its own and is
    /// dropped.
    fn wait_for(&self, net: &mut SimNet<KademliaNode>, op: u64) -> Result<KadOutput> {
        let start = net.events_processed();
        loop {
            let done = net
                .take_completions_from()
                .into_iter()
                .find(|&(addr, id, _)| addr == self.home && id == op);
            if let Some((_, _, out)) = done {
                return Ok(out);
            }
            if net.events_processed() - start >= self.cfg.max_events_per_op {
                return Err(DharmaError::Timeout(format!(
                    "operation {op} exceeded the event budget"
                )));
            }
            if !net.step() {
                return Err(DharmaError::Timeout(format!(
                    "operation {op} never completed"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{overlay, overlay_with};
    use dharma_likir::CertificationAuthority;
    use dharma_types::{block_key, BlockType};

    fn client(policy: ApproxPolicy, home: u32) -> DharmaClient {
        let ca = CertificationAuthority::new(b"dharma-tests");
        let identity = ca.register("alice", 0);
        DharmaClient::new(
            home,
            identity,
            DharmaConfig {
                policy,
                ..DharmaConfig::default()
            },
        )
    }

    #[test]
    fn insert_costs_2_plus_2m() {
        let mut net = overlay(16, 10);
        let mut c = client(ApproxPolicy::EXACT, 1);
        for (m, tags) in [
            (1usize, vec!["rock"]),
            (3, vec!["rock", "metal", "live"]),
            (5, vec!["a", "b", "c", "d", "e"]),
        ] {
            let cost = c
                .insert_resource(&mut net, &format!("res-{m}"), "uri://x", &tags)
                .unwrap();
            assert_eq!(cost.lookups as usize, 2 + 2 * m, "m = {m}");
        }
    }

    #[test]
    fn tag_costs_match_table1() {
        let mut net = overlay(16, 11);
        // Insert a resource with 5 tags, then tag it with a 6th.
        let mut naive = client(ApproxPolicy::EXACT, 1);
        naive
            .insert_resource(&mut net, "res", "uri://x", &["a", "b", "c", "d", "e"])
            .unwrap();
        let receipt = naive.tag(&mut net, "res", "fresh").unwrap();
        assert_eq!(receipt.neighborhood, 5);
        assert!(receipt.newly_attached);
        assert_eq!(receipt.cost.lookups, 4 + 5, "naive: 4 + |Tags(r)|");

        // Approximated with k = 2 on a second fresh tag.
        let mut approx = client(ApproxPolicy::paper(2), 1);
        let receipt = approx.tag(&mut net, "res", "fresh2").unwrap();
        assert_eq!(receipt.cost.lookups, 4 + 2, "approx: 4 + k");
        assert_eq!(receipt.updated, 2);
        // Neighborhood now includes "fresh" from the previous op.
        assert_eq!(receipt.neighborhood, 6);
    }

    #[test]
    fn search_step_costs_2() {
        let mut net = overlay(16, 12);
        let mut c = client(ApproxPolicy::EXACT, 2);
        c.insert_resource(&mut net, "r1", "uri://1", &["rock", "metal"])
            .unwrap();
        let (nbrs, res, cost) = c.search_step(&mut net, "rock").unwrap();
        assert_eq!(cost.lookups, 2);
        assert_eq!(nbrs.entries.len(), 1);
        assert_eq!(nbrs.entries[0].0, "metal");
        assert_eq!(res.entries.len(), 1);
        assert_eq!(res.entries[0].0, "r1");
    }

    #[test]
    fn tagging_updates_blocks_consistently() {
        let mut net = overlay(12, 13);
        let mut c = client(ApproxPolicy::EXACT, 1);
        c.insert_resource(&mut net, "album", "uri://album", &["rock", "metal"])
            .unwrap();
        // Tag twice with an existing tag and once with a new one.
        c.tag(&mut net, "album", "rock").unwrap();
        let receipt = c.tag(&mut net, "album", "grunge").unwrap();
        assert!(receipt.newly_attached);

        // Read back r̄: u(rock) = 2, u(metal) = 1, u(grunge) = 1.
        let (_, _, _) = c.search_step(&mut net, "rock").unwrap();
        let key = block_key("album", BlockType::ResourceTags);
        let (view, _) = c.run_get(&mut net, key, 0).unwrap();
        let view = view.unwrap();
        let get = |n: &str| view.entries.iter().find(|(e, _)| e == n).map(|(_, w)| *w);
        assert_eq!(get("rock"), Some(2));
        assert_eq!(get("metal"), Some(1));
        assert_eq!(get("grunge"), Some(1));

        // FG arcs: sim(rock → grunge) = u(grunge, album) = 1 (exact policy),
        // sim(grunge → rock) = u(rock, album) = 2 at attach time.
        let key = block_key("grunge", BlockType::TagNeighbors);
        let (view, _) = c.run_get(&mut net, key, 0).unwrap();
        let entries = view.unwrap().entries;
        let rock = entries.iter().find(|(n, _)| n == "rock").unwrap();
        assert_eq!(rock.1, 2, "exact B adds u(rock, album)");

        let key = block_key("rock", BlockType::TagNeighbors);
        let (view, _) = c.run_get(&mut net, key, 0).unwrap();
        let entries = view.unwrap().entries;
        let grunge = entries.iter().find(|(n, _)| n == "grunge").unwrap();
        assert_eq!(grunge.1, 1);
    }

    #[test]
    fn approximation_b_appends_unit() {
        let mut net = overlay(12, 14);
        let mut c = client(ApproxPolicy::paper(10), 1);
        c.insert_resource(&mut net, "album", "uri://album", &["rock"])
            .unwrap();
        c.tag(&mut net, "album", "rock").unwrap();
        c.tag(&mut net, "album", "rock").unwrap(); // u(rock, album) = 3
        c.tag(&mut net, "album", "grunge").unwrap();
        let key = block_key("grunge", BlockType::TagNeighbors);
        let (view, _) = c.run_get(&mut net, key, 0).unwrap();
        let entries = view.unwrap().entries;
        let rock = entries.iter().find(|(n, _)| n == "rock").unwrap();
        assert_eq!(rock.1, 1, "Approximation B: unit token, not u(τ, r) = 3");
    }

    #[test]
    fn uri_record_roundtrips_and_verifies() {
        let mut net = overlay(12, 15);
        let ca = CertificationAuthority::new(b"dharma-tests");
        let identity = ca.register("alice", 0);
        let mut c = DharmaClient::new(3, identity, DharmaConfig::default());
        c.insert_resource(&mut net, "song", "uri://song.mp3", &["pop"])
            .unwrap();
        let (blob, cost) = c.resolve_uri(&mut net, "song").unwrap();
        assert_eq!(cost.lookups, 1);
        let record = <AuthenticatedRecord as dharma_types::WireDecode>::decode_exact(
            &blob.expect("record stored"),
        )
        .unwrap();
        let verifier = ca.verifier();
        assert_eq!(record.verify(&verifier, 0).unwrap(), b"uri://song.mp3");
        // A different CA cannot verify it.
        let other = CertificationAuthority::new(b"other");
        assert!(record.verify(&other.verifier(), 0).is_err());
    }

    #[test]
    fn crashed_home_fails_fast_with_distinct_error() {
        let mut net = overlay(12, 17);
        let mut c = client(ApproxPolicy::EXACT, 3);
        c.insert_resource(&mut net, "res", "uri://x", &["rock"])
            .unwrap();
        // Suspend the home node: previously every op burned all its
        // retries on event-queue timeouts before surfacing a generic
        // Timeout; now the dead coordinator is detected up front.
        let sent_before = net.counters().sent();
        net.crash(3);
        let err = c.search_step(&mut net, "rock").unwrap_err();
        assert!(
            matches!(err, DharmaError::NodeUnavailable(_)),
            "expected NodeUnavailable, got {err:?}"
        );
        assert_eq!(
            net.counters().sent(),
            sent_before,
            "fail-fast must not issue any datagrams"
        );
        // A crashed node cannot execute a graceful farewell either.
        assert!(matches!(
            c.leave(&mut net).unwrap_err(),
            DharmaError::NodeUnavailable(_)
        ));
        assert!(!net.is_removed(3), "a refused leave must not remove");
        // Revival restores service — the distinct error is retryable by
        // rebinding or reviving, unlike a permanent departure.
        net.revive(3);
        assert!(c.search_step(&mut net, "rock").is_ok());
    }

    #[test]
    fn graceful_leave_preserves_data_and_fails_later_ops() {
        let mut net = overlay(16, 18);
        let mut c = client(ApproxPolicy::EXACT, 2);
        c.insert_resource(&mut net, "kept", "uri://kept", &["rock", "jazz"])
            .unwrap();
        c.leave(&mut net).unwrap();

        // The departed client refuses further work, with the distinct
        // error and without touching the network.
        let err = c.search_step(&mut net, "rock").unwrap_err();
        assert!(matches!(err, DharmaError::NodeUnavailable(_)));
        assert!(matches!(
            c.leave(&mut net).unwrap_err(),
            DharmaError::NodeUnavailable(_)
        ));

        // The data it wrote (and any replicas it held) survives: another
        // client still resolves everything.
        let mut other = client(ApproxPolicy::EXACT, 7);
        let (nbrs, res, _) = other.search_step(&mut net, "rock").unwrap();
        assert_eq!(res.entries.len(), 1);
        assert_eq!(res.entries[0].0, "kept");
        assert_eq!(nbrs.entries.len(), 1);
        assert_eq!(nbrs.entries[0].0, "jazz");
        let (uri, _) = other.resolve_uri(&mut net, "kept").unwrap();
        assert!(uri.is_some(), "the URI record survives the departure");
    }

    /// Like [`overlay`], but with per-node hot caches enabled and enough
    /// nodes that a client's home is usually *not* a holder — reads get
    /// cached, and a later write elsewhere leaves those caches stale.
    fn cached_overlay(n: usize, seed: u64) -> SimNet<KademliaNode> {
        overlay_with(n, seed, 1, |cfg| {
            cfg.cache = Some(dharma_cache::CacheConfig::default());
        })
    }

    #[test]
    fn dharma_config_builder_validates_both_ways() {
        assert!(DharmaConfig::builder().namespace("").build().is_err());
        assert!(DharmaConfig::builder()
            .max_events_per_op(0)
            .build()
            .is_err());
        let cfg = DharmaConfig::builder()
            .search_top_n(7)
            .op_retries(0)
            .seed(5)
            .namespace("scoped")
            .build()
            .unwrap();
        assert_eq!(cfg.search_top_n, 7);
        assert_eq!(cfg.op_retries, 0);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.namespace, "scoped");
    }

    #[test]
    fn session_floor_tracks_writes_and_reads() {
        let mut net = overlay(12, 21);
        let mut c = client(ApproxPolicy::EXACT, 1);
        assert_eq!(c.session().tracked(), 0, "fresh session is empty");
        c.insert_resource(&mut net, "res", "uri://x", &["rock"])
            .unwrap();
        let r_bar = block_key("res", BlockType::ResourceTags);
        assert!(
            !c.session().floor(&r_bar).is_zero(),
            "a completed write must raise the session floor for its key"
        );
        // An eventual read observes too, and behaves exactly like the
        // classic read path.
        let (view, _) = c.get(&mut net, r_bar, 0, Consistency::Eventual).unwrap();
        assert_eq!(view.unwrap().entries, vec![("rock".to_owned(), 1)]);
        c.reset_session();
        assert_eq!(c.session().tracked(), 0, "reset starts a new session");
    }

    #[test]
    fn read_your_writes_escalates_past_a_stale_cache() {
        let mut net = cached_overlay(40, 23);
        let mut writer = client(ApproxPolicy::EXACT, 2);
        let mut reader = client(ApproxPolicy::EXACT, 1);
        writer
            .insert_resource(&mut net, "shared", "uri://s", &["old"])
            .unwrap();
        let r_bar = block_key("shared", BlockType::ResourceTags);

        // The reader's first read pins the pre-write view in its home
        // node's cache.
        let (view, _) = reader
            .get(&mut net, r_bar, 0, Consistency::Eventual)
            .unwrap();
        assert_eq!(view.unwrap().entries.len(), 1);

        // The writer tags the resource from a different home node — the
        // reader's cached view is now stale (no freshness subsystem here
        // to invalidate it).
        writer.tag(&mut net, "shared", "brand-new").unwrap();

        // Without the session floor, the reader keeps serving the stale
        // cached view.
        let (stale, _) = reader
            .get(&mut net, r_bar, 0, Consistency::Eventual)
            .unwrap();
        let stale = stale.unwrap();
        assert!(
            !stale.entries.iter().any(|(n, _)| n == "brand-new"),
            "precondition: the eventual read must still serve the stale cache \
             (home node accidentally a holder? pick another seed)"
        );

        // Causal handoff: the reader resumes the writer's session. The
        // session read detects the below-floor serve, escalates to an
        // authoritative re-read, and returns the written view.
        reader.import_session(writer.session());
        let (fresh, cost) = reader
            .get(&mut net, r_bar, 0, Consistency::ReadYourWrites)
            .unwrap();
        assert!(
            fresh.unwrap().entries.iter().any(|(n, _)| n == "brand-new"),
            "the session read must reflect the imported session's write"
        );
        assert_eq!(
            cost.lookups, 2,
            "one below-floor serve plus one authoritative escalation"
        );

        // The escalation re-pinned a current view: the next session read
        // passes on the first serve.
        let (_, cost) = reader
            .get(&mut net, r_bar, 0, Consistency::MonotonicReads)
            .unwrap();
        assert_eq!(cost.lookups, 1, "no second escalation needed");
    }

    #[test]
    fn unreachable_floor_surfaces_stale_read() {
        let mut net = overlay(12, 24);
        let mut c = client(ApproxPolicy::EXACT, 1);
        c.insert_resource(&mut net, "res", "uri://x", &["rock"])
            .unwrap();
        let r_bar = block_key("res", BlockType::ResourceTags);
        // A forged token claims a write no holder has ever seen: the
        // session read escalates once, then refuses to serve below the
        // floor rather than silently going back in time.
        let mut forged = SessionToken::default();
        forged.observe(
            r_bar,
            dharma_types::VersionStamp::new(u64::MAX, dharma_types::sha1(b"future")),
        );
        c.import_session(&forged);
        let err = c
            .get(&mut net, r_bar, 0, Consistency::MonotonicReads)
            .unwrap_err();
        assert!(
            matches!(err, DharmaError::StaleRead(_)),
            "expected StaleRead, got {err:?}"
        );
        // Eventual reads are unaffected by the floor.
        let (view, _) = c.get(&mut net, r_bar, 0, Consistency::Eventual).unwrap();
        assert!(view.is_some());
    }

    #[test]
    fn tagging_twice_keeps_read_your_writes_of_t_hat_readable() {
        let mut net = overlay(12, 25);
        let mut c = client(ApproxPolicy::EXACT, 1);
        // A single-tag insert and a repeated tag each send an empty t̂
        // append: it costs its lookup, but stores nothing to read back.
        c.insert_resource(&mut net, "solo", "uri://solo", &["lonely"])
            .unwrap();
        c.insert_resource(&mut net, "res", "uri://x", &["rock", "jazz"])
            .unwrap();
        c.tag(&mut net, "res", "pop").unwrap();
        let receipt = c.tag(&mut net, "res", "pop").unwrap();
        assert!(!receipt.newly_attached);
        assert_eq!(
            receipt.cost.lookups,
            4 + 2,
            "the empty t̂ append still counts"
        );
        for (tag, arcs) in [("lonely", 0), ("pop", 2)] {
            let t_hat = block_key(tag, BlockType::TagNeighbors);
            let (view, _) = c
                .get(&mut net, t_hat, 0, Consistency::ReadYourWrites)
                .unwrap();
            assert_eq!(view.map_or(0, |v| v.entries.len()), arcs, "{tag}");
        }
    }

    #[test]
    fn a_foreign_completion_with_the_clients_op_id_is_not_its_own() {
        let mut net = overlay(16, 26);
        let mut c = client(ApproxPolicy::EXACT, 1);
        // Runs `issue` through the client; returns its op id and output.
        fn run(
            c: &mut DharmaClient,
            net: &mut SimNet<KademliaNode>,
            issue: impl Fn(&mut KademliaNode, &mut dharma_net::Ctx<KadOutput>) -> u64,
        ) -> (u64, KadOutput) {
            let mut issued = 0;
            let (out, _) = c
                .run_op(net, false, false, |n, ctx| {
                    issued = issue(n, ctx);
                    issued
                })
                .unwrap();
            (issued, out)
        }
        let uri = block_key("res", BlockType::ResourceUri);
        let absent = block_key("nothing", BlockType::ResourceTags);
        let target = net.node(5).contact().id;

        // Op ids are only unique per node. Node 2's write shares its id
        // with the client's read on home 1 and completes just after it,
        // while the overlay is still busy with both.
        let foreign = net.with_node(2, |n, ctx| n.put_blob(ctx, uri, b"uri://x".to_vec()));
        let (own, out) = run(&mut c, &mut net, |n, ctx| n.get(ctx, absent, 0));
        assert_eq!(own, foreign, "precondition: the op ids collide");
        assert!(
            matches!(out, KadOutput::Value { value: None, .. }),
            "got {out:?}"
        );

        // Node 2's lookup completed before the client issued, and nobody
        // drained its completion yet.
        let foreign = net.with_node(2, |n, ctx| n.find_nodes(ctx, target));
        net.run_until_idle(100_000);
        let (own, out) = run(&mut c, &mut net, |n, ctx| {
            n.put_blob(ctx, uri, b"uri://x".to_vec())
        });
        assert_eq!(own, foreign, "precondition: the op ids collide");
        assert!(matches!(out, KadOutput::Written { .. }), "got {out:?}");
    }

    #[test]
    fn background_completions_leave_no_per_op_state() {
        // Republish keeps timers armed and replication ops completing on
        // every holder, whichever op the client waits for. The client keeps
        // none of them: it drains them and drops every one but its own.
        let mut net = overlay_with(16, 27, 1, |cfg| {
            cfg.republish_interval_us = Some(200_000);
        });
        let mut c = client(ApproxPolicy::EXACT, 1);
        c.insert_resource(&mut net, "res", "uri://x", &["rock", "jazz"])
            .unwrap();
        let tracked = c.session().tracked();
        let mut background = 0;
        for _ in 0..40 {
            c.tag(&mut net, "res", "rock").unwrap();
            assert!(
                net.take_completions_from().is_empty(),
                "the client drains every completion up to its own"
            );
            net.run_until(net.now_us() + 250_000);
            background += net.take_completions_from().len();
        }
        assert!(
            background > 0,
            "background ops completed between client ops"
        );
        assert_eq!(
            c.session().tracked(),
            tracked,
            "per-key floors only: repeated ops on the same keys add nothing"
        );
    }

    #[test]
    fn an_op_returns_at_its_completing_event() {
        // Twin overlays: one read through the client, one driven by hand
        // one event at a time. The client's clock must stop where the
        // completion fires. The key is absent, so the read runs a whole
        // lookup.
        let mut nets = [overlay(16, 28), overlay(16, 28)];
        let key = block_key("res", BlockType::ResourceTags);
        let [client_net, hand_net] = &mut nets;
        let (view, cost) = client(ApproxPolicy::EXACT, 1)
            .get(client_net, key, 0, Consistency::Eventual)
            .unwrap();
        assert!(view.is_none() && cost.messages > 0);
        let op = hand_net.with_node(1, |n, ctx| n.get(ctx, key, 0));
        while !hand_net
            .take_completions_from()
            .iter()
            .any(|&(addr, id, _)| addr == 1 && id == op)
        {
            assert!(hand_net.step());
        }
        assert_eq!(client_net.now_us(), hand_net.now_us());
        assert_eq!(client_net.events_processed(), hand_net.events_processed());
    }

    #[test]
    fn a_tag_advances_the_clock_by_its_own_latencies_only() {
        // Loss-free, no background timers: each lookup and write takes a
        // few round trips of at most 16 ms. Trailing RPC timers
        // (rpc_timeout_us = 300 ms) stay queued rather than being waited
        // out after every op.
        let mut net = overlay(16, 29);
        let mut c = client(ApproxPolicy::EXACT, 1);
        c.insert_resource(&mut net, "res", "uri://x", &["rock", "jazz", "pop"])
            .unwrap();
        let start = net.now_us();
        let receipt = c.tag(&mut net, "res", "new").unwrap();
        let elapsed = net.now_us() - start;
        assert_eq!(receipt.cost.lookups, 4 + 3);
        assert!(
            elapsed < u64::from(receipt.cost.lookups) * 100_000,
            "{elapsed} us for {} lookups",
            receipt.cost.lookups
        );
        let done = net.now_us();
        net.run_until_idle(1_000_000);
        assert!(
            net.now_us() - done > 200_000,
            "the last op's RPC timers were still pending"
        );
    }

    #[test]
    fn an_event_budget_of_one_times_out_after_one_event() {
        let mut net = overlay(12, 30);
        let cfg = DharmaConfig::builder()
            .max_events_per_op(1)
            .build()
            .unwrap();
        let ca = CertificationAuthority::new(b"dharma-tests");
        let mut c = DharmaClient::new(1, ca.register("alice", 0), cfg);
        let before = net.events_processed();
        // A tag starts with an append, which is never retried.
        let err = c.tag(&mut net, "res", "rock").unwrap_err();
        assert!(matches!(err, DharmaError::Timeout(_)), "got {err:?}");
        assert_eq!(net.events_processed() - before, 1);
    }

    #[test]
    fn the_sharded_engine_serves_the_client_the_same_outputs() {
        // A write and a read-back, by a client whose home is not a holder.
        let outputs = |shards: usize| {
            let mut net = overlay_with(16, 31, shards, |_| {});
            client(ApproxPolicy::EXACT, 1)
                .insert_resource(&mut net, "res", "uri://x", &["rock", "jazz"])
                .unwrap();
            let key = block_key("res", BlockType::ResourceTags);
            let home = (0..16).find(|&h| !net.node(h).storage().contains(&key));
            let mut c = client(ApproxPolicy::EXACT, home.unwrap());
            let entry = vec![StoredEntry {
                name: "pop".into(),
                weight: 1,
            }];
            let (written, _) = c
                .run_op(&mut net, false, false, |n, ctx| {
                    n.append_many(ctx, key, entry.clone())
                })
                .unwrap();
            let (read, _) = c
                .run_op(&mut net, true, false, |n, ctx| n.get(ctx, key, 0))
                .unwrap();
            [written, read]
        };
        let sharded = outputs(4);
        assert_eq!(sharded, outputs(2), "invariant across shard counts");
        // The engines draw link delays in different orders, so a stamp's
        // clock-derived seq differs between them; everything else agrees.
        let unclocked = |outs: [KadOutput; 2]| {
            outs.map(|out| match out {
                KadOutput::Written {
                    acks,
                    targets,
                    stamp,
                } => KadOutput::Written {
                    acks,
                    targets,
                    stamp: VersionStamp::new(0, stamp.writer),
                },
                KadOutput::Value { value, messages } => KadOutput::Value {
                    value: value.map(|mut v| {
                        v.version = VersionStamp::new(0, v.version.writer);
                        v
                    }),
                    messages,
                },
                other => other,
            })
        };
        let serial = outputs(1);
        for outs in [&serial, &sharded] {
            let [KadOutput::Written { stamp, .. }, KadOutput::Value {
                value: Some(v),
                messages,
            }] = outs
            else {
                panic!("unexpected outputs {outs:?}");
            };
            assert_eq!(v.version, *stamp, "the read serves the write");
            assert!(*messages > 0, "the read went over the network");
        }
        assert_eq!(unclocked(serial), unclocked(sharded));
    }

    #[test]
    fn tagging_unknown_resource_creates_degenerate_entry() {
        // The paper's Tag(r, t) assumes r exists; the blind first append
        // means an unknown name simply becomes a one-tag resource (no
        // pre-flight existence lookup — that would break Table I's constant).
        let mut net = overlay(8, 16);
        let mut c = client(ApproxPolicy::EXACT, 1);
        let receipt = c.tag(&mut net, "ghost", "rock").unwrap();
        assert_eq!(receipt.neighborhood, 0);
        assert!(receipt.newly_attached);
        assert_eq!(receipt.cost.lookups, 4);
    }
}
