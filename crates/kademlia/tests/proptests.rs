//! Property tests for the Kademlia substrate: message-codec totality,
//! routing-table invariants, lookup convergence, storage commutativity,
//! and the bucket-walk `closest` and top-n-first `read_filtered` against
//! brute-force references.

use std::collections::BTreeMap;

use bytes::Bytes;
use dharma_kademlia::lookup::LookupState;
use dharma_kademlia::{Contact, DigestEntry, Message, RoutingTable, Storage, StoredEntry};
use dharma_types::{sha1, Id160, VersionStamp, WireDecode, WireEncode, ID160_BITS};
use proptest::prelude::*;

fn arb_stamp() -> impl Strategy<Value = VersionStamp> {
    (any::<u64>(), any::<[u8; 20]>())
        .prop_map(|(seq, w)| VersionStamp::new(seq, Id160::from_bytes(w)))
}

fn arb_contact() -> impl Strategy<Value = Contact> {
    (any::<[u8; 20]>(), any::<u32>()).prop_map(|(id, addr)| Contact {
        id: Id160::from_bytes(id),
        addr,
    })
}

fn arb_digest() -> impl Strategy<Value = Vec<DigestEntry>> {
    proptest::collection::vec(
        (any::<[u8; 20]>(), arb_stamp()).prop_map(|(k, version)| DigestEntry {
            key: Id160::from_bytes(k),
            version,
        }),
        0..8,
    )
}

fn arb_entry() -> impl Strategy<Value = StoredEntry> {
    ("[a-z0-9-]{1,24}", 0u64..1_000_000).prop_map(|(name, weight)| StoredEntry { name, weight })
}

fn arb_message() -> impl Strategy<Value = Message> {
    let rpc = any::<u64>();
    prop_oneof![
        (rpc, arb_contact()).prop_map(|(rpc, from)| Message::Ping { rpc, from }),
        (rpc, arb_contact(), arb_digest()).prop_map(|(rpc, from, digest)| Message::Pong {
            rpc,
            from,
            digest
        }),
        (rpc, arb_contact(), any::<[u8; 20]>()).prop_map(|(rpc, from, t)| Message::FindNode {
            rpc,
            from,
            target: Id160::from_bytes(t),
        }),
        (
            rpc,
            arb_contact(),
            proptest::collection::vec(arb_contact(), 0..24),
            arb_digest()
        )
            .prop_map(|(rpc, from, contacts, digest)| Message::FoundNodes {
                rpc,
                from,
                contacts,
                digest
            }),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(rpc, from, k, top_n, no_cache)| Message::FindValue {
                rpc,
                from,
                key: Id160::from_bytes(k),
                top_n,
                no_cache,
            }),
        (
            rpc,
            arb_contact(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            proptest::collection::vec(arb_entry(), 0..16),
            (any::<bool>(), arb_stamp(), any::<bool>()),
            arb_digest()
        )
            .prop_map(
                |(rpc, from, blob, entries, (truncated, version, from_cache), digest)| {
                    Message::FoundValue {
                        rpc,
                        from,
                        blob,
                        entries,
                        truncated,
                        version,
                        from_cache,
                        digest,
                    }
                }
            ),
        (
            rpc,
            arb_contact(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            proptest::collection::vec(arb_entry(), 0..16),
            (any::<[u8; 20]>(), any::<u32>(), any::<bool>(), arb_stamp())
        )
            .prop_map(
                |(rpc, from, blob, entries, (k, top_n, truncated, version))| {
                    Message::CachePush {
                        rpc,
                        from,
                        key: Id160::from_bytes(k),
                        top_n,
                        blob,
                        entries,
                        truncated,
                        version,
                    }
                }
            ),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            proptest::collection::vec(any::<u8>(), 0..512),
            arb_stamp()
        )
            .prop_map(|(rpc, from, k, blob, stamp)| Message::Store {
                rpc,
                from,
                key: Id160::from_bytes(k),
                blob,
                stamp,
            }),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            proptest::collection::vec(arb_entry(), 0..16),
            arb_stamp()
        )
            .prop_map(|(rpc, from, k, entries, stamp)| Message::Append {
                rpc,
                from,
                key: Id160::from_bytes(k),
                entries,
                stamp,
            }),
        (
            rpc,
            arb_contact(),
            any::<[u8; 20]>(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
            proptest::collection::vec(arb_entry(), 0..16),
            arb_stamp()
        )
            .prop_map(|(rpc, from, k, blob, entries, stamp)| Message::Replicate {
                rpc,
                from,
                key: Id160::from_bytes(k),
                blob,
                entries,
                stamp,
            }),
        (
            (rpc, arb_contact(), any::<[u8; 20]>(), any::<u32>()),
            (
                proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
                proptest::collection::vec(arb_entry(), 0..16),
                any::<bool>(),
                arb_stamp()
            )
        )
            .prop_map(
                |((rpc, from, k, top_n), (blob, entries, truncated, stamp))| {
                    Message::InvalidatePush {
                        rpc,
                        from,
                        key: Id160::from_bytes(k),
                        top_n,
                        blob,
                        entries,
                        truncated,
                        stamp,
                    }
                }
            ),
        (rpc, arb_contact()).prop_map(|(rpc, from)| Message::Ack { rpc, from }),
        (rpc, arb_contact()).prop_map(|(rpc, from)| Message::Leave { rpc, from }),
    ]
}

/// The contact whose distance to `local` has its highest set bit at
/// `depth` (so it lands in bucket `depth`), with random lower bits.
fn contact_at_depth(local: &Id160, depth: usize, low: [u8; 20], addr: u32) -> Contact {
    let mut d = low;
    for bit in 0..=depth {
        let mask = 0x80u8 >> (bit % 8);
        if bit == depth {
            d[bit / 8] |= mask;
        } else {
            d[bit / 8] &= !mask;
        }
    }
    Contact {
        id: Id160::from_bytes(std::array::from_fn(|i| local.as_bytes()[i] ^ d[i])),
        addr,
    }
}

/// The old full-sort `read_filtered`, over a plain name → weight model.
fn reference_read(
    model: &BTreeMap<String, u64>,
    top_n: u32,
    budget: usize,
) -> (Vec<StoredEntry>, bool) {
    let mut entries: Vec<StoredEntry> = model
        .iter()
        .map(|(name, &weight)| StoredEntry {
            name: name.clone(),
            weight,
        })
        .collect();
    entries.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.name.cmp(&b.name)));
    let mut truncated = false;
    if top_n > 0 && entries.len() > top_n as usize {
        entries.truncate(top_n as usize);
        truncated = true;
    }
    let mut used = 0;
    let mut keep = 0;
    for e in &entries {
        let size = e.encode_to_bytes().len();
        if used + size > budget {
            truncated = true;
            break;
        }
        used += size;
        keep += 1;
    }
    entries.truncate(keep);
    (entries, truncated)
}

proptest! {
    /// Every message roundtrips bit-exactly through the wire codec.
    #[test]
    fn message_codec_roundtrip(msg in arb_message()) {
        let encoded = msg.encode_to_bytes();
        let decoded = Message::decode_exact(&encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode_exact(&data);
        let mut bytes = Bytes::from(data);
        let _ = Message::decode(&mut bytes);
    }

    /// Every strict prefix of a valid encoding is rejected — a truncated
    /// datagram can never decode to a (different) valid message.
    #[test]
    fn message_prefixes_never_decode(msg in arb_message()) {
        let enc = msg.encode_to_bytes();
        for cut in 0..enc.len() {
            prop_assert!(
                Message::decode_exact(&enc[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    /// Single-byte corruption of a valid encoding never panics the
    /// decoder, and anything it still accepts re-encodes consistently.
    #[test]
    fn mutated_messages_never_panic(msg in arb_message(), idx in any::<u64>(), xor in 1u8..255) {
        let mut enc = msg.encode_to_bytes().to_vec();
        let i = (idx % enc.len() as u64) as usize;
        enc[i] ^= xor;
        if let Ok(decoded) = Message::decode_exact(&enc) {
            let re = decoded.encode_to_bytes();
            let again = Message::decode_exact(&re).unwrap();
            prop_assert_eq!(again, decoded, "accepted mutants must roundtrip");
        }
    }

    /// Routing-table invariants under arbitrary contact/failure streams:
    /// bucket occupancy never exceeds k, the local id never appears, and
    /// `closest` returns distance-sorted unique contacts.
    #[test]
    fn routing_table_invariants(
        contacts in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..300),
        k in 1usize..8,
    ) {
        let local = sha1(b"local");
        let mut rt = RoutingTable::new(local, k);
        for (n, fail) in contacts {
            let c = Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 };
            if fail {
                rt.note_failure(&c.id);
            } else {
                rt.note_contact(c);
            }
            for (i, len) in rt.occupancy() {
                prop_assert!(len <= k, "bucket {} holds {} > k = {}", i, len, k);
            }
        }
        let target = sha1(b"target");
        let closest = rt.closest(&target, 2 * k);
        for w in closest.windows(2) {
            prop_assert!(w[0].id.distance(&target) <= w[1].id.distance(&target));
        }
        let mut ids: Vec<_> = closest.iter().map(|c| c.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "no duplicate contacts");
        prop_assert!(!ids.contains(&local), "local id is not a contact");
    }

    /// `closest` equals "every live contact sorted by distance, first `n`"
    /// for tables built from inserts, PNS demotions and failures across
    /// many bucket depths, and `count_closer_than_local(t) < k` equals the
    /// old rule "fewer than `k` known, or the `k`-th closest no closer than
    /// the local node".
    #[test]
    fn closest_matches_brute_force(
        ops in proptest::collection::vec(
            // (kind, bucket depth, low bits, pick)
            (0u8..5, prop_oneof![0usize..8, 0usize..160], any::<[u8; 20]>(), any::<u64>()),
            1..300,
        ),
        k in 1usize..8,
        // 0: plain inserts only, 1: PNS inserts only, 2: both.
        pns_mode in 0u8..3,
        salt in any::<u64>(),
        targets in proptest::collection::vec((0usize..160, any::<[u8; 20]>()), 1..4),
    ) {
        let local = sha1(b"local");
        let mut rt = RoutingTable::new(local, k);
        // RTT oracle: a quarter of the ids are unmeasured.
        let rtt = |id: &Id160| {
            let h = sha1(&[id.as_bytes().as_slice(), &salt.to_le_bytes()].concat());
            (!h.as_bytes()[0].is_multiple_of(4)).then_some(u64::from(h.as_bytes()[1]) * 1_000)
        };
        let mut seen: Vec<Id160> = Vec::new();
        for (n, (kind, depth, low, pick)) in ops.into_iter().enumerate() {
            let c = contact_at_depth(&local, depth, low, n as u32);
            match kind {
                0..=3 if pns_mode == 0 || (pns_mode == 2 && kind < 2) => {
                    seen.push(c.id);
                    rt.note_contact(c);
                }
                0..=3 => {
                    seen.push(c.id);
                    rt.note_contact_pns(c, &rtt);
                }
                _ if seen.is_empty() => {
                    rt.note_failure(&c.id);
                }
                _ => {
                    rt.note_failure(&seen[(pick % seen.len() as u64) as usize]);
                }
            }
        }
        // Every bucket, not `rt.iter()`: the reference must not share the
        // walk's bound.
        let mut all: Vec<Contact> = (0..ID160_BITS)
            .flat_map(|i| rt.bucket(i).contacts().iter().cloned())
            .collect();
        let mut probes: Vec<Id160> = targets
            .iter()
            .map(|&(depth, low)| contact_at_depth(&local, depth, low, 0).id)
            .collect();
        probes.push(local);
        probes.push(sha1(b"target"));
        if let Some(c) = all.first() {
            probes.push(c.id);
        }
        for target in probes {
            all.sort_by_key(|c| c.id.distance(&target));
            for n in [0, 1, k, 2 * k, all.len() + 1] {
                let want = &all[..n.min(all.len())];
                prop_assert_eq!(rt.closest(&target, n).as_slice(), want, "n = {}", n);
            }
            let kth_rule = all.len() < k || all[k - 1].id.distance(&target) >= local.distance(&target);
            prop_assert_eq!(rt.count_closer_than_local(&target) < k, kth_rule);
        }
    }

    /// The iterative lookup always terminates and returns ≤ k contacts in
    /// distance order, for arbitrary response topologies.
    #[test]
    fn lookup_always_converges(
        seeds in proptest::collection::vec(any::<u64>(), 0..12),
        responses in proptest::collection::vec(any::<u64>(), 0..64),
        k in 1usize..6,
        alpha in 1usize..4,
    ) {
        let target = sha1(b"t");
        let seed_contacts: Vec<Contact> = seeds
            .iter()
            .map(|&n| Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 })
            .collect();
        let mut lookup = LookupState::new(target, seed_contacts, k, alpha);
        let mut response_iter = responses.iter();
        let mut steps = 0usize;
        loop {
            let queries = lookup.next_queries();
            if queries.is_empty() && lookup.inflight() == 0 {
                break;
            }
            for q in queries {
                // Each responder hands back 0..3 pseudo-random contacts.
                let mut more = Vec::new();
                for _ in 0..(q.addr % 3) {
                    if let Some(&n) = response_iter.next() {
                        more.push(Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 });
                    }
                }
                if q.addr % 5 == 0 {
                    lookup.on_failure(&q.id);
                } else {
                    lookup.on_response(&q.id, more);
                }
            }
            steps += 1;
            prop_assert!(steps < 10_000, "lookup failed to converge");
        }
        prop_assert!(lookup.is_converged());
        let result = lookup.closest_responded();
        prop_assert!(result.len() <= k);
        for w in result.windows(2) {
            prop_assert!(w[0].id.distance(&target) <= w[1].id.distance(&target));
        }
    }

    /// The `α`-parallelism bound and convergence hold under *arbitrary*
    /// response/failure interleavings — not just the lockstep
    /// query-then-answer-all schedule of `lookup_always_converges`. Each
    /// command either settles one chosen in-flight query (as a response
    /// carrying arbitrary new contacts, or as a failure) or pumps
    /// `next_queries`; settles and pumps interleave freely, so queries
    /// issued in one batch resolve in any order and partial batches
    /// overlap. Invariants: `inflight() ≤ α` at every step (and matches
    /// our own book-keeping), the lookup always converges once drained,
    /// and `closest_responded()` is distance-sorted, unique, and ≤ k.
    #[test]
    fn lookup_alpha_bound_holds_under_arbitrary_interleavings(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        commands in proptest::collection::vec(
            // (settle-vs-pump, which inflight query, fail?, contacts learned)
            (any::<bool>(), any::<u8>(), any::<bool>(), proptest::collection::vec(any::<u64>(), 0..4)),
            0..200,
        ),
        k in 1usize..6,
        alpha in 1usize..4,
    ) {
        let target = sha1(b"t");
        let mk = |n: u64| Contact { id: sha1(&n.to_le_bytes()), addr: n as u32 };
        let seed_contacts: Vec<Contact> = seeds.iter().map(|&n| mk(n)).collect();
        let mut lookup = LookupState::new(target, seed_contacts, k, alpha);
        let mut inflight: Vec<Contact> = Vec::new();

        let settle = |lookup: &mut LookupState,
                          inflight: &mut Vec<Contact>,
                          pick: u8,
                          fail: bool,
                          learned: &[u64]| {
            if inflight.is_empty() {
                return;
            }
            let q = inflight.remove(pick as usize % inflight.len());
            if fail {
                lookup.on_failure(&q.id);
            } else {
                lookup.on_response(&q.id, learned.iter().map(|&n| mk(n)).collect());
            }
        };

        for (pump, pick, fail, learned) in &commands {
            if *pump {
                inflight.extend(lookup.next_queries());
            } else {
                settle(&mut lookup, &mut inflight, *pick, *fail, learned);
            }
            prop_assert!(
                lookup.inflight() <= alpha,
                "{} in flight exceeds alpha = {}", lookup.inflight(), alpha
            );
            prop_assert_eq!(lookup.inflight(), inflight.len(), "book-keeping agrees");
        }

        // Drain: settle everything still pending, answering with nothing
        // new, until the lookup converges.
        let mut steps = 0usize;
        loop {
            inflight.extend(lookup.next_queries());
            if inflight.is_empty() {
                break;
            }
            settle(&mut lookup, &mut inflight, steps as u8, steps.is_multiple_of(3), &[]);
            prop_assert!(lookup.inflight() <= alpha);
            steps += 1;
            prop_assert!(steps < 10_000, "lookup failed to converge");
        }
        prop_assert!(lookup.is_converged());

        let result = lookup.closest_responded();
        prop_assert!(result.len() <= k);
        for w in result.windows(2) {
            prop_assert!(
                w[0].id.distance(&target) <= w[1].id.distance(&target),
                "closest_responded must be distance-sorted"
            );
        }
        let mut ids: Vec<_> = result.iter().map(|c| c.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "no duplicate contacts in the result");
    }

    /// Storage appends commute: any permutation of the same multiset of
    /// appends yields identical weights (the Approximation B guarantee).
    #[test]
    fn storage_appends_commute(
        ops in proptest::collection::vec((0u8..4, "[a-c]", 1u64..5), 1..40),
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let apply = |ops: &[(u8, String, u64)]| {
            let mut s = Storage::new();
            for (i, (kb, name, tokens)) in ops.iter().enumerate() {
                // The stamp rides along but weights merge commutatively
                // regardless of stamp order; holders keep the max.
                s.append(sha1(&[*kb]), name, *tokens, VersionStamp::new(i as u64 + 1, sha1(b"w")));
            }
            s
        };
        let a = apply(&ops);
        let mut shuffled = ops.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let b = apply(&shuffled);
        for (kb, name, _) in &ops {
            let key = sha1(&[*kb]);
            prop_assert_eq!(a.weight(&key, name), b.weight(&key, name));
        }
    }

    /// Cached filtered reads never contradict authoritative storage. This
    /// drives `Storage` and a `HotCache` exactly the way `KademliaNode`
    /// does — every write invalidates the key's cached views, every read
    /// consults the cache first and backfills it on a miss — and asserts
    /// that a cache hit always equals a fresh `Storage::read_filtered`.
    /// With an unbounded TTL this is exact equality, which in particular
    /// means appends preserve read-your-writes for the writer.
    #[test]
    fn cached_reads_match_storage(
        ops in proptest::collection::vec(
            // (key byte, entry name, tokens, top_n, is_write)
            (0u8..6, "[a-e]", 1u64..5, 0u32..4, any::<bool>()),
            1..300,
        ),
    ) {
        use dharma_cache::{CacheConfig, HotCache};
        use dharma_kademlia::storage::FilteredRead;

        let mut storage = Storage::new();
        let mut cache: HotCache<FilteredRead> = HotCache::new(CacheConfig {
            capacity: 8, // smaller than the reachable key universe: evictions happen
            ttl_us: u64::MAX,
        });
        let mut now = 0u64;
        let mut seq = 0u64;
        for (kb, name, tokens, top_n, is_write) in ops {
            now += 1;
            let key = sha1(&[kb]);
            if is_write {
                seq += 1;
                storage.append(key, &name, tokens, VersionStamp::new(seq, sha1(b"w")));
                cache.invalidate_key(&key);
            } else {
                let authoritative = storage.read_filtered(&key, top_n, 10_000);
                match cache.get(&(key, top_n), now) {
                    Some((cached, version)) => {
                        let auth = authoritative.expect("cached implies stored");
                        prop_assert_eq!(version, auth.version, "version tags agree");
                        prop_assert_eq!(cached, auth, "cached view equals a fresh read");
                    }
                    None => {
                        if let Some(read) = authoritative {
                            let version = read.version;
                            cache.insert((key, top_n), version, read, now);
                        }
                    }
                }
            }
        }
    }

    /// Filtered reads always respect top_n, the byte budget, and ordering.
    #[test]
    fn filtered_reads_respect_bounds(
        entries in proptest::collection::vec(("[a-z]{1,8}", 1u64..10_000), 1..60),
        top_n in 0u32..20,
        budget in 8usize..512,
    ) {
        let mut s = Storage::new();
        let key = sha1(b"k");
        for (i, (name, w)) in entries.iter().enumerate() {
            s.append(key, name, *w, VersionStamp::new(i as u64 + 1, sha1(b"w")));
        }
        let read = s.read_filtered(&key, top_n, budget).unwrap();
        if top_n > 0 {
            prop_assert!(read.entries.len() <= top_n as usize);
        }
        for w in read.entries.windows(2) {
            prop_assert!(w[0].weight >= w[1].weight, "weight-sorted");
        }
        // Encoded size within budget.
        let size: usize = read
            .entries
            .iter()
            .map(|e| e.encode_to_bytes().len())
            .sum();
        prop_assert!(size <= budget, "encoded {} > budget {}", size, budget);
    }
    /// `read_filtered` equals the full-sort reference in entries, tie
    /// order, `truncated` and `version`, with weights drawn from `1..4` so
    /// that name tie-breaks are common and budgets that cut inside the
    /// top `n`.
    #[test]
    fn filtered_reads_match_full_sort(
        appends in proptest::collection::vec(("[a-f]{1,3}", 1u64..4), 1..80),
        top_pick in any::<u32>(),
        budget_pick in any::<u64>(),
    ) {
        let mut s = Storage::new();
        let key = sha1(b"k");
        let writer = sha1(b"w");
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        for (i, (name, w)) in appends.iter().enumerate() {
            s.append(key, name, *w, VersionStamp::new(i as u64 + 1, writer));
            *model.entry(name.clone()).or_default() += w;
        }
        let top_n = top_pick % (model.len() as u32 + 2);
        let (top, _) = reference_read(&model, top_n, usize::MAX);
        let top_bytes: usize = top.iter().map(|e| e.encode_to_bytes().len()).sum();
        let budget = (budget_pick % (top_bytes as u64 + 3)) as usize;
        let (want, truncated) = reference_read(&model, top_n, budget);
        let read = s.read_filtered(&key, top_n, budget).unwrap();
        prop_assert_eq!(read.entries, want);
        prop_assert_eq!(read.truncated, truncated);
        prop_assert_eq!(read.version, VersionStamp::new(appends.len() as u64, writer));
        prop_assert!(read.blob.is_none());
    }
}
