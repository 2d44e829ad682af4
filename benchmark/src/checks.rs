//! Correctness checks. Any violation fails the run; none is a metric.
//!
//! * Every read: `t̄` lists only resources the benchmark wrote, at no
//!   more than the written weight; `t̂` lists only arcs of the exact FG,
//!   at no more than their exact weight. On static loss-free workloads
//!   reads must equal the expectation, and a written block the lookups
//!   did not find or a client op that returned an error is a violation.
//!   On `mixed-geo` each of these fails its op instead of the run: loss
//!   causes misses, and a known client defect (completions matched by
//!   bare op id) produces reads above what was written. The workload
//!   stays measurable until that is fixed.
//! * `search-zipf`: every `t̂` read equals the exact FG's top 100 (up to
//!   the order of equal weights at the cut), and each session's first
//!   step has the candidate and resource counts of the centralized
//!   `FacetedSearch` over the exact FG.
//! * `tag-replay`: after the replay, every `r̄` and `t̄` block at every
//!   holder equals the replayed TRG exactly (§V-B convergence); every
//!   `t̂` weight is at most `Fg::derive_exact` of it, with no extra arc.
//! * Table I: overlay lookups equal `2 + 2m` per insert,
//!   `4 + min(k, |Tags(r) \ {t}|)` per tag and 2 per search step, summed
//!   over the ops issued (a lower bound where loss forces retries).

use dharma_folksonomy::{FacetedSearch, Fg, SearchConfig, Strategy, TagId};
use dharma_kademlia::messages::FetchedValue;
use dharma_types::{block_key, BlockType};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{res_id, res_name, tag_id, tag_name, Workload};
use crate::run::{Expected, Round, Tally, TOP_N};

/// Checks one search step's two reads against the expectation. On the
/// static loss-free workloads any mismatch is a violation. Elsewhere,
/// returns false when a read serves more than was written.
pub fn check_step(
    x: &Expected,
    t: &mut Tally,
    tag: TagId,
    hat: &FetchedValue,
    bar: &FetchedValue,
    first: bool,
) -> bool {
    let name = tag_name(tag);
    let fg = x.fg.as_ref().expect("the FG bound exists before any read");
    if !x.exact {
        let bar_ok = bar.entries.iter().all(|e| {
            let want = res_id(&e.name).map_or(0, |r| u64::from(x.trg.weight(tag, r)));
            (1..=want).contains(&e.weight)
        });
        let hat_ok = hat.entries.iter().all(|e| {
            let exact = tag_id(&e.name).map_or(0, |n| fg.sim(tag, n));
            (1..=exact).contains(&e.weight)
        });
        return bar_ok && hat_ok;
    }
    for e in &bar.entries {
        let want = res_id(&e.name).map_or(0, |r| u64::from(x.trg.weight(tag, r)));
        if e.weight != want {
            t.violation(format!(
                "t̄ of {name}: {} at {} (written: {want})",
                e.name, e.weight
            ));
        }
    }
    if bar.entries.len() != x.trg.res_degree(tag) || bar.truncated {
        t.violation(format!(
            "t̄ of {name}: {} entries (truncated: {}), written {}",
            bar.entries.len(),
            bar.truncated,
            x.trg.res_degree(tag)
        ));
    }
    for e in &hat.entries {
        let exact = tag_id(&e.name).map_or(0, |n| fg.sim(tag, n));
        let ok = if x.exact_fg {
            e.weight == exact
        } else {
            (1..=exact).contains(&e.weight)
        };
        if !ok {
            t.violation(format!(
                "t̂ of {name}: arc to {} at {} (exact: {exact})",
                e.name, e.weight
            ));
        }
    }
    if x.exact_fg {
        // Equal weights in rank order, hence the same top 100 up to how
        // ties at the cut are broken (names here, a hash in the FG).
        let want: Vec<u64> = fg
            .top_neighbors(tag, TOP_N as usize)
            .iter()
            .map(|&(_, w)| w)
            .collect();
        let got: Vec<u64> = hat.entries.iter().map(|e| e.weight).collect();
        if got != want || hat.truncated != (fg.out_degree(tag) > TOP_N as usize) {
            t.violation(format!(
                "t̂ of {name}: served top {} differs from the exact FG's",
                got.len()
            ));
        }
    }
    if first {
        t.first_steps
            .push((tag, hat.entries.len(), bar.entries.len()));
    }
    true
}

/// The checks that need the whole round: holder contents, Table I, and
/// the first steps against the centralized search.
pub fn after_round(round: &mut Round) {
    let Round {
        inputs,
        world,
        expected: x,
        tally: t,
        ..
    } = round;
    // Table I binds when every op completed, which the checks above
    // enforce on the loss-free workloads; loss makes it a lower bound.
    let table1_broken = (x.exact && t.lookups != t.table1_lookups) || t.lookups < t.table1_lookups;
    if t.failed == 0 && table1_broken {
        t.violation(format!(
            "Table I: {} lookups issued, the formulas give {}",
            t.lookups, t.table1_lookups
        ));
    }
    match inputs.workload {
        Workload::TagReplay => {
            let fg = Fg::derive_exact(&x.trg);
            let mut holders_checked = 0u64;
            for r in 0..x.trg.num_resources() as u32 {
                let r = dharma_folksonomy::ResId(r);
                let want: Vec<(String, u64)> = x
                    .trg
                    .tags_of(r)
                    .map(|(tg, u)| (tag_name(tg), u64::from(u)))
                    .collect();
                if want.is_empty() {
                    continue;
                }
                let key = block_key(&res_name(r), BlockType::ResourceTags);
                holders_checked +=
                    check_holders(world, t, &key, &want, &format!("r̄ of {}", res_name(r)));
            }
            for tg in 0..x.trg.num_tags() as u32 {
                let tg = TagId(tg);
                let want: Vec<(String, u64)> = x
                    .trg
                    .res_of(tg)
                    .map(|(r, u)| (res_name(r), u64::from(u)))
                    .collect();
                if want.is_empty() {
                    continue;
                }
                let name = tag_name(tg);
                let key = block_key(&name, BlockType::TagResources);
                holders_checked += check_holders(world, t, &key, &want, &format!("t̄ of {name}"));
                let key = block_key(&name, BlockType::TagNeighbors);
                for a in world.holders(&key).collect::<Vec<_>>() {
                    let storage = world.net.node(a).storage();
                    let (_, entries, _) = storage.snapshot(&key).expect("holder has the key");
                    for e in entries {
                        let exact = tag_id(&e.name).map_or(0, |n| fg.sim(tg, n));
                        if !(1..=exact).contains(&e.weight) {
                            t.violation(format!(
                                "t̂ of {name} at node {a}: arc to {} at {} (exact: {exact})",
                                e.name, e.weight
                            ));
                        }
                    }
                }
            }
            if holders_checked == 0 {
                t.violation("no replayed block was found at any holder".into());
            }
        }
        Workload::SearchZipf => {
            let search = FacetedSearch::new(&inputs.dataset.trg, &inputs.exact_fg);
            let cfg = SearchConfig {
                // Stop before any selection: the outcome is step 0's T and R.
                resource_stop: usize::MAX,
                ..SearchConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(0);
            for &(tag, cands, res) in &t.first_steps.clone() {
                let out = search.run(tag, Strategy::Random, &cfg, &mut rng);
                if (out.final_tags, out.final_resources) != (cands, res) {
                    t.violation(format!(
                        "first step on {}: |T| = {cands}, |R| = {res}; centralized search: {}, {}",
                        tag_name(tag),
                        out.final_tags,
                        out.final_resources
                    ));
                }
            }
        }
        Workload::MixedGeo => {}
    }
}

/// Every holder of `key` must hold exactly `want`; at least one must
/// exist. Returns the number of holders checked.
fn check_holders(
    world: &crate::run::World,
    t: &mut Tally,
    key: &dharma_types::Id160,
    want: &[(String, u64)],
    what: &str,
) -> u64 {
    let mut n = 0;
    for a in world.holders(key) {
        n += 1;
        let storage = world.net.node(a).storage();
        let count = storage.get(key).map_or(0, |v| v.entry_count());
        if count != want.len() || want.iter().any(|(name, w)| storage.weight(key, name) != *w) {
            t.violation(format!(
                "{what} at node {a}: {count} entries, expected {}",
                want.len()
            ));
        }
    }
    if n == 0 {
        t.violation(format!("{what}: no holder"));
    }
    n
}
