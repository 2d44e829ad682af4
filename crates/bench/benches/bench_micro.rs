//! Microbenchmarks of the hot primitives underneath every experiment:
//! SHA-1 hashing, wire codec, the per-hop routing and storage kernels,
//! Kendall τ-b, Fenwick sampling, Zipf sampling, FG top-N selection, and
//! the `dharma-par` speedup on a metric-style load.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dharma_dataset::{Fenwick, Zipf};
use dharma_folksonomy::kendall::{tau_b, tau_b_reference};
use dharma_folksonomy::{Fg, TagId};
use dharma_kademlia::{Contact, Message, RoutingTable, Storage};
use dharma_par::ThreadPool;
use dharma_types::{sha1, VersionStamp, WireDecode, WireEncode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_sha1(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_sha1");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("sha1_{size}B"), |b| b.iter(|| sha1(&data)));
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_codec");
    let msg = Message::FoundNodes {
        rpc: 42,
        from: Contact {
            id: sha1(b"from"),
            addr: 7,
        },
        contacts: (0..20)
            .map(|i| Contact {
                id: sha1(&[i]),
                addr: u32::from(i),
            })
            .collect(),
        digest: (0..8)
            .map(|i| dharma_kademlia::DigestEntry {
                key: sha1(&[0x40, i]),
                version: VersionStamp::new(u64::from(i) * 7, sha1(b"w")),
            })
            .collect(),
    };
    group.bench_function("encode_found_nodes_20", |b| {
        b.iter(|| msg.encode_to_bytes())
    });
    let encoded = msg.encode_to_bytes();
    group.bench_function("decode_found_nodes_20", |b| {
        b.iter(|| Message::decode_exact(&encoded).unwrap())
    });
    group.finish();
}

/// The two questions every lookup hop asks a node's routing table: the
/// `k` closest contacts to a key, and whether the node itself ranks within
/// `k` of it. The table is filled from a 128-node overlay at k = 20.
fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_routing");
    let mut rt = RoutingTable::new(sha1(b"node-0"), 20);
    for n in 1..128u32 {
        rt.note_contact(Contact {
            id: sha1(format!("node-{n}").as_bytes()),
            addr: n,
        });
    }
    let keys: Vec<_> = (0..64u32).map(|i| sha1(&i.to_le_bytes())).collect();
    let mut i = 0;
    group.bench_function("closest_k20_of_128", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            rt.closest(black_box(&keys[i]), 20)
        })
    });
    group.bench_function("count_closer_than_local_128", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            rt.count_closer_than_local(black_box(&keys[i]))
        })
    });
    group.finish();
}

/// Index-side filtering of one 500-entry block whose weights tie often
/// (1..8), at top-100 and unfiltered, within a 1200-byte reply budget.
fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_storage");
    let mut storage = Storage::new();
    let key = sha1(b"block");
    let mut rng = StdRng::seed_from_u64(4);
    for n in 0..500u64 {
        let stamp = VersionStamp::new(n + 1, sha1(b"w"));
        storage.append(key, &format!("tag-{n:03}"), rng.gen_range(1..8), stamp);
    }
    group.bench_function("read_filtered_top100_of_500", |b| {
        b.iter(|| storage.read_filtered(black_box(&key), 100, 1200))
    });
    group.bench_function("read_filtered_all_of_500", |b| {
        b.iter(|| storage.read_filtered(black_box(&key), 0, 1200))
    });
    group.finish();
}

fn bench_kendall(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_kendall");
    let mut rng = StdRng::seed_from_u64(1);
    let x: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..50)).collect();
    let y: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..50)).collect();
    group.bench_function("tau_b_10k_nlogn", |b| b.iter(|| tau_b(&x, &y)));
    let xs = &x[..500];
    let ys = &y[..500];
    group.bench_function("tau_b_500_nlogn", |b| b.iter(|| tau_b(xs, ys)));
    group.bench_function("tau_b_500_n2_reference", |b| {
        b.iter(|| tau_b_reference(xs, ys))
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_sampling");
    let weights: Vec<u64> = (1..=100_000u64).collect();
    let fenwick = Fenwick::from_weights(&weights);
    let mut rng = StdRng::seed_from_u64(2);
    group.bench_function("fenwick_sample_100k", |b| {
        b.iter(|| fenwick.sample(&mut rng))
    });
    let zipf = Zipf::new(100_000, 1.1);
    group.bench_function("zipf_sample_100k", |b| b.iter(|| zipf.sample(&mut rng)));
    group.finish();
}

fn bench_top_neighbors(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_top_neighbors");
    let mut fg = Fg::new();
    let mut rng = StdRng::seed_from_u64(3);
    for i in 1..=20_000u32 {
        fg.add_sim(TagId(0), TagId(i), rng.gen_range(1..1000));
    }
    group.bench_function("top100_of_20k", |b| {
        b.iter(|| fg.top_neighbors(TagId(0), 100))
    });
    group.finish();
}

fn bench_par_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_par");
    group.sample_size(10);
    let items: Vec<u64> = (0..200_000).collect();
    let work = |&x: &u64| -> f64 {
        // A metric-sized unit of work.
        (0..40).fold(x as f64, |acc, i| acc + (acc * 0.5 + i as f64).sqrt())
    };
    group.bench_function("map_seq", |b| {
        b.iter(|| items.iter().map(work).sum::<f64>())
    });
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let pool = ThreadPool::new(threads);
    group.bench_function(format!("map_par_t{threads}"), |b| {
        b.iter(|| {
            dharma_par::par_map_reduce(
                &pool,
                &items,
                4096,
                0f64,
                |x| work(&x.clone()),
                |a, b| a + b,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha1,
    bench_codec,
    bench_routing,
    bench_storage,
    bench_kendall,
    bench_sampling,
    bench_top_neighbors,
    bench_par_speedup
);
criterion_main!(benches);
