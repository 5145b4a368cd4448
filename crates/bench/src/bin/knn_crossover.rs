//! Profiles the Exact → IVF build-time crossover that
//! `KnnBackend::auto` switches on.
//!
//! Builds the 10-NN graph with both backends — IVF at exactly the
//! parameters `auto` would pick (`nlist = √n`, `nprobe = 8`) — over a
//! geometric ladder of dataset sizes and reports the speedup, so the
//! constant `submod_knn::AUTO_EXACT_MAX_POINTS` can be re-derived on new
//! hardware instead of guessed.
//!
//! ```text
//! cargo run --release -p submod-bench --bin knn-crossover [-- --max N]
//! ```

use rand::{Rng, SeedableRng};
use std::time::Instant;
use submod_knn::{build_knn_graph, Embeddings, IvfIndex, KnnBackend};

const DIM: usize = 32;
const K: usize = 10;

fn embeddings(n: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let flat: Vec<f32> = (0..n * DIM).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
    Embeddings::from_flat(DIM, flat).unwrap()
}

fn time_build(data: &Embeddings, backend: &KnnBackend) -> f64 {
    let start = Instant::now();
    let graph = build_knn_graph(data, K, backend, 7).expect("build");
    let elapsed = start.elapsed().as_secs_f64();
    assert!(graph.num_nodes() == data.len());
    elapsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max: usize = args
        .iter()
        .position(|a| a == "--max")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);

    println!("Exact vs IVF(auto params: nlist = sqrt(n), nprobe = 8), {DIM}-d, {K}-NN");
    println!("{:>8} {:>12} {:>12} {:>9}", "n", "exact (s)", "ivf (s)", "speedup");
    let mut n = 500usize;
    let mut crossover = None;
    while n <= max {
        let data = embeddings(n, n as u64);
        let exact = time_build(&data, &KnnBackend::Exact);
        let ivf =
            time_build(&data, &KnnBackend::Ivf { nlist: IvfIndex::default_nlist(n), nprobe: 8 });
        println!("{n:>8} {exact:>12.3} {ivf:>12.3} {:>8.2}x", exact / ivf);
        if crossover.is_none() && ivf < exact {
            crossover = Some(n);
        }
        n *= 2;
    }
    match crossover {
        Some(n) => println!(
            "\nIVF first wins at n = {n}, a candidate for AUTO_EXACT_MAX_POINTS (now {})",
            submod_knn::AUTO_EXACT_MAX_POINTS
        ),
        None => println!("\nexact won everywhere up to {max}; raise --max"),
    }
}
