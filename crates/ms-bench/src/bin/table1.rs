//! Table I — commodity data center failure models (AFN100).
//!
//! Regenerates the paper's table by sampling the generative failure
//! model over many simulated years of a 2400-node data center and
//! computing the Annual Failure Number per 100 nodes per cause.

use ms_bench::paper::TABLE1;
use ms_bench::runner::run_parallel;
use ms_bench::BenchArgs;
use ms_sim::cluster::{Cluster, ClusterConfig, FailureModel};
use ms_sim::DetRng;

fn main() {
    let args = BenchArgs::parse();
    // The paper samples from the 2012 study's models; keep that as the
    // default seed.
    let seed = args.seed_or(2012);
    let years = 25.0;
    let cluster = Cluster::new(ClusterConfig::google_dc());
    println!("Table I: commodity data center failure models (AFN100)");
    println!(
        "cluster: {} nodes, {} racks; sampled over {years} simulated years\n",
        cluster.len(),
        cluster.racks()
    );

    // The two failure models sample independently from identical seeds;
    // run them on the worker pool.
    let models = [FailureModel::google(), FailureModel::abe()];
    let mut sampled = run_parallel(&models, args.threads(), |m| {
        let mut rng = DetRng::new(seed);
        m.sample(&cluster, years, &mut rng)
    });
    let abe = sampled.pop().expect("abe sample");
    let google = sampled.pop().expect("google sample");
    let google_afn = FailureModel::afn100(&google, cluster.len(), years);
    let abe_afn = FailureModel::afn100(&abe, cluster.len(), years);

    println!(
        "{:<13} {:>18} {:>10} {:>16} {:>10}",
        "Failure Source", "Google (paper)", "measured", "Abe (paper)", "measured"
    );
    for (i, (label, g_lo, g_hi, a_lo, a_hi)) in TABLE1.iter().enumerate() {
        let g = google_afn[i].1;
        let a = abe_afn[i].1;
        let fmt_range = |lo: f64, hi: f64| {
            if lo.is_nan() {
                "NA".to_string()
            } else {
                format!("{lo:.1}~{hi:.1}")
            }
        };
        println!(
            "{:<13} {:>18} {:>10.1} {:>16} {:>10.1}",
            label,
            fmt_range(*g_lo, *g_hi),
            g,
            fmt_range(*a_lo, *a_hi),
            a,
        );
    }

    let burst = FailureModel::burst_fraction(&google);
    println!(
        "\ncorrelated bursts: {:.1}% of failure events (paper: \"about 10%\")",
        burst * 100.0
    );
    let racky = google
        .iter()
        .filter(|e| e.is_burst() && e.name.contains("rack"))
        .count();
    let bursts = google.iter().filter(|e| e.is_burst()).count();
    println!(
        "rack-correlated bursts: {racky}/{bursts} (paper: \"large bursts are highly rack-correlated\")"
    );
}
