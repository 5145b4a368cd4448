//! Experiment harness reproducing the paper's tables and figures. The
//! Figure 1 and Figure 2 walkthroughs are `examples/bounding_trace.rs`
//! and `examples/distributed_greedy_trace.rs`.
//!
//! ```text
//! cargo run -p submod-bench --release --bin experiments -- <experiment> [options]
//!
//! experiments:
//!   fig3      CIFAR heatmaps, non-adaptive (Figures 3 & 12)
//!   fig13     ImageNet heatmaps, non-adaptive (Figure 13)
//!   fig4      CIFAR heatmaps, adaptive (Figures 4 & 14)
//!   fig15     ImageNet heatmaps, adaptive (Figure 15)
//!   delta     Δ-schedule γ ablation (Figures 6–11)
//!   table2    bounding results (Table 2)
//!   table3    worst-case partitioning (Table 3)
//!   table4    perturbed-dataset runtimes (Table 4)
//!   sec63     13 B-point scalability analogue (§6.3)
//!   fig16     bounding + greedy heatmaps (Figures 16 & 17)
//!   baselines GreeDi / RandGreeDi memory-vs-quality comparison
//!   theory    Theorem 4.6 guarantee vs empirical quality
//!   ltm       larger-than-memory budget sweep: identical outcomes at
//!             every worker budget, peak driver-side bytes of both
//!             drivers, and the mapped graph's bytes vs the RSS growth
//!             of a steady-state selection pass (asserted smaller)
//!   profile   traced end-to-end pass (forces SUBMOD_TRACE=full, writes
//!             profile_trace.json + the phase-breakdown markdown;
//!             --scale 1.0 regenerates scale1_profile.md)
//!   all       everything above except profile
//!
//! options:
//!   --scale F    dataset scale factor, finite and > 0 (default 0.1;
//!                1.0 = paper sizes)
//!   --out DIR    artifact directory (default results/)
//!   --quick      coarse grids for smoke runs
//!   --threads N  worker threads for the submod_exec pool (default:
//!                EXEC_NUM_THREADS or the available cores; results are
//!                identical at any value — only wall-clock changes)
//!
//! With `SUBMOD_TRACE=spans` or `=full` (see the README's
//! Observability section) every experiment exports a chrome-trace to
//! `OUT/trace.json` and the metrics registry to `OUT/metrics.json` on
//! exit. A failed artifact write exits 2 naming the path.
//! ```

mod common;
mod exp_baseline;
mod exp_bounding;
mod exp_delta;
mod exp_heatmaps;
mod exp_ltm;
mod exp_profile;
mod exp_runtime;
mod exp_worstcase;
mod output;

use common::BenchCtx;
use output::write_artifact;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let experiment = args[0].clone();
    let mut ctx = BenchCtx { out_dir: PathBuf::from("results"), scale: 0.1, quick: false };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                ctx.scale = args
                    .get(i)
                    .and_then(|s| parse_scale(s))
                    .unwrap_or_else(|| die("--scale expects a finite number > 0"));
            }
            "--out" => {
                i += 1;
                ctx.out_dir =
                    PathBuf::from(args.get(i).unwrap_or_else(|| die("--out expects a path")));
            }
            "--quick" => ctx.quick = true,
            "--threads" => {
                i += 1;
                let threads: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--threads expects a positive integer"));
                submod_exec::set_num_threads(threads);
            }
            other => die(&format!("unknown option `{other}`")),
        }
        i += 1;
    }

    let start = Instant::now();
    run(&experiment, &ctx);
    println!("\ntotal experiment time: {:.1?}", start.elapsed());

    // `profile` exports (and drains) its own trace; every other
    // experiment gets an end-of-run export when tracing is on, so
    // `SUBMOD_TRACE=full experiments ltm` drops a Perfetto-loadable
    // trace next to its CSV artifacts.
    if experiment != "profile" && submod_obs::mode() != submod_obs::TraceMode::Off {
        write_artifact(
            &ctx.out_dir,
            "metrics.json",
            &submod_obs::metrics_json(&submod_obs::snapshot()),
        );
        let trace_path = ctx.out_dir.join("trace.json");
        let events = submod_obs::write_chrome_trace(&trace_path)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", trace_path.display())));
        println!(
            "  wrote {} ({} spans; load in Perfetto or chrome://tracing)",
            trace_path.display(),
            events.len()
        );
    }
}

fn run(experiment: &str, ctx: &BenchCtx) {
    match experiment {
        "fig3" | "fig12" => exp_heatmaps::fig3(ctx),
        "fig13" => exp_heatmaps::fig13(ctx),
        "fig4" | "fig14" => exp_heatmaps::fig4(ctx),
        "fig15" => exp_heatmaps::fig15(ctx),
        "delta" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "fig11" => {
            exp_delta::delta_ablation(ctx)
        }
        "table2" => exp_bounding::table2(ctx),
        "table3" => exp_worstcase::table3(ctx),
        "table4" => exp_runtime::table4(ctx),
        "sec63" => exp_runtime::sec63(ctx),
        "fig16" | "fig17" => exp_bounding::fig16_17(ctx),
        "baselines" | "table1" => exp_baseline::baselines(ctx),
        "theory" => exp_bounding::theory(ctx),
        "ltm" => exp_ltm::ltm(ctx),
        "profile" => exp_profile::profile(ctx),
        "all" => {
            for exp in [
                "fig3",
                "fig13",
                "fig4",
                "fig15",
                "delta",
                "table2",
                "table3",
                "table4",
                "sec63",
                "fig16",
                "baselines",
                "theory",
                "ltm",
            ] {
                println!("\n================ {exp} ================");
                run(exp, ctx);
            }
        }
        other => die(&format!("unknown experiment `{other}`")),
    }
}

fn print_usage() {
    println!(
        "usage: experiments <fig3|fig4|fig13|fig15|fig16|delta|table2|table3|table4|sec63|baselines|theory|ltm|profile|all> \
         [--scale F] [--out DIR] [--quick] [--threads N]"
    );
}

pub(crate) fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The `--scale` factor `arg` names, if it is a finite number above zero:
/// zero, negative and NaN factors would size every instance down to its
/// floor, and an infinite one would overflow the dataset allocation.
fn parse_scale(arg: &str) -> Option<f64> {
    arg.parse().ok().filter(|scale: &f64| scale.is_finite() && *scale > 0.0)
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_must_be_finite_and_positive() {
        assert_eq!(parse_scale("0.1"), Some(0.1));
        assert_eq!(parse_scale("1"), Some(1.0));
        assert_eq!(parse_scale("2.5e-3"), Some(2.5e-3));
        for bad in ["0", "-0", "-1", "nan", "NaN", "inf", "-inf", "infinity", "", "x", "1.0x"] {
            assert_eq!(parse_scale(bad), None, "`{bad}` must be rejected");
        }
    }
}
