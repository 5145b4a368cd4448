//! Experiment harness reproducing every table and figure of the paper.
//!
//! ```text
//! cargo run -p submod-bench --release --bin experiments -- <experiment> [options]
//!
//! experiments:
//!   fig1      bounding walkthrough (Figure 1)
//!   fig2      distributed-greedy walkthrough (Figure 2)
//!   fig3      CIFAR heatmaps, non-adaptive (Figures 3 & 12)
//!   fig13     ImageNet heatmaps, non-adaptive (Figure 13)
//!   fig4      CIFAR heatmaps, adaptive (Figures 4 & 14)
//!   fig15     ImageNet heatmaps, adaptive (Figure 15)
//!   fig5      subset visualization (Figure 5)
//!   delta     Δ-schedule γ ablation (Figures 6–11)
//!   table2    bounding results (Table 2)
//!   table3    worst-case partitioning (Table 3)
//!   table4    perturbed-dataset runtimes (Table 4)
//!   sec63     13 B-point scalability analogue (§6.3)
//!   fig16     bounding + greedy heatmaps (Figures 16 & 17)
//!   baselines GreeDi / RandGreeDi memory-vs-quality comparison
//!   theory    Theorem 4.6 guarantee vs empirical quality
//!   ltm       larger-than-memory budget sweep (outcome invariance)
//!   profile   traced end-to-end pass (forces SUBMOD_TRACE=full, writes
//!             profile_trace.json + the phase-breakdown markdown;
//!             --scale 1.0 regenerates scale1_profile.md)
//!   all       everything above
//!
//! options:
//!   --scale F    dataset scale factor, finite and > 0 (default 0.1;
//!                1.0 = paper sizes)
//!   --out DIR    artifact directory (default results/)
//!   --quick      coarse grids for smoke runs
//!   --threads N  worker threads for the submod_exec pool (default:
//!                EXEC_NUM_THREADS or the available cores; results are
//!                identical at any value — only wall-clock changes)
//!   --report-memory
//!                print peak driver-side bytes for the bounding and
//!                multi-round greedy drivers (in-memory tables/queues vs
//!                engine-resident candidates/winner rows), turning the
//!                §5 larger-than-memory claim into a number
//!   --graph-store mem|mmap
//!                graph backing (default mem). `mmap` writes each
//!                experiment graph to the on-disk CSR store once and
//!                reopens it read-only memory-mapped: adjacency costs
//!                zero driver heap, selections are bitwise-identical,
//!                and `ltm` reports graph bytes vs the measured peak
//!                RSS growth of the selection phase
//!   --journal DIR
//!                run the journaled selections of `ltm` and `table4`
//!                with a write-ahead journal per selection under DIR:
//!                every round boundary is fsynced, and the journaled
//!                result is asserted bit-identical to the plain one.
//!                Journal and fault counters land in the printed
//!                summary and the metrics export
//!   --resume     replay existing journals under `--journal DIR` to
//!                their last complete round boundary and continue from
//!                there (after a crash — or a SUBMOD_FAULTS=crash-round-N
//!                injection — rerunning with --resume completes the run
//!                without redoing finished rounds)
//!
//! With `SUBMOD_TRACE=spans` or `=full` (see the README's
//! Observability section) every experiment exports a chrome-trace to
//! `OUT/trace.json` and the metrics registry to `OUT/metrics.json` on
//! exit.
//! ```

mod common;
mod exp_baseline;
mod exp_bounding;
mod exp_delta;
mod exp_heatmaps;
mod exp_ltm;
mod exp_profile;
mod exp_runtime;
mod exp_visual;
mod exp_walkthrough;
mod exp_worstcase;
mod output;

use common::{BenchCtx, GraphStoreMode};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let experiment = args[0].clone();
    let mut ctx = BenchCtx {
        out_dir: PathBuf::from("results"),
        scale: 0.1,
        quick: false,
        report_memory: false,
        graph_store: GraphStoreMode::Mem,
        journal: None,
        resume: false,
    };
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
            "--report-memory" => ctx.report_memory = true,
            "--graph-store" => {
                i += 1;
                ctx.graph_store = match args.get(i).map(String::as_str) {
                    Some("mem") => GraphStoreMode::Mem,
                    Some("mmap") => GraphStoreMode::Mmap,
                    _ => die("--graph-store expects `mem` or `mmap`"),
                };
            }
            "--journal" => {
                i += 1;
                ctx.journal = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| die("--journal expects a directory")),
                ));
            }
            "--resume" => ctx.resume = true,
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
    if ctx.resume && ctx.journal.is_none() {
        die("--resume requires --journal DIR");
    }

    let start = Instant::now();
    run(&experiment, &ctx);
    println!("\ntotal experiment time: {:.1?}", start.elapsed());

    // `profile` exports (and drains) its own trace; every other
    // experiment gets an end-of-run export when tracing is on, so
    // `SUBMOD_TRACE=full experiments ltm` drops a Perfetto-loadable
    // trace next to its CSV artifacts.
    if experiment != "profile" && submod_obs::mode() != submod_obs::TraceMode::Off {
        let _ = std::fs::create_dir_all(&ctx.out_dir);
        let trace_path = ctx.out_dir.join("trace.json");
        match submod_obs::write_chrome_trace(&trace_path) {
            Ok(events) => println!(
                "wrote {} ({} spans; load in Perfetto or chrome://tracing)",
                trace_path.display(),
                events.len()
            ),
            Err(e) => eprintln!("trace export failed: {e}"),
        }
        let metrics_path = ctx.out_dir.join("metrics.json");
        let snap = submod_obs::snapshot();
        if std::fs::write(&metrics_path, submod_obs::metrics_json(&snap)).is_ok() {
            println!("wrote {}", metrics_path.display());
        }
    }
}

fn run(experiment: &str, ctx: &BenchCtx) {
    match experiment {
        "fig1" => exp_walkthrough::fig1(ctx),
        "fig2" => exp_walkthrough::fig2(ctx),
        "fig3" | "fig12" => exp_heatmaps::fig3(ctx),
        "fig13" => exp_heatmaps::fig13(ctx),
        "fig4" | "fig14" => exp_heatmaps::fig4(ctx),
        "fig15" => exp_heatmaps::fig15(ctx),
        "fig5" => exp_visual::fig5(ctx),
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
                "fig1",
                "fig2",
                "fig3",
                "fig13",
                "fig4",
                "fig15",
                "fig5",
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
        "usage: experiments <fig1|fig2|fig3|fig4|fig5|fig13|fig15|fig16|delta|table2|table3|table4|sec63|baselines|theory|ltm|profile|all> \
         [--scale F] [--out DIR] [--quick] [--threads N] [--report-memory] \
         [--graph-store mem|mmap] [--journal DIR] [--resume]"
    );
}

fn die(msg: &str) -> ! {
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
