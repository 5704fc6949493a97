//! `repro` — regenerates the paper's tables and figures from the ftsim
//! stack.
//!
//! ```text
//! repro all                  # run everything, write results/*.json
//! repro fig8 table4          # run selected experiments
//! repro --list               # list experiment ids
//! repro obs-diff a.json b.json   # metrics regression gate (exit 1 on fail)
//! repro serve                # planner-as-a-service TCP endpoint
//! ```
//!
//! Experiments are independent, so they fan out across the engine's worker
//! threads (`FTSIM_THREADS`); reports and artifacts are emitted in input
//! order, byte-identical to a serial run.

use ftsim_experiments::cli::{self, Command};
use ftsim_experiments::{run, write_results};
use ftsim_sim::parallel_map;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    match command {
        Command::Help { exit_code } => {
            eprintln!("{}", cli::usage());
            std::process::exit(exit_code);
        }
        Command::List => {
            for id in ftsim_experiments::experiment_ids()
                .into_iter()
                .chain(ftsim_experiments::extra_experiment_ids())
            {
                println!("{id}");
            }
        }
        Command::ObsDiff {
            baseline,
            current,
            config,
        } => {
            std::process::exit(obs_diff(&baseline, &current, &config));
        }
        Command::Serve { config } => {
            std::process::exit(serve(config));
        }
        Command::Run { ids, out_dir } => {
            std::process::exit(run_experiments(&ids, &out_dir));
        }
    }
}

fn obs_diff(baseline: &str, current: &str, config: &ftsim_obs::DiffConfig) -> i32 {
    let load = |path: &str| {
        cli::load_snapshot(path).unwrap_or_else(|e| {
            eprintln!("obs-diff: {e}");
            std::process::exit(2);
        })
    };
    let report = ftsim_obs::compare(&load(baseline), &load(current), config);
    print!("{}", report.to_text());
    i32::from(report.has_regressions())
}

fn serve(config: ftsim_serve::ServeConfig) -> i32 {
    ftsim_obs::enable();
    let mut server = match ftsim_serve::Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot start: {e}");
            return 1;
        }
    };
    println!("serve: listening on {}", server.local_addr());
    // Runs until a client sends {"query":"shutdown"}.
    server.wait();
    let stats = server.cache_stats();
    println!(
        "serve: done — {} hits, {} misses, {} coalesced, {} evictions",
        stats.hits, stats.misses, stats.coalesced, stats.evictions
    );
    0
}

fn run_experiments(ids: &[String], out_dir: &str) -> i32 {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return 1;
    }

    // Run the experiments in parallel, then report serially in input order.
    let results = parallel_map(ids, |id| run(id));
    write_results(&results, Path::new(out_dir), &mut std::io::stdout().lock())
}
