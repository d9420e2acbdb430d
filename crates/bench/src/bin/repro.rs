//! Regenerate the paper's figures and experiments.
//!
//! ```sh
//! cargo run --release -p ss-bench --bin repro -- list
//! cargo run --release -p ss-bench --bin repro -- fig1 fig3
//! cargo run --release -p ss-bench --bin repro -- all
//! ```
//!
//! There are no solver flags: every experiment states the `SimplexOptions`
//! it runs under in its own code, and the smokes enumerate their kernel /
//! pricing / factorization variants themselves.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = ss_bench::registry();

    if args.is_empty()
        || args
            .iter()
            .any(|a| a == "list" || a == "--help" || a == "-h")
    {
        println!("usage: repro <experiment-id>... | all | list\n\navailable experiments:");
        for (id, _) in &registry {
            println!("  {id}");
        }
        return;
    }

    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "all" && !registry.iter().any(|(id, _)| id == a))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {}; try `repro list`",
            unknown.join(", ")
        );
        std::process::exit(2);
    }

    let run_all = args.iter().any(|a| a == "all");
    for (id, f) in &registry {
        if run_all || args.iter().any(|a| a == id) {
            f();
        }
    }
}
