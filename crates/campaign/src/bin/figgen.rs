//! Regenerate any table/figure of the paper.
//!
//! ```text
//! cargo run --release -p campaign --bin figgen            # list figures
//! cargo run --release -p campaign --bin figgen fig8       # one figure
//! cargo run --release -p campaign --bin figgen all        # everything
//! cargo run --release -p campaign --bin figgen fig8 --fast    # reduced scale
//! cargo run --release -p campaign --bin figgen all --tiny     # wiring check
//! cargo run --release -p campaign --bin figgen all --jobs 4   # cap the pool
//! ```

use campaign::figures;
use experiments::figures::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--tiny") {
        Scale::Tiny
    } else if args.iter().any(|a| a == "--fast") {
        Scale::Fast
    } else {
        Scale::Full
    };
    // --jobs N caps the worker pool of every figure's campaign run, via
    // the ABC_JOBS fallback ScenarioEngine::new() honors.
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        match args.get(i + 1).and_then(|x| x.parse::<usize>().ok()) {
            Some(n) if n >= 1 => std::env::set_var("ABC_JOBS", n.to_string()),
            _ => {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        }
    }
    let mut skip_next = false;
    let which: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            skip_next = a.as_str() == "--jobs";
            !a.starts_with("--")
        })
        .collect();
    let all = figures::all();

    if which.is_empty() {
        eprintln!("figures available:");
        for (id, desc, _) in &all {
            eprintln!("  {id:<10} {desc}");
        }
        eprintln!("usage: figgen <id>|all [--fast|--tiny] [--jobs N]");
        std::process::exit(2);
    }

    for name in which {
        if name == "all" {
            for (id, _, f) in &all {
                eprintln!(">>> {id}");
                println!("{}", f(scale));
            }
            continue;
        }
        match all.iter().find(|(id, ..)| id == name) {
            Some((_, _, f)) => println!("{}", f(scale)),
            None => {
                eprintln!("unknown figure {name:?}; run with no args for the list");
                std::process::exit(2);
            }
        }
    }
}
