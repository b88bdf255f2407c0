//! `fig <name> [flags]` — regenerates one table or figure of the paper (see
//! DESIGN.md §5 for the experiment index), printing it and writing
//! `<out>/<stem>.<scale>.csv`. `fig --list` names them all.
//!
//! Exit codes: 0 done, 1 a sweep point failed (re-run with `--resume`),
//! 2 usage (unknown figure or flag, a flag the figure does not take, a
//! malformed `STCC_*` value), 130 interrupted (`--resume` continues).
use experiments::cli::{Cli, USAGE};
use experiments::figures::{self, REGISTRY};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "--list" {
        for f in REGISTRY {
            let net = if f.takes_net { " [--net]" } else { "" };
            println!("{:<24} -> {}.<scale>.csv{net}", f.name, f.stem);
        }
        return;
    }
    if name.is_empty() || name.starts_with('-') {
        usage(USAGE);
    }
    let Some(fig) = figures::find(&name) else {
        let known: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
        usage(&format!(
            "unknown figure '{name}' (one of: {})",
            known.join(" ")
        ));
    };
    let cli = Cli::parse_or_exit(args);
    if cli.net.is_some() && !fig.takes_net {
        usage(&format!(
            "{name} has no network preset (it runs on the paper's 16-ary 2-cube): \
             --net does not apply"
        ));
    }
    if cli.controllers.is_some() && fig.name != "controllers" {
        usage(&format!(
            "--controllers is the controllers figure's flag, not {name}'s"
        ));
    }
    cli.run_sweep(fig.stem, |ctx| (fig.generate)(&cli, ctx));
}
