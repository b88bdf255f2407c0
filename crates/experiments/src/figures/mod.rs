//! One module per reproduced figure/table of the paper, plus the ablation
//! experiments DESIGN.md commits to, and [`REGISTRY`]: the table the `fig`
//! binary (and the golden suite) dispatches over. Each generator returns a
//! [`Table`] with the same rows/series the paper reports.

pub mod ablations;
pub mod controllers;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod resilience;
pub mod table1;

use crate::{Cli, SweepCtx, SweepError, Table};

/// One row of [`REGISTRY`]: a figure `fig <name>` can regenerate.
#[derive(Debug)]
pub struct Figure {
    /// What the command line calls it.
    pub name: &'static str,
    /// Stem of its output files (`<stem>.<scale>.csv`, the journal, the
    /// committed golden).
    pub stem: &'static str,
    /// Whether it is parameterised by a network preset. The others run on
    /// the paper's 16-ary 2-cube only, and `fig` refuses `--net` for them.
    pub takes_net: bool,
    /// Produces the table from the parsed command line.
    pub generate: fn(&Cli, &SweepCtx) -> Result<Table, SweepError>,
}

/// Shorthand for the rows whose name is their file stem.
const fn row(
    name: &'static str,
    takes_net: bool,
    generate: fn(&Cli, &SweepCtx) -> Result<Table, SweepError>,
) -> Figure {
    Figure {
        name,
        stem: name,
        takes_net,
        generate,
    }
}

/// Every figure, in the order `fig --list` prints them.
pub static REGISTRY: &[Figure] = &[
    row("table1", false, |_, _| Ok(table1::generate())),
    row("fig1", false, |cli, ctx| fig1::generate(cli.scale, ctx)),
    row("fig2", true, |cli, ctx| {
        fig2::generate_on(cli.net(), cli.scale, ctx)
    }),
    row("fig3", false, |cli, ctx| fig3::generate(cli.scale, ctx)),
    row("fig4", true, |cli, ctx| {
        fig4::generate_on(cli.net(), cli.scale, ctx)
    }),
    row("fig5", true, |cli, ctx| {
        fig5::generate_on(cli.net(), cli.scale, ctx)
    }),
    row("fig6", false, |cli, _| Ok(fig6::generate(cli.scale))),
    row("fig7", false, |cli, ctx| fig7::generate(cli.scale, ctx)),
    row("fig7_latency", false, |cli, ctx| {
        fig7::latency_summary(cli.scale, ctx)
    }),
    Figure {
        name: "controllers",
        stem: "fig_controllers",
        takes_net: true,
        generate: |cli, ctx| {
            let schemes = cli
                .controllers
                .clone()
                .unwrap_or_else(|| controllers::roster(cli.net()));
            controllers::generate_filtered(cli.net(), cli.scale, ctx, &schemes)
        },
    },
    row("resilience", true, |cli, ctx| {
        resilience::generate_on(cli.net(), cli.scale, ctx)
    }),
    row("ablation_extrapolation", false, |cli, ctx| {
        ablations::extrapolation(cli.scale, ctx)
    }),
    row("ablation_tuning_period", false, |cli, ctx| {
        ablations::tuning_period(cli.scale, ctx)
    }),
    row("ablation_increments", false, |cli, ctx| {
        ablations::increments(cli.scale, ctx)
    }),
    row("ablation_sideband_bits", false, |cli, ctx| {
        ablations::sideband_bits(cli.scale, ctx)
    }),
    row("ablation_hop_delay", false, |cli, ctx| {
        ablations::hop_delay(cli.scale, ctx)
    }),
];

/// The registry row called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Figure> {
    REGISTRY.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_stems_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(
                std::ptr::eq(find(a.name).unwrap(), a),
                "{} shadowed",
                a.name
            );
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.stem, b.stem);
            }
        }
        assert!(find("fig8").is_none());
    }
}
