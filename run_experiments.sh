#!/bin/bash
# Regenerates every recorded artifact under results/ (see DESIGN.md S5).
# Scales are chosen for single-core wall-clock economy; pass your own
# --scale to the binaries for paper-scale runs.
set -u
cd "$(dirname "$0")"
FIG=target/release/fig
log() { echo "=== $(date +%H:%M:%S) $*"; }
log table1;   $FIG table1 --out results > results/table1.txt 2>&1
log fig6;     $FIG fig6 --scale reduced --out results > results/fig6.txt 2>&1
log fig1;     $FIG fig1 --scale reduced --out results > results/fig1.txt 2>&1
log fig2;     $FIG fig2 --scale smoke   --out results > results/fig2.txt 2>&1
log fig4;     $FIG fig4 --scale reduced --out results > results/fig4.txt 2>&1
log fig3;     $FIG fig3 --scale smoke   --out results > results/fig3.txt 2>&1
log fig5;     $FIG fig5 --scale smoke   --out results > results/fig5.txt 2>&1
log fig7;     $FIG fig7 --scale reduced --out results > results/fig7.txt 2>&1
for a in extrapolation tuning_period increments sideband_bits hop_delay; do
  log ablation_$a; $FIG ablation_$a --scale smoke --out results > results/ablation_$a.txt 2>&1
done
log done
