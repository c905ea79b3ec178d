//! Prints the rows of figure 7 of the DEFCon paper. Pass `--quick`
//! for a reduced sweep.

fn main() {
    defcon_bench::run_figures_cli(&[defcon_bench::Figure::Fig7]);
}
