//! Prints the rows of every figure of the paper's evaluation in one run. Pass `--quick`
//! for a reduced sweep.

fn main() {
    defcon_bench::run_figures_cli(&defcon_bench::Figure::all());
}
