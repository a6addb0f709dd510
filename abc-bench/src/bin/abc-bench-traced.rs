//! `abc-bench-traced`: the same command line under the counting
//! allocator, so the traced pass can attribute allocations to layers.

#[global_allocator]
static COUNTING: abc_bench::alloc::Counting = abc_bench::alloc::Counting;

fn main() -> std::process::ExitCode {
    abc_bench::cli::main(true)
}
