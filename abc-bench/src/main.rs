//! `abc-bench`: the end-to-end binary. It runs under the system
//! allocator; `--trace 1` is handed to `abc-bench-traced`.

fn main() -> std::process::ExitCode {
    abc_bench::cli::main(false)
}
