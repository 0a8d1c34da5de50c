//! The untraced benchmark binary: end-to-end metrics, system allocator.

fn main() {
    std::process::exit(replaybench::cli::main(false));
}
