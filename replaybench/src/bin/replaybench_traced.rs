//! The traced benchmark binary: per-layer metrics, with every allocation
//! counted.

#[global_allocator]
static ALLOC: replaybench::alloc::CountingAlloc = replaybench::alloc::CountingAlloc;

fn main() {
    std::process::exit(replaybench::cli::main(true));
}
