//! Per-layer measurements: the same workloads with every allocation
//! counted and the process CPU clock read around each layer.

#[global_allocator]
static ALLOC: perfbench::instr::CountingAlloc = perfbench::instr::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
