//! End-to-end measurements, on the system allocator with no instruments.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
