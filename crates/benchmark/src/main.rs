fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ccsort_benchmark::cli::main(&argv));
}
