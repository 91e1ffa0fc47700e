//! Generates the paper's demo cube (synthetic Eurostat asylum
//! applications), enriches it, and serves it over HTTP.
//!
//! ```text
//! cargo run --release -p qb2olap_server --bin serve_demo -- \
//!     --addr 127.0.0.1:7878 --observations 5000
//! curl 'http://127.0.0.1:7878/ql' --data-binary @query.ql
//! ```

use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut observations = 5_000usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().expect("--addr needs a value"),
            "--observations" => {
                observations = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--observations needs a number")
            }
            "--help" | "-h" => {
                eprintln!("usage: serve_demo [--addr HOST:PORT] [--observations N]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    eprintln!("generating + enriching the demo cube ({observations} observations)...");
    let cube = qb2olap::demo::setup_demo_cube(&datagen::EurostatConfig::small(observations))
        .expect("demo cube");
    let tool = qb2olap::Qb2Olap::new(cube.endpoint.clone());

    let config = qb2olap_server::ServerConfig {
        addr,
        default_dataset: Some(cube.dataset.clone()),
        ..qb2olap_server::ServerConfig::default()
    };
    let server = qb2olap_server::start(tool, config).expect("bind server");
    eprintln!(
        "serving <{}> on {}",
        cube.dataset.as_str(),
        server.base_url()
    );
    eprintln!("try: curl '{}/explore/schema'", server.base_url());
    eprintln!("     curl '{}/metrics'", server.base_url());

    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
