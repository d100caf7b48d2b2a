//! Trains the default face cascade and writes it as a model file.
//!
//! `Cascade::pretrained()` is this program's output, committed as
//! `crates/facedetect/models/default.cascade`. After a change to cascade
//! training, or to the synthetic faces and clutter it learns from,
//! regenerate the shipped model with
//!
//! ```text
//! cargo run --release -p sdvbs-facedetect --example train_cascade -- \
//!     crates/facedetect/models/default.cascade
//! ```

use sdvbs_facedetect::{Cascade, CascadeConfig};
use sdvbs_profile::Profiler;

fn main() {
    let Some(path) = std::env::args_os().nth(1) else {
        eprintln!("usage: train_cascade <path>");
        std::process::exit(2);
    };
    let mut prof = Profiler::new();
    let cascade = Cascade::train(&CascadeConfig::default(), &mut prof)
        .expect("the default training configuration succeeds");
    if let Err(e) = cascade.save(&path) {
        eprintln!("train_cascade: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote a {}-stage cascade to {}",
        cascade.stages(),
        std::path::Path::new(&path).display()
    );
}
