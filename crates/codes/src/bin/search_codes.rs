//! Offline code-search driver: rediscovers the hardcoded instances
//! (`[[11,1,5]]` cyclic code, `[[12,2,4]]` random code) used by the zoo.
//!
//! Run with `cargo run -p veriqec_codes --bin search_codes --release --
//! [all|dodecacode|carbon|dodeca115]`; an unknown mode exits 2.

#![forbid(unsafe_code)]

use rand::prelude::*;
use veriqec_codes::search::{search_cyclic, search_random_code};

/// Every subcommand `search_codes` accepts.
const MODES: [&str; 4] = ["all", "dodecacode", "carbon", "dodeca115"];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let what = args.get(1).map(String::as_str).unwrap_or("all");
    if !MODES.contains(&what) {
        eprintln!("error: unknown mode {what:?}; modes: {}", MODES.join(" | "));
        std::process::exit(2);
    }

    if what == "all" || what == "dodecacode" {
        println!("searching cyclic [[11,1,5]] ...");
        match search_cyclic(11, 5) {
            Some((seed, code)) => {
                println!(
                    "FOUND seed x_mask={:#013b} z_mask={:#013b}",
                    seed.x_mask, seed.z_mask
                );
                for g in code.generators() {
                    println!("  gen {}", g.pauli());
                }
            }
            None => println!("no cyclic [[11,1,5]] found"),
        }
    }

    if what == "all" || what == "carbon" {
        println!("searching random [[12,2,4]] ...");
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        match search_random_code(12, 2, 4, 4000, &mut rng) {
            Some(code) => {
                println!("FOUND [[12,2,4]]:");
                for g in code.generators() {
                    println!("  gen {}", g.pauli());
                }
                for (lx, lz) in code.logical_x().iter().zip(code.logical_z()) {
                    println!("  Lx {}  Lz {}", lx.pauli(), lz.pauli());
                }
            }
            None => println!("no [[12,2,4]] found in budget"),
        }
    }

    if what == "all" || what == "dodeca115" {
        println!("hill-climbing [[11,1,5]] ...");
        let seed: u64 = std::env::args()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x115);
        let mut rng = StdRng::seed_from_u64(seed);
        match veriqec_codes::search::hill_climb_distance(11, 1, 5, 400, 3000, &mut rng) {
            Some(code) => {
                println!("FOUND [[11,1,5]]:");
                for g in code.generators() {
                    println!("  gen {}", g.pauli());
                }
                for (lx, lz) in code.logical_x().iter().zip(code.logical_z()) {
                    println!("  Lx {}  Lz {}", lx.pauli(), lz.pauli());
                }
            }
            None => println!("no [[11,1,5]] found in budget"),
        }
    }
}
