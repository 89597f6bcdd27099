//! # fleet-apps — the six paper applications
//!
//! Each module provides, for one application of §7.1:
//!
//! * the Fleet processing unit (`*_unit()`), written with the
//!   `fleet-lang` builder;
//! * a native *golden* reference implementing the same token algorithm
//!   (differentially tested against the unit through the software
//!   simulator);
//! * a workload generator matching the paper's experimental setup.
//!
//! The [`App`] registry gives the benchmark harness a uniform view,
//! including the paper's Figure 7 processing-unit counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bloom;
pub mod intcode;
pub mod json;
pub mod micro;
pub mod regex;
pub mod smith;
pub mod tree;

use fleet_lang::UnitSpec;

/// Identifier of one of the six applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// JSON field extraction.
    Json,
    /// Integer compression.
    IntCode,
    /// Gradient-boosted decision trees.
    Tree,
    /// Smith-Waterman fuzzy matching.
    Smith,
    /// Regular-expression matching.
    Regex,
    /// Bloom-filter construction.
    Bloom,
}

impl AppKind {
    /// All six, in the paper's Figure 7 order.
    pub fn all() -> [AppKind; 6] {
        [
            AppKind::Json,
            AppKind::IntCode,
            AppKind::Tree,
            AppKind::Smith,
            AppKind::Regex,
            AppKind::Bloom,
        ]
    }
}

/// Uniform handle over one application for harnesses and benches.
#[derive(Debug, Clone, Copy)]
pub struct App {
    /// Which application.
    pub kind: AppKind,
}

impl App {
    /// Creates a handle.
    pub fn new(kind: AppKind) -> App {
        App { kind }
    }

    /// Display name as printed in Figure 7.
    pub fn name(&self) -> &'static str {
        match self.kind {
            AppKind::Json => "JSON Parsing",
            AppKind::IntCode => "Integer Coding",
            AppKind::Tree => "Decision Tree",
            AppKind::Smith => "Smith-Waterman",
            AppKind::Regex => "Regex",
            AppKind::Bloom => "Bloom Filter",
        }
    }

    /// The paper's Figure 7 processing-unit count on the F1.
    pub fn paper_pu_count(&self) -> usize {
        match self.kind {
            AppKind::Json => 512,
            AppKind::IntCode => 192,
            AppKind::Tree => 384,
            AppKind::Smith => 384,
            AppKind::Regex => 704,
            AppKind::Bloom => 320,
        }
    }

    /// Builds the processing unit.
    pub fn spec(&self) -> UnitSpec {
        match self.kind {
            AppKind::Json => json::json_unit(),
            AppKind::IntCode => intcode::intcode_unit(),
            AppKind::Tree => tree::tree_unit(),
            AppKind::Smith => smith::smith_unit(),
            AppKind::Regex => regex::regex_unit(regex::EMAIL_PATTERN),
            AppKind::Bloom => bloom::bloom_unit(),
        }
    }

    /// Generates one input stream of roughly `approx_bytes`.
    ///
    /// For integer coding the paper averages over five input ranges;
    /// `gen_stream` varies the range with the seed accordingly.
    pub fn gen_stream(&self, seed: u64, approx_bytes: usize) -> Vec<u8> {
        match self.kind {
            AppKind::Json => json::gen_stream(seed, approx_bytes),
            AppKind::IntCode => {
                let bits = [5u32, 10, 15, 20, 25][(seed % 5) as usize];
                intcode::gen_stream(seed, approx_bytes, bits)
            }
            AppKind::Tree => tree::gen_stream(seed, approx_bytes),
            AppKind::Smith => smith::gen_stream(seed, approx_bytes),
            AppKind::Regex => regex::gen_stream(seed, approx_bytes),
            AppKind::Bloom => bloom::gen_stream(seed, approx_bytes),
        }
    }

    /// Reference output for a stream.
    pub fn golden(&self, input: &[u8]) -> Vec<u8> {
        match self.kind {
            AppKind::Json => json::golden(input),
            AppKind::IntCode => intcode::golden(input),
            AppKind::Tree => tree::golden(input),
            AppKind::Smith => smith::golden(input),
            AppKind::Regex => regex::golden(regex::EMAIL_PATTERN, input),
            AppKind::Bloom => bloom::golden(input),
        }
    }

    /// Output-region capacity to allocate for a given input size
    /// (with generous slack; overflow is detected, not silent).
    pub fn out_capacity(&self, input_len: usize) -> usize {
        let frac = match self.kind {
            AppKind::Json => input_len / 2,
            AppKind::IntCode => input_len + input_len / 2,
            AppKind::Tree => input_len / 4,
            AppKind::Smith => input_len / 2,
            AppKind::Regex => input_len / 2,
            AppKind::Bloom => input_len / 4,
        };
        frac.max(1024)
    }

    /// Input token size in bytes.
    pub fn in_token_bytes(&self) -> usize {
        match self.kind {
            AppKind::Json | AppKind::Smith | AppKind::Regex => 1,
            AppKind::IntCode | AppKind::Tree | AppKind::Bloom => 4,
        }
    }

    /// Lines of Fleet code in the paper's surface syntax (Figure 8's
    /// metric for the Fleet side).
    pub fn lines_of_code(&self) -> usize {
        fleet_lang::display::loc(&self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_isim::{bytes_to_tokens, tokens_to_bytes, Interpreter};

    #[test]
    fn registry_covers_all_apps_and_matches_golden() {
        for kind in AppKind::all() {
            let app = App::new(kind);
            let spec = app.spec();
            let stream = app.gen_stream(1, 3000);
            let tokens =
                bytes_to_tokens(&stream, spec.input_token_bits).expect("token-aligned stream");
            let out = Interpreter::run_tokens(&spec, &tokens)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            let bytes = tokens_to_bytes(&out.tokens, spec.output_token_bits);
            assert_eq!(bytes, app.golden(&stream), "{} output mismatch", app.name());
        }
    }

    #[test]
    fn paper_pu_counts_match_figure7() {
        let counts: Vec<usize> = AppKind::all()
            .iter()
            .map(|&k| App::new(k).paper_pu_count())
            .collect();
        assert_eq!(counts, vec![512, 192, 384, 384, 704, 320]);
    }

    #[test]
    fn loc_is_in_a_plausible_band() {
        for kind in AppKind::all() {
            let app = App::new(kind);
            let loc = app.lines_of_code();
            assert!(
                (10..=400).contains(&loc),
                "{}: {loc} rendered lines",
                app.name()
            );
        }
    }
}
