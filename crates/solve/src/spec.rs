//! One recursive grammar for solver names.
//!
//! [`SolverSpec`] parses every accepted spelling in one place:
//!
//! ```text
//! spec ::= cap-spec | base
//! cap-spec ::= "capacitated" | "cap:" base
//! base ::= "krw" | any base registry name
//! ```
//!
//! Parsing returns `Result<SolverSpec, Unsupported>` whose error names the
//! *exact* bad segment (unknown name, or an illegal nesting like
//! `cap:cap:...`), so the daemon and the CLI can echo a useful message.
//! Canonical spellings collapse during the parse (`krw` → `approx`,
//! `cap:approx` → `capacitated`), so a spec's [`name`](SolverSpec::name)
//! is always the registry-canonical name of the engine
//! [`instantiate`](SolverSpec::instantiate) builds.

use std::sync::{Mutex, OnceLock};

use crate::capacitated::CapacitatedSolver;
use crate::{unsupported, Solver, Unsupported};

/// Interns a dynamically-built registry name so trait methods can hand out
/// `&'static str`. The pool is tiny (one entry per distinct `cap:*`
/// lookup) and deduplicated, so the leak is bounded.
pub(crate) fn intern(s: String) -> &'static str {
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("name pool unpoisoned");
    if let Some(&existing) = pool.iter().find(|&&e| e == s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    pool.push(leaked);
    leaked
}

/// A parsed solver name: a base engine, optionally wrapped by the
/// capacitated meta-engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverSpec {
    /// A base (non-meta) registry engine, held by canonical name.
    Base(&'static str),
    /// The native capacitated engine over an inner base spec.
    Capacitated(Box<SolverSpec>),
}

impl SolverSpec {
    /// Parses any accepted solver spelling into its composition tree.
    ///
    /// # Errors
    /// [`Unsupported`] naming the offending segment: an unknown engine
    /// name, or an illegal nesting (a meta engine inside `cap:`).
    pub fn parse(name: &str) -> Result<SolverSpec, Unsupported> {
        SolverSpec::parse_segment(name, name)
    }

    fn parse_segment(seg: &str, full: &str) -> Result<SolverSpec, Unsupported> {
        let in_context = |what: &str| {
            if seg == full {
                format!("{what} in solver spec \"{full}\"")
            } else {
                format!("{what} in segment \"{seg}\" of solver spec \"{full}\"")
            }
        };
        if seg == "capacitated" {
            return Ok(SolverSpec::Capacitated(Box::new(SolverSpec::Base(
                "approx",
            ))));
        }
        if let Some(inner) = seg.strip_prefix("cap:") {
            return match SolverSpec::parse_segment(inner, full)? {
                base @ SolverSpec::Base(_) => Ok(SolverSpec::Capacitated(Box::new(base))),
                _ => Err(unsupported(in_context(
                    "`cap:` wraps base engines only (no meta engine inside)",
                ))),
            };
        }
        let seg = if seg == "krw" { "approx" } else { seg };
        match crate::registry::solvers::base_names()
            .into_iter()
            .find(|&b| b == seg)
        {
            Some(canonical) => Ok(SolverSpec::Base(canonical)),
            None => Err(unsupported(in_context(&format!(
                "unknown solver \"{seg}\""
            )))),
        }
    }

    /// The registry-canonical name of the engine this spec builds
    /// (`cap:approx` parses to the spec named `capacitated`).
    pub fn name(&self) -> &'static str {
        match self {
            SolverSpec::Base(b) => b,
            SolverSpec::Capacitated(inner) => match inner.name() {
                "approx" => "capacitated",
                b => intern(format!("cap:{b}")),
            },
        }
    }

    /// Builds the engine the spec describes.
    ///
    /// # Panics
    /// Never for specs produced by [`parse`](SolverSpec::parse) — every
    /// parseable composition is constructible.
    pub fn instantiate(&self) -> Box<dyn Solver> {
        match self {
            SolverSpec::Base(b) => crate::registry::solvers::base_by_name(b)
                .unwrap_or_else(|| panic!("base engine {b} registered")),
            SolverSpec::Capacitated(inner) => Box::new(
                CapacitatedSolver::over(inner.name()).expect("parsed cap inner is a base engine"),
            ),
        }
    }
}

impl std::fmt::Display for SolverSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_base_names_and_alias() {
        assert_eq!(
            SolverSpec::parse("approx").unwrap(),
            SolverSpec::Base("approx")
        );
        assert_eq!(
            SolverSpec::parse("krw").unwrap(),
            SolverSpec::Base("approx")
        );
        assert_eq!(
            SolverSpec::parse("tree-dp").unwrap(),
            SolverSpec::Base("tree-dp")
        );
    }

    #[test]
    fn parses_meta_compositions() {
        let s = SolverSpec::parse("cap:greedy-local").unwrap();
        assert_eq!(
            s,
            SolverSpec::Capacitated(Box::new(SolverSpec::Base("greedy-local")))
        );
        assert_eq!(s.name(), "cap:greedy-local");
        assert_eq!(
            SolverSpec::parse("cap:approx").unwrap().name(),
            "capacitated"
        );
        assert_eq!(
            SolverSpec::parse("cap:krw").unwrap().name(),
            "capacitated",
            "alias collapses inside meta wrappers too"
        );
    }

    #[test]
    fn errors_name_the_bad_segment() {
        let e = SolverSpec::parse("cap:aprox").unwrap_err();
        assert!(e.reason.contains("unknown solver \"aprox\""), "{e}");
        assert!(e.reason.contains("cap:aprox"), "{e}");

        let e = SolverSpec::parse("sharded:approx").unwrap_err();
        assert!(e.reason.starts_with("unknown solver"), "{e}");

        let e = SolverSpec::parse("cap:cap:approx").unwrap_err();
        assert!(e.reason.contains("base engines only"), "{e}");

        let e = SolverSpec::parse("cap:capacitated").unwrap_err();
        assert!(e.reason.contains("base engines only"), "{e}");
    }

    #[test]
    fn instantiates_every_composition() {
        for spec in [
            "approx",
            "tree-dp",
            "cap:greedy-local",
            "cap:approx",
            "capacitated",
        ] {
            let parsed = SolverSpec::parse(spec).unwrap();
            let engine = parsed.instantiate();
            assert_eq!(engine.name(), parsed.name(), "{spec}");
        }
    }

    #[test]
    fn display_is_canonical() {
        assert_eq!(
            SolverSpec::parse("cap:krw").unwrap().to_string(),
            "capacitated"
        );
    }

    #[test]
    fn interned_names_are_stable() {
        let a = SolverSpec::parse("cap:best-single").unwrap();
        let b = SolverSpec::parse("cap:best-single").unwrap();
        assert!(std::ptr::eq(a.name(), b.name()), "intern pool deduplicates");
    }
}
