//! The string-keyed solver registry.

/// Registry functions (`solvers::by_name`, `solvers::all`).
pub mod solvers {
    use crate::capacitated::CapacitatedSolver;
    use crate::engines::*;
    use crate::spec::SolverSpec;
    use crate::{Solver, Unsupported};

    /// Every *base* (non-meta) engine, in presentation order: the
    /// paper's algorithms first, then ground truth, then baselines.
    pub(crate) fn base_all() -> Vec<Box<dyn Solver>> {
        vec![
            Box::new(ApproxSolver),
            Box::new(TreeDpSolver),
            Box::new(AutoSolver),
            Box::new(ExactSolver),
            Box::new(ExactRestrictedSolver),
            Box::new(GreedyLocalSolver),
            Box::new(BestSingleSolver),
            Box::new(RandomKSolver),
            Box::new(FullReplicationSolver),
        ]
    }

    /// Registry names of the base (non-meta) engines — the valid `<inner>`
    /// spellings for the `cap:<inner>` meta-engine prefix. Tools enumerating composable solver names (the `sweep`
    /// binary, the dynamic oracle bridge) advertise these.
    pub fn base_names() -> Vec<&'static str> {
        base_all().iter().map(|s| s.name()).collect()
    }

    /// Every registered solver, in presentation order; the meta-engine
    /// over the paper's algorithm (`capacitated`) closes the list.
    pub fn all() -> Vec<Box<dyn Solver>> {
        let mut engines = base_all();
        engines.push(Box::new(CapacitatedSolver::approx()));
        engines
    }

    /// A base engine by its canonical registry name (no aliases, no meta
    /// prefixes) — the leaf lookup of [`SolverSpec::instantiate`].
    pub(crate) fn base_by_name(name: &str) -> Option<Box<dyn Solver>> {
        base_all().into_iter().find(|s| s.name() == name)
    }

    /// Resolves a solver spec to an engine, or explains why it cannot.
    ///
    /// The accepted grammar is [`SolverSpec`]'s: any base registry name
    /// (plus the `krw` alias for the paper's algorithm), and `cap:<base>` /
    /// `capacitated` for the native capacitated engine. Canonical
    /// spellings collapse (`cap:approx` → `capacitated`).
    ///
    /// # Errors
    /// [`Unsupported`] naming the exact offending segment (unknown engine
    /// name, or an illegal nesting such as `cap:cap:...`).
    pub fn resolve(name: &str) -> Result<Box<dyn Solver>, Unsupported> {
        SolverSpec::parse(name).map(|spec| spec.instantiate())
    }

    /// Looks a solver up by its registry name (see [`names`] and the
    /// grammar on [`resolve`]). `None` when the spec does not parse;
    /// callers that want the reason use [`resolve`].
    pub fn by_name(name: &str) -> Option<Box<dyn Solver>> {
        resolve(name).ok()
    }

    /// All registry names, in [`all`] order.
    pub fn names() -> Vec<&'static str> {
        all().iter().map(|s| s.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::solvers;

    #[test]
    fn every_name_resolves() {
        for name in solvers::names() {
            let s = solvers::by_name(name).expect("registered");
            assert_eq!(s.name(), name);
            assert!(!s.description().is_empty());
        }
    }

    #[test]
    fn alias_and_unknown() {
        assert_eq!(solvers::by_name("krw").unwrap().name(), "approx");
        assert!(solvers::by_name("no-such-solver").is_none());
    }

    #[test]
    fn registry_covers_the_required_engines() {
        let names = solvers::names();
        for required in [
            "approx",
            "tree-dp",
            "exact",
            "exact-restricted",
            "greedy-local",
            "best-single",
            "random-k",
            "full-replication",
            "capacitated",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn resolve_reports_the_bad_segment() {
        let e = solvers::resolve("cap:no-such").err().expect("rejected");
        assert!(e.reason.contains("no-such"), "{e}");
        assert!(e.reason.contains("cap:no-such"), "{e}");
        let e = solvers::resolve("cap:cap:approx").err().expect("rejected");
        assert!(e.reason.contains("base engines only"), "{e}");
        assert_eq!(
            solvers::resolve("cap:approx").unwrap().name(),
            "capacitated"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names = solvers::names();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
