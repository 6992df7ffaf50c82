//! The string-keyed solver registry.

/// Registry functions (`solvers::by_name`, `solvers::all`).
pub mod solvers {
    use crate::capacitated::CapacitatedSolver;
    use crate::engines::*;
    use crate::{unsupported, Solver, Unsupported};

    /// Every registered solver, in presentation order: the paper's
    /// algorithms first, then ground truth, then baselines; the
    /// capacitated engine over the paper's algorithm closes the list.
    pub fn all() -> Vec<Box<dyn Solver>> {
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
            Box::new(CapacitatedSolver),
        ]
    }

    /// Resolves a solver name to an engine, or explains why it cannot.
    /// Accepts every registry name (see [`names`]) plus the `krw` alias
    /// for the paper's algorithm.
    ///
    /// # Errors
    /// [`Unsupported`] naming the unknown spelling.
    pub fn resolve(name: &str) -> Result<Box<dyn Solver>, Unsupported> {
        let canonical = if name == "krw" { "approx" } else { name };
        all()
            .into_iter()
            .find(|s| s.name() == canonical)
            .ok_or_else(|| unsupported(format!("unknown solver \"{name}\"")))
    }

    /// Looks a solver up by its registry name (see [`names`]; `krw` is an
    /// alias of `approx`). `None` for unknown names; callers that want the
    /// reason use [`resolve`].
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
        assert_eq!(
            solvers::resolve("capacitated").unwrap().name(),
            "capacitated"
        );
        for spelling in ["cap:approx", "cap:greedy-local"] {
            let e = solvers::resolve(spelling).err().expect("rejected");
            assert!(e.reason.contains(spelling), "{e}");
        }
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
