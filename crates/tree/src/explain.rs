//! Query plans: which nodes serve which indices.
//!
//! The paper's §2.4 walks through exactly this for its example query
//! ("We build a set of nodes V that will be used to answer the query …
//! V = {R0, L0, L1, S2}"). [`SwatTree::explain`] exposes that greedy
//! cover as data, for debugging, teaching, and tests: every step lists
//! the chosen node, its current coverage, and the query indices it
//! newly serves.

use crate::config::TreeError;
use crate::query::{InnerProductQuery, QueryOptions};
use crate::tree::{NodePos, SwatTree};
use std::fmt;

/// One selected node in a query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Tree level of the node.
    pub level: usize,
    /// Which slot the node occupies (`R`, `S`, `L`).
    pub pos: NodePos,
    /// Window indices the node currently covers.
    pub coverage: (usize, usize),
    /// The query indices this node newly serves.
    pub serves: Vec<usize>,
}

/// The greedy cover of one query: the cover the query engine evaluates
/// for a single query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Selected nodes, in the paper's traversal order.
    pub steps: Vec<PlanStep>,
    /// Query indices no eligible node covers (nonempty only during
    /// warm-up or reduced-level operation).
    pub uncovered: Vec<usize>,
}

impl QueryPlan {
    /// Number of nodes the plan touches (the answer's `nodes_used`).
    pub fn nodes_used(&self) -> usize {
        self.steps.len()
    }

    /// The node set `V` as the paper writes it, e.g. `{R0, L0, L1, S2}`.
    pub fn node_set(&self) -> String {
        let names: Vec<String> = self
            .steps
            .iter()
            .map(|s| format!("{}{}", s.pos.name(), s.level))
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(
                f,
                "{}{} covers [{}-{}], serves {:?}",
                step.pos.name(),
                step.level,
                step.coverage.0,
                step.coverage.1,
                step.serves
            )?;
        }
        if !self.uncovered.is_empty() {
            writeln!(f, "uncovered: {:?}", self.uncovered)?;
        }
        write!(f, "V = {}", self.node_set())
    }
}

impl SwatTree {
    /// The greedy cover the tree would use to answer `query`, without
    /// evaluating it.
    ///
    /// # Errors
    ///
    /// [`TreeError::IndexOutOfWindow`] for indices beyond the window.
    pub fn explain(&self, query: &InnerProductQuery) -> Result<QueryPlan, TreeError> {
        self.explain_with(query, self.config().default_opts())
    }

    /// [`SwatTree::explain`] with explicit [`QueryOptions`].
    ///
    /// # Errors
    ///
    /// As [`SwatTree::explain`].
    pub fn explain_with(
        &self,
        query: &InnerProductQuery,
        opts: QueryOptions,
    ) -> Result<QueryPlan, TreeError> {
        let tree = self.view();
        tree.check_indices(query.indices())?;
        Ok(crate::scratch::with_thread_scratch(|scratch| {
            scratch.plan(tree.head, query.indices(), opts)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwatConfig;

    /// The paper's §2.4 walkthrough, as a plan.
    #[test]
    fn reproduces_the_papers_example_plan() {
        // Same setup as the fig2_trace golden test.
        let mut newest_first = [
            14.0, 12.0, 2.0, 4.0, 1.0, 1.0, 3.0, 5.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0,
        ];
        newest_first.reverse();
        let mut tree = SwatTree::from_window(SwatConfig::new(16).unwrap(), &newest_first).unwrap();
        for v in [4.0, 6.0, 2.0] {
            tree.push(v);
        }
        let q = InnerProductQuery::new(vec![0, 3, 8, 13], vec![10.0, 8.0, 4.0, 1.0], 50.0).unwrap();
        let plan = tree.explain(&q).unwrap();
        assert_eq!(plan.node_set(), "{R0, L0, L1, S2}");
        assert_eq!(plan.nodes_used(), 4);
        assert!(plan.uncovered.is_empty());
        // Steps carry the paper's coverages.
        assert_eq!(plan.steps[0].coverage, (0, 1));
        assert_eq!(plan.steps[0].serves, vec![0]);
        assert_eq!(plan.steps[3].coverage, (7, 14));
        assert_eq!(plan.steps[3].serves, vec![13]);
        let rendered = plan.to_string();
        assert!(rendered.contains("S2 covers [7-14]"));
        assert!(rendered.ends_with("V = {R0, L0, L1, S2}"));
    }

    #[test]
    fn plan_matches_answer_node_count() {
        let mut tree = SwatTree::new(SwatConfig::new(64).unwrap());
        tree.extend((0..200).map(|i| (i % 17) as f64));
        for q in [
            InnerProductQuery::exponential(32, 1e9),
            InnerProductQuery::linear_at(10, 20, 1e9),
            InnerProductQuery::point(63, 1e9),
        ] {
            let plan = tree.explain(&q).unwrap();
            let ans = tree.inner_product(&q).unwrap();
            assert_eq!(plan.nodes_used(), ans.nodes_used, "{q:?}");
            // Every query index appears exactly once across the steps.
            let mut served: Vec<usize> = plan.steps.iter().flat_map(|s| s.serves.clone()).collect();
            served.sort_unstable();
            let mut expect = q.indices().to_vec();
            expect.sort_unstable();
            assert_eq!(served, expect);
        }
    }

    #[test]
    fn uncovered_reported_under_reduced_levels() {
        let mut tree = SwatTree::new(SwatConfig::new(64).unwrap());
        tree.extend((0..200).map(|i| i as f64));
        let q = InnerProductQuery::point(0, 1e9);
        let plan = tree.explain_with(&q, QueryOptions::at_level(5)).unwrap();
        // Index 0 may or may not precede level-5 coverage depending on
        // phase; either the plan covers it at level >= 5 or reports it.
        if plan.uncovered.is_empty() {
            assert!(plan.steps[0].level >= 5);
        } else {
            assert_eq!(plan.uncovered, vec![0]);
        }
    }

    #[test]
    fn out_of_window_rejected() {
        let tree = SwatTree::new(SwatConfig::new(16).unwrap());
        let q = InnerProductQuery::point(16, 1.0);
        assert!(matches!(
            tree.explain(&q),
            Err(TreeError::IndexOutOfWindow { .. })
        ));
    }
}
