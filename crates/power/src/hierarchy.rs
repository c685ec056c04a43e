//! The datacenter power-delivery hierarchy.
//!
//! "The power delivery system in a cloud datacenter is organized in a
//! hierarchy; the power budget of each parent node is split equally among its
//! children" (§II). [`PowerNode`] models that tree and exposes both the
//! conventional even split and the heterogeneous split SmartOClock's gOA
//! computes (§IV-C).

use crate::units::Watts;

/// A node in the power-delivery tree (datacenter row, PDU, rack, server…).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerNode {
    name: String,
    budget: Watts,
    children: Vec<PowerNode>,
}

impl PowerNode {
    /// Create a leaf node.
    ///
    /// # Panics
    /// Panics if `budget` is negative.
    pub fn leaf(name: impl Into<String>, budget: Watts) -> PowerNode {
        let budget = validate_budget(budget);
        PowerNode {
            name: name.into(),
            budget,
            children: Vec::new(),
        }
    }

    /// Create an interior node with children.
    ///
    /// # Panics
    /// Panics if `budget` is negative.
    pub fn with_children(
        name: impl Into<String>,
        budget: Watts,
        children: Vec<PowerNode>,
    ) -> PowerNode {
        let budget = validate_budget(budget);
        PowerNode {
            name: name.into(),
            budget,
            children,
        }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Provisioned budget of this node.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Immediate children.
    pub fn children(&self) -> &[PowerNode] {
        &self.children
    }

    /// Sum of children budgets; exceeds `budget()` under oversubscription.
    pub fn children_budget(&self) -> Watts {
        self.children.iter().map(|c| c.budget).sum()
    }

    /// Oversubscription ratio: children budget / own budget (1.0 for leaves
    /// or unoversubscribed nodes).
    pub fn oversubscription(&self) -> f64 {
        if self.children.is_empty() || self.budget.get() == 0.0 {
            return 1.0;
        }
        self.children_budget().ratio(self.budget)
    }

    /// Even split of this node's budget across its children — the
    /// conventional policy the paper contrasts against.
    ///
    /// # Panics
    /// Panics if the node has no children.
    pub fn even_split(&self) -> Vec<Watts> {
        assert!(!self.children.is_empty(), "even split of a leaf node");
        vec![self.budget / self.children.len() as f64; self.children.len()]
    }

    /// Total number of leaves under this node (itself if a leaf).
    pub fn leaf_count(&self) -> usize {
        if self.children.is_empty() {
            1
        } else {
            self.children.iter().map(PowerNode::leaf_count).sum()
        }
    }
}

fn validate_budget(budget: Watts) -> Watts {
    assert!(budget.get() >= 0.0, "budget must be non-negative");
    budget
}

/// One child's demand profile for [`heterogeneous_split`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandProfile {
    /// Predicted regular (non-overclock) power consumption.
    pub regular: Watts,
    /// Predicted *extra* power wanted for overclocking.
    pub overclock_demand: Watts,
}

/// SmartOClock's heterogeneous budget computation (§IV-C).
///
/// Phase 1/2: every child is first granted its regular consumption. Phase 3:
/// the remaining headroom is split **proportionally to overclocking demand**.
/// Reproduces the paper's worked example:
///
/// ```
/// use soc_power::hierarchy::{heterogeneous_split, DemandProfile};
/// use soc_power::units::Watts;
///
/// // Rack limit 1.3kW; X: 400W regular + 50W OC demand; Y: 300W + 100W.
/// let budgets = heterogeneous_split(
///     Watts::new(1300.0),
///     &[
///         DemandProfile { regular: Watts::new(400.0), overclock_demand: Watts::new(50.0) },
///         DemandProfile { regular: Watts::new(300.0), overclock_demand: Watts::new(100.0) },
///     ],
/// );
/// assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
/// ```
///
/// Children with zero overclocking demand receive an equal share of whatever
/// headroom remains after demand-proportional grants would be zero — i.e.
/// when *no* child wants to overclock, the headroom is split evenly (keeping
/// the assignment safe for non-participating workloads).
///
/// If the regular consumption alone exceeds the budget, each child's regular
/// share is scaled down proportionally and no overclock headroom is granted.
///
/// # Panics
/// Panics if `children` is empty or any demand is negative.
pub fn heterogeneous_split(budget: Watts, children: &[DemandProfile]) -> Vec<Watts> {
    let mut out = Vec::with_capacity(children.len());
    heterogeneous_split_into(budget, children, &mut out);
    out
}

/// Allocation-free [`heterogeneous_split`]: clears `out` and fills it with
/// the same budgets, reusing its capacity. The per-step hot path of the
/// large-scale simulation calls this every budget refresh, so steady-state
/// allocation counts must not scale with simulated steps.
///
/// # Panics
/// Panics if `children` is empty or any demand is negative.
pub fn heterogeneous_split_into(budget: Watts, children: &[DemandProfile], out: &mut Vec<Watts>) {
    assert!(!children.is_empty(), "cannot split across zero children");
    for c in children {
        assert!(
            c.regular.get() >= 0.0 && c.overclock_demand.get() >= 0.0,
            "demands must be non-negative"
        );
    }
    out.clear();
    let regular_total: Watts = children.iter().map(|c| c.regular).sum();
    if regular_total > budget {
        // Infeasible even without overclocking: scale proportionally.
        let scale = budget.ratio(regular_total);
        out.extend(children.iter().map(|c| c.regular * scale));
        return;
    }
    let headroom = budget - regular_total;
    let demand_total: Watts = children.iter().map(|c| c.overclock_demand).sum();
    if demand_total.get() <= 0.0 {
        // No overclocking demand anywhere: split headroom evenly.
        let share = headroom / children.len() as f64;
        out.extend(children.iter().map(|c| c.regular + share));
        return;
    }
    out.extend(
        children
            .iter()
            .map(|c| c.regular + headroom * c.overclock_demand.ratio(demand_total)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rack_with_servers(n: usize, per_server: Watts, rack_budget: Watts) -> PowerNode {
        let children = (0..n)
            .map(|i| PowerNode::leaf(format!("server{i}"), per_server))
            .collect();
        PowerNode::with_children("rack", rack_budget, children)
    }

    #[test]
    fn oversubscription_ratio() {
        let rack = rack_with_servers(4, Watts::new(400.0), Watts::new(1200.0));
        assert!((rack.oversubscription() - 4.0 * 400.0 / 1200.0).abs() < 1e-12);
        let leaf = PowerNode::leaf("s", Watts::new(400.0));
        assert_eq!(leaf.oversubscription(), 1.0);
    }

    #[test]
    fn even_split_divides_equally() {
        let rack = rack_with_servers(4, Watts::new(400.0), Watts::new(1200.0));
        assert_eq!(rack.even_split(), vec![Watts::new(300.0); 4]);
    }

    #[test]
    fn leaf_count_recurses() {
        let rack1 = rack_with_servers(3, Watts::new(1.0), Watts::new(10.0));
        let rack2 = rack_with_servers(2, Watts::new(1.0), Watts::new(10.0));
        let row = PowerNode::with_children("row", Watts::new(15.0), vec![rack1, rack2]);
        assert_eq!(row.leaf_count(), 5);
    }

    #[test]
    fn paper_example_budgets() {
        let budgets = heterogeneous_split(
            Watts::new(1300.0),
            &[
                DemandProfile {
                    regular: Watts::new(400.0),
                    overclock_demand: Watts::new(50.0),
                },
                DemandProfile {
                    regular: Watts::new(300.0),
                    overclock_demand: Watts::new(100.0),
                },
            ],
        );
        assert_eq!(budgets, vec![Watts::new(600.0), Watts::new(700.0)]);
    }

    #[test]
    fn no_demand_splits_headroom_evenly() {
        let budgets = heterogeneous_split(
            Watts::new(1000.0),
            &[
                DemandProfile {
                    regular: Watts::new(300.0),
                    overclock_demand: Watts::ZERO,
                },
                DemandProfile {
                    regular: Watts::new(500.0),
                    overclock_demand: Watts::ZERO,
                },
            ],
        );
        assert_eq!(budgets, vec![Watts::new(400.0), Watts::new(600.0)]);
    }

    #[test]
    fn infeasible_regular_scales_down() {
        let budgets = heterogeneous_split(
            Watts::new(600.0),
            &[
                DemandProfile {
                    regular: Watts::new(400.0),
                    overclock_demand: Watts::new(50.0),
                },
                DemandProfile {
                    regular: Watts::new(800.0),
                    overclock_demand: Watts::ZERO,
                },
            ],
        );
        assert_eq!(budgets, vec![Watts::new(200.0), Watts::new(400.0)]);
    }

    proptest! {
        #[test]
        fn split_conserves_budget(
            budget in 100.0..10_000.0f64,
            profiles in prop::collection::vec((0.0..500.0f64, 0.0..100.0f64), 1..20),
        ) {
            let children: Vec<DemandProfile> = profiles
                .iter()
                .map(|&(r, o)| DemandProfile {
                    regular: Watts::new(r),
                    overclock_demand: Watts::new(o),
                })
                .collect();
            let budgets = heterogeneous_split(Watts::new(budget), &children);
            let total: f64 = budgets.iter().map(|b| b.get()).sum();
            let regular_total: f64 = children.iter().map(|c| c.regular.get()).sum();
            if regular_total <= budget {
                // Entire budget distributed (exactly, modulo fp error).
                prop_assert!((total - budget).abs() < 1e-6);
                // Everyone keeps at least their regular power.
                for (b, c) in budgets.iter().zip(&children) {
                    prop_assert!(b.get() >= c.regular.get() - 1e-9);
                }
            } else {
                prop_assert!((total - budget).abs() < 1e-6);
            }
        }

        #[test]
        fn bigger_demand_never_gets_smaller_extra(
            budget in 1_000.0..5_000.0f64,
            r1 in 0.0..300.0f64, r2 in 0.0..300.0f64,
            d1 in 0.0..100.0f64, d2 in 0.0..100.0f64,
        ) {
            let children = [
                DemandProfile { regular: Watts::new(r1), overclock_demand: Watts::new(d1) },
                DemandProfile { regular: Watts::new(r2), overclock_demand: Watts::new(d2) },
            ];
            let budgets = heterogeneous_split(Watts::new(budget), &children);
            let extra1 = budgets[0].get() - r1;
            let extra2 = budgets[1].get() - r2;
            if d1 > d2 {
                prop_assert!(extra1 >= extra2 - 1e-9);
            }
        }
    }
}
