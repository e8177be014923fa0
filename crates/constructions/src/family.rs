//! Graph families as iterable workloads.
//!
//! The paper's constructions are *classes* of graphs (`G_{Δ,k}`, `U_{Δ,k}`,
//! `J_{μ,k}`); experiments and the `ElectionEngine` batch runner in `anet-core` want
//! to sweep an election configuration across "some members of a class" without caring
//! how members are enumerated. [`GraphFamily`] is that abstraction: a family yields
//! named [`FamilyInstance`]s on demand, capped by the caller.
//!
//! For `G` the parameter is the member index `i`; for `U` it is the member index in
//! the `(Δ−1)`-ary encoding of `σ` (see `UClass::member_by_index`); for `J` it is the
//! chain-length cap passed to `JClass::template` (full members are exponentially
//! large, so the sweep walks capped template chains of doubling length, exactly the
//! instances the paper's experiment E5 measures).

use crate::{GClass, JClass, UClass};
use anet_graph::PortGraph;

/// One named instance of a graph family.
#[derive(Debug, Clone)]
pub struct FamilyInstance {
    /// Human-readable instance name, unique within the family.
    pub name: String,
    /// The family-specific parameter the instance was built from (member index for
    /// `G`/`U`, chain-length cap for `J`); enough to rebuild richer handles such as
    /// `JMember` when a solver needs the map, not just the graph.
    pub param: u64,
    /// The instance graph.
    pub graph: PortGraph,
}

impl FamilyInstance {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, param: u64, graph: PortGraph) -> Self {
        FamilyInstance {
            name: name.into(),
            param,
            graph,
        }
    }
}

/// A family of anonymous networks that can enumerate (a bounded number of) members.
///
/// Families are `Send + Sync`: sweep drivers fan scenarios out across worker
/// threads and share the family handles between them. Every family in this
/// workspace is plain generation-parameter data, so the bound costs nothing.
pub trait GraphFamily: Send + Sync {
    /// The family's display name (e.g. `G_{4,1}`).
    fn family_name(&self) -> String;

    /// Up to `max_instances` members of the family, smallest parameters first.
    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance>;

    /// A key under which [`instances`](GraphFamily::instances) results may be cached
    /// and shared: two families with equal keys must enumerate identical instance
    /// lists. Defaults to [`family_name`](GraphFamily::family_name), which is correct
    /// whenever the name pins down every generation parameter (as for the paper's
    /// `G`/`U`/`J` classes); families whose display name omits instance-selection
    /// parameters (size or dimension lists, for example) must override this to
    /// include them, or caches keyed on the name would silently serve one family's
    /// graphs to another.
    fn instance_cache_key(&self) -> String {
        self.family_name()
    }
}

// Blanket impls so registries can hold `Box<dyn GraphFamily>` (or hand out `&dyn`
// references) and still pass them wherever an `impl GraphFamily` is expected — e.g.
// the scenario registry of `anet-workloads` stores families boxed and sweeps their
// instances with `ElectionBuilder::sweep`.
impl<T: GraphFamily + ?Sized> GraphFamily for &T {
    fn family_name(&self) -> String {
        (**self).family_name()
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        (**self).instances(max_instances)
    }

    fn instance_cache_key(&self) -> String {
        (**self).instance_cache_key()
    }
}

impl<T: GraphFamily + ?Sized> GraphFamily for Box<T> {
    fn family_name(&self) -> String {
        (**self).family_name()
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        (**self).instances(max_instances)
    }

    fn instance_cache_key(&self) -> String {
        (**self).instance_cache_key()
    }
}

impl GraphFamily for GClass {
    fn family_name(&self) -> String {
        format!("G_{{{},{}}}", self.delta, self.k)
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        let size = self.size().unwrap_or(u64::MAX);
        (1..=size)
            .take(max_instances)
            .filter_map(|i| {
                let member = self.member(i).ok()?;
                Some(FamilyInstance {
                    name: format!("{} member {i}", self.family_name()),
                    param: i,
                    graph: member.labeled.graph,
                })
            })
            .collect()
    }
}

impl GraphFamily for UClass {
    fn family_name(&self) -> String {
        format!("U_{{{},{}}}", self.delta, self.k)
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        // Spread indices across the class so the sweep sees structurally different
        // swap sequences, not just the first few (which differ only near s_1).
        // Member indices are 1-based (`UClass::member_by_index`).
        let size = self.size().unwrap_or(u64::MAX);
        let take = (max_instances as u64).min(size);
        (0..take)
            .map(|j| {
                if take <= 1 {
                    1
                } else {
                    1 + j * ((size - 1) / (take - 1))
                }
            })
            .filter_map(|idx| {
                let member = self.member_by_index(idx).ok()?;
                Some(FamilyInstance {
                    name: format!("{} member #{idx}", self.family_name()),
                    param: idx,
                    graph: member.labeled.graph,
                })
            })
            .collect()
    }
}

impl GraphFamily for JClass {
    fn family_name(&self) -> String {
        format!("J_{{{},{}}}", self.mu, self.k)
    }

    fn instances(&self, max_instances: usize) -> Vec<FamilyInstance> {
        // Capped template chains of doubling length: 2, 4, 8, … gadgets.
        let max_gadgets = self.num_gadgets().unwrap_or(u64::MAX);
        let mut out = Vec::new();
        let mut cap = 2u64;
        while out.len() < max_instances && cap <= max_gadgets {
            if let Ok(member) = self.template(Some(cap as usize)) {
                out.push(FamilyInstance {
                    name: format!("{} chain of {cap} gadgets", self.family_name()),
                    param: cap,
                    graph: member.labeled.graph,
                });
            }
            cap *= 2;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g_family_enumerates_members_in_order() {
        let class = GClass::new(4, 1).unwrap();
        let instances = class.instances(3);
        assert_eq!(instances.len(), 3);
        assert_eq!(instances[0].param, 1);
        assert_eq!(instances[2].param, 3);
        assert!(instances[0].name.contains("G_{4,1}"));
        // Member graphs grow with the index.
        assert!(instances[0].graph.num_nodes() < instances[2].graph.num_nodes());
    }

    #[test]
    fn g_family_cap_respects_class_size() {
        let class = GClass::new(4, 1).unwrap();
        let all = class.instances(1000);
        assert_eq!(all.len(), class.size().unwrap() as usize);
    }

    #[test]
    fn u_family_spreads_member_indices() {
        let class = UClass::new(4, 1).unwrap();
        let instances = class.instances(3);
        assert_eq!(instances.len(), 3);
        assert_eq!(instances[0].param, 1);
        assert!(instances[2].param > instances[1].param);
        for inst in &instances {
            assert!(inst.graph.num_nodes() > 0);
            assert_eq!(inst.graph.max_degree(), 2 * class.delta - 1);
        }
    }

    #[test]
    fn boxed_and_borrowed_families_delegate() {
        let class = GClass::new(4, 1).unwrap();
        let boxed: Box<dyn GraphFamily> = Box::new(GClass::new(4, 1).unwrap());
        assert_eq!(boxed.family_name(), class.family_name());
        assert_eq!(boxed.instances(2).len(), 2);
        let borrowed: &dyn GraphFamily = &class;
        assert_eq!(borrowed.family_name(), class.family_name());
        let inst = FamilyInstance::new("x", 3, class.member(1).unwrap().labeled.graph);
        assert_eq!(inst.name, "x");
        assert_eq!(inst.param, 3);
    }

    #[test]
    fn j_family_yields_doubling_chains() {
        let class = JClass::new(2, 4).unwrap();
        let instances = class.instances(3);
        assert_eq!(instances.len(), 3);
        assert_eq!(
            instances.iter().map(|i| i.param).collect::<Vec<_>>(),
            vec![2, 4, 8]
        );
        // The cap is the gadget count; a member can be rebuilt from it.
        let member = class.template(Some(instances[1].param as usize)).unwrap();
        assert_eq!(member.labeled.graph, instances[1].graph);
    }
}
