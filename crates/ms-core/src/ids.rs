//! Strongly-typed identifiers.
//!
//! Operators, HAUs, nodes, racks, ports and checkpoint epochs all use
//! small-integer identifiers; newtypes prevent cross-wiring (e.g.
//! indexing a node table with an operator id).

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index, for table lookups.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies one operator in a query network.
    OperatorId,
    "op"
);
id_type!(
    /// Identifies one High Availability Unit — the smallest unit of work
    /// that can be checkpointed and recovered independently (§II-A). In
    /// the paper's evaluation every operator constitutes its own HAU.
    HauId,
    "hau"
);
id_type!(
    /// Identifies a computing node in the cluster.
    NodeId,
    "node"
);
id_type!(
    /// Identifies a rack; failures are rack-correlated (§II-B1).
    RackId,
    "rack"
);
id_type!(
    /// Identifies an input or output port of an operator/HAU. Port `k`
    /// of an HAU corresponds to its `k`-th upstream (for inputs) or
    /// downstream (for outputs) neighbour, mirroring the paper's
    /// `input_port_k()` functions (Fig. 9).
    PortId,
    "port"
);

/// Identifies one application-wide checkpoint. Epochs are issued
/// monotonically by the token origin (source HAUs in MS-src, the
/// controller in MS-src+ap/+aa); a checkpoint is *complete* once every
/// HAU has finished its individual checkpoint for that epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(pub u64);

impl EpochId {
    /// The epoch before any checkpoint has been taken.
    pub const INITIAL: EpochId = EpochId(0);

    /// The next epoch.
    pub const fn next(self) -> EpochId {
        EpochId(self.0 + 1)
    }
}

impl fmt::Debug for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch{}", self.0)
    }
}

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", OperatorId(3)), "op3");
        assert_eq!(format!("{:?}", HauId(7)), "hau7");
        assert_eq!(format!("{}", NodeId(0)), "node0");
        assert_eq!(format!("{}", EpochId(2)), "epoch2");
    }

    #[test]
    fn epoch_monotonicity() {
        let e = EpochId::INITIAL;
        assert!(e.next() > e);
        assert_eq!(e.next().next(), EpochId(2));
    }

    #[test]
    fn index_roundtrip() {
        let id: OperatorId = 5usize.into();
        assert_eq!(id.index(), 5);
    }
}
