//! Identifier newtypes shared by all substrates.

use std::fmt;

/// Identifier of a node inside a [`Tree`](crate::Tree) or
/// [`Graph`](crate::Graph) arena.
///
/// Node identifiers are dense indices (`0..len`). The root of a tree is
/// always `NodeId::ROOT`, i.e. index `0`.
///
/// # Example
///
/// ```
/// use bfdn_trees::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert!(NodeId::ROOT.is_root());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The root node of every tree arena.
    pub const ROOT: NodeId = NodeId(0);

    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for the tree root (index 0).
    #[inline]
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// A port number local to a node.
///
/// The endpoints of the edges adjacent to a node are numbered from `0` to
/// `deg - 1`. Following Section 4.1 of the paper, port `0` leads to the
/// parent at every node other than the root; downward ports start at `1`
/// (at the root they start at `0`).
///
/// # Example
///
/// ```
/// use bfdn_trees::Port;
/// assert!(Port::UP.is_up());
/// assert_eq!(Port::new(2).index(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(u16);

impl Port {
    /// The port leading to the parent (`0`) at non-root nodes.
    pub const UP: Port = Port(0);

    /// Creates a port from its local index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u16` (no workload in this
    /// workspace has nodes of degree beyond `u16::MAX`).
    #[inline]
    pub fn new(index: usize) -> Self {
        Port(u16::try_from(index).expect("port index exceeds u16::MAX"))
    }

    /// Returns the local index of this port.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is port `0`, i.e. the parent port at
    /// non-root nodes.
    #[inline]
    pub fn is_up(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        for i in [0usize, 1, 7, 1 << 20] {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn root_is_root() {
        assert!(NodeId::ROOT.is_root());
        assert!(!NodeId::new(1).is_root());
    }

    #[test]
    fn port_up() {
        assert!(Port::UP.is_up());
        assert!(!Port::new(1).is_up());
        assert_eq!(Port::new(5).index(), 5);
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(Port::new(1) < Port::new(2));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", NodeId::new(4)), "n4");
        assert_eq!(format!("{:?}", Port::new(4)), "p4");
        assert_eq!(format!("{}", NodeId::new(4)), "4");
    }
}
