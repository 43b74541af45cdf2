//! Hierarchical cancellation tokens with deadline propagation.
//!
//! A [`CancelToken`] is a node in a cancellation *tree*: cancelling a
//! token cancels its whole subtree, while a child's cancellation never
//! affects its parent. Each node points at its parent, and nothing
//! points at a child. `cancel` sets the node's own flag, and
//! `is_cancelled` reads its own flag and then each ancestor's, so a
//! cancel also reaches descendants created after it.
//!
//! Deadlines propagate at creation time: a child can only tighten the
//! effective deadline it inherits, never extend it, so each node
//! carries one pre-computed effective deadline.
//!
//! Costs: `child` is O(1) and takes no lock (one `Arc` bump on the
//! parent), `cancel` is one `Release` store, and `is_cancelled` is
//! O(depth), one `Acquire` load per node up to the root. The store
//! and the loads pair, so whatever a thread wrote before `cancel` is
//! visible to a task that reads its token as cancelled.
//!
//! Tokens are cheap to clone (one `Arc` bump; clones share the node)
//! and safe to poll from any thread. The API is a strict superset of
//! the flat token `partask` started with — `new` / `cancel` /
//! `is_cancelled` behave identically — so existing call sites keep
//! working via re-export.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error returned by [`CancelToken::checkpoint`] once cancellation has
/// been requested (directly, via an ancestor, or by deadline expiry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation was cancelled")
    }
}

impl std::error::Error for Cancelled {}

struct TokenNode {
    cancelled: AtomicBool,
    /// Effective deadline: `min` of this node's own deadline and every
    /// ancestor's, computed once at creation. `None` = unbounded.
    deadline: Option<Instant>,
    /// The parent this node keeps alive; `None` for a root.
    parent: Option<Arc<TokenNode>>,
}

impl TokenNode {
    fn new(deadline: Option<Instant>, parent: Option<Arc<TokenNode>>) -> Arc<Self> {
        Arc::new(Self {
            cancelled: AtomicBool::new(false),
            deadline,
            parent,
        })
    }
}

impl Drop for TokenNode {
    /// Releases the ancestors this node alone kept alive one at a time,
    /// so dropping the last owner of a long chain does not recurse.
    fn drop(&mut self) {
        let mut next = self.parent.take();
        while let Some(node) = next {
            next = Arc::into_inner(node).and_then(|mut node| node.parent.take());
        }
    }
}

/// Cooperative cancellation token forming a tree. A child holds its
/// parent; `child` is O(1) with no lock, `cancel` is O(1) and
/// `is_cancelled` is O(depth). See the module docs.
#[derive(Clone)]
pub struct CancelToken {
    node: Arc<TokenNode>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.node.deadline)
            .finish()
    }
}

impl CancelToken {
    /// Fresh root token: un-cancelled, no deadline.
    #[must_use]
    pub fn new() -> Self {
        Self {
            node: TokenNode::new(None, None),
        }
    }

    /// Fresh root token that auto-cancels when `budget` elapses.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            node: TokenNode::new(Some(Instant::now() + budget), None),
        }
    }

    /// A child token: cancelling `self` cancels the child (and its own
    /// subtree), while cancelling the child leaves `self` untouched.
    /// The child inherits this token's effective deadline.
    #[must_use]
    pub fn child(&self) -> Self {
        self.child_node(self.node.deadline)
    }

    /// A child token with an additional deadline of `budget` from now.
    /// The child's effective deadline is the *minimum* of the parent's
    /// and its own — a child can tighten its budget, never extend it.
    #[must_use]
    pub fn child_with_deadline(&self, budget: Duration) -> Self {
        let own = Instant::now() + budget;
        let effective = match self.node.deadline {
            Some(parent) => Some(parent.min(own)),
            None => Some(own),
        };
        self.child_node(effective)
    }

    fn child_node(&self, deadline: Option<Instant>) -> Self {
        Self {
            node: TokenNode::new(deadline, Some(Arc::clone(&self.node))),
        }
    }

    /// Request cancellation of this token and its whole subtree,
    /// including children created after this call.
    pub fn cancel(&self) {
        self.node.cancelled.store(true, Ordering::Release);
    }

    /// Has cancellation been requested (directly, via an ancestor's
    /// `cancel`, or by deadline expiry)?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        std::iter::successors(Some(&*self.node), |node| node.parent.as_deref())
            .any(|node| node.cancelled.load(Ordering::Acquire))
            || self.node.deadline.is_some_and(|due| Instant::now() >= due)
    }

    /// This token's effective deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.node.deadline
    }

    /// Time left until the effective deadline: `None` when unbounded,
    /// `Some(ZERO)` once expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.node
            .deadline
            .map(|due| due.saturating_duration_since(Instant::now()))
    }

    /// Cancellation checkpoint for task bodies: `Err(Cancelled)` once
    /// cancellation has been requested, `Ok(())` otherwise. Lets long
    /// loops bail out with `?`.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.checkpoint().is_ok());
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_flips_clones_too() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled(), "clones share the node");
        assert_eq!(c.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn parent_cancel_reaches_whole_subtree() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        let aa = a.child();
        root.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
        assert!(aa.is_cancelled(), "cancellation must cascade transitively");
    }

    #[test]
    fn child_cancel_does_not_escape_upward_or_sideways() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(
            !root.is_cancelled(),
            "child cancel must not reach the parent"
        );
        assert!(!b.is_cancelled(), "child cancel must not reach siblings");
    }

    #[test]
    fn child_created_after_cancel_starts_cancelled() {
        let root = CancelToken::new();
        root.cancel();
        let late = root.child();
        assert!(late.is_cancelled());
        let later = late.child();
        assert!(later.is_cancelled());
    }

    #[test]
    fn deadline_expiry_cancels() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(10));
        assert!(t.is_cancelled(), "expired deadline must read as cancelled");
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn child_inherits_and_tightens_deadline() {
        let root = CancelToken::with_deadline(Duration::from_secs(60));
        let inherited = root.child();
        assert_eq!(inherited.deadline(), root.deadline(), "child inherits");

        let tightened = root.child_with_deadline(Duration::from_millis(1));
        assert!(tightened.deadline().unwrap() < root.deadline().unwrap());

        // A "longer" child budget is clamped to the parent's deadline.
        let clamped = root.child_with_deadline(Duration::from_secs(3600));
        assert_eq!(
            clamped.deadline(),
            root.deadline(),
            "cannot extend past parent"
        );
    }

    #[test]
    fn deep_trees_cancel_without_recursion_limits() {
        let root = CancelToken::new();
        let mut leaf = root.clone();
        let mut path = Vec::new();
        for _ in 0..10_000 {
            leaf = leaf.child();
            path.push(leaf.clone());
        }
        root.cancel();
        assert!(path.iter().all(CancelToken::is_cancelled));
    }

    #[test]
    fn dropped_children_release_their_parent() {
        let root = CancelToken::new();
        for _ in 0..10_000 {
            let _short_lived = root.child();
        }
        // Nothing but `root` itself may still hold its node.
        assert_eq!(Arc::strong_count(&root.node), 1);
    }

    #[test]
    fn concurrent_cancel_and_child_creation_never_loses_a_child() {
        for _ in 0..50 {
            let root = CancelToken::new();
            let r2 = root.clone();
            let spawner = std::thread::spawn(move || {
                let mut kids = Vec::new();
                for _ in 0..100 {
                    kids.push(r2.child());
                }
                kids
            });
            root.cancel();
            let kids = spawner.join().unwrap();
            // Every child created around the cancel must observe it.
            assert!(kids.iter().all(CancelToken::is_cancelled));
        }
    }
}
