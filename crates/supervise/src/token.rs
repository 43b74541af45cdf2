//! Hierarchical cancellation tokens with deadline propagation.
//!
//! A [`CancelToken`] is a node in a cancellation *tree*: cancelling a
//! token cancels its whole subtree, while a child's cancellation never
//! affects its parent. Deadlines propagate at creation time — a child
//! can only tighten the effective deadline it inherits, never extend
//! it — so `is_cancelled` needs no upward walk: each node carries its
//! own flag plus a pre-computed effective deadline.
//!
//! Tokens are cheap to clone (one `Arc` bump; clones share the node)
//! and safe to poll from any thread. The API is a strict superset of
//! the flat token `partask` started with — `new` / `cancel` /
//! `is_cancelled` behave identically — so existing call sites keep
//! working via re-export.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

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
    /// Children to cascade a `cancel` into. Weak: a dropped subtree
    /// must not be kept alive by its parent.
    children: Mutex<Vec<Weak<TokenNode>>>,
}

impl TokenNode {
    fn new(deadline: Option<Instant>) -> Arc<Self> {
        Arc::new(Self {
            cancelled: AtomicBool::new(false),
            deadline,
            children: Mutex::new(Vec::new()),
        })
    }
}

/// Cooperative cancellation token forming a tree; see the module docs.
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
        Self { node: TokenNode::new(None) }
    }

    /// Fresh root token that auto-cancels when `budget` elapses.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            node: TokenNode::new(Some(Instant::now() + budget)),
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
        let child = TokenNode::new(deadline);
        {
            let mut children = self.node.children.lock();
            // Prune dead subtrees opportunistically so long-lived roots
            // (a runtime's token spawning many short tasks) do not leak.
            if children.len() >= 32 {
                children.retain(|w| w.strong_count() > 0);
            }
            children.push(Arc::downgrade(&child));
        }
        // Re-check after linking: a concurrent `cancel` that walked the
        // children list before our push must not leave this child
        // un-cancelled forever.
        if self.node.cancelled.load(Ordering::Acquire) {
            child.cancelled.store(true, Ordering::Release);
        }
        Self { node: child }
    }

    /// Request cancellation of this token and its whole subtree.
    pub fn cancel(&self) {
        // Iterative DFS: collect each node's live children under its
        // lock, flag outside the lock. No recursion, no lock nesting.
        let mut stack = vec![Arc::clone(&self.node)];
        while let Some(node) = stack.pop() {
            if node.cancelled.swap(true, Ordering::AcqRel) {
                // Already cancelled: its subtree was (or is being)
                // flagged by a previous walk.
                continue;
            }
            let children = node.children.lock();
            for weak in children.iter() {
                if let Some(child) = weak.upgrade() {
                    stack.push(child);
                }
            }
        }
    }

    /// Has cancellation been requested (directly, via an ancestor's
    /// `cancel`, or by deadline expiry)?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.node.cancelled.load(Ordering::Acquire)
            || self
                .node
                .deadline
                .is_some_and(|due| Instant::now() >= due)
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
        assert!(!root.is_cancelled(), "child cancel must not reach the parent");
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
        assert_eq!(clamped.deadline(), root.deadline(), "cannot extend past parent");
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
    fn dead_children_get_pruned() {
        let root = CancelToken::new();
        for _ in 0..10_000 {
            let _short_lived = root.child();
        }
        // After many create/drop cycles the child list must stay
        // bounded (pruned at the 32-entry threshold), not grow 10k.
        assert!(root.node.children.lock().len() <= 64);
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
