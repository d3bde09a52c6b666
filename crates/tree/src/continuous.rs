//! Continuous queries over a SWAT tree.
//!
//! The paper (§2.1): "Our queries are one-time, but we can extend our
//! algorithms to continuous queries quite easily." This module is that
//! extension: clients register standing inner-product queries; every
//! arrival re-evaluates the due subscriptions against the updated tree
//! and returns fresh answers. Because evaluation costs
//! `O(M + log² N)` against an always-current summary, a registered query
//! is exactly as cheap as an ad-hoc one — there is no separate
//! materialization path to maintain.

use crate::codec::{write_frame, Cursor};
use crate::config::{SwatConfig, TreeError};
use crate::query::{InnerProductAnswer, InnerProductQuery, QueryOptions, WeightProfile};
use crate::snapshot::{self, SnapshotError};
use crate::tree::SwatTree;

/// Handle identifying a registered continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(usize);

#[derive(Debug)]
struct Subscription {
    query: InnerProductQuery,
    opts: QueryOptions,
    /// Evaluate every `every`-th arrival.
    every: u64,
    active: bool,
}

/// One delivered continuous-query result.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The subscription that fired.
    pub id: SubscriptionId,
    /// Arrival count at evaluation time.
    pub at: u64,
    /// The evaluated answer.
    pub answer: InnerProductAnswer,
}

/// A SWAT tree plus a set of standing queries.
///
/// ```
/// use swat_tree::{continuous::ContinuousEngine, InnerProductQuery, SwatConfig};
///
/// let mut engine = ContinuousEngine::new(SwatConfig::new(16).unwrap());
/// let id = engine.subscribe(InnerProductQuery::exponential(4, 1e9), 1);
/// let mut fired = 0;
/// for i in 0..64 {
///     fired += engine.push(i as f64).len();
/// }
/// assert!(fired > 0);
/// assert!(engine.unsubscribe(id));
/// assert!(engine.push(0.0).is_empty());
/// ```
#[derive(Debug)]
pub struct ContinuousEngine {
    tree: SwatTree,
    subs: Vec<Subscription>,
}

impl ContinuousEngine {
    /// An engine over a fresh tree.
    pub fn new(config: SwatConfig) -> Self {
        ContinuousEngine {
            tree: SwatTree::new(config),
            subs: Vec::new(),
        }
    }

    /// Wrap an existing (possibly warm) tree.
    pub fn from_tree(tree: SwatTree) -> Self {
        ContinuousEngine {
            tree,
            subs: Vec::new(),
        }
    }

    /// The underlying tree (for ad-hoc queries alongside subscriptions).
    pub fn tree(&self) -> &SwatTree {
        &self.tree
    }

    /// Register `query` for evaluation every `every`-th arrival
    /// (`every = 1` fires on each arrival).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn subscribe(&mut self, query: InnerProductQuery, every: u64) -> SubscriptionId {
        self.subscribe_with(query, self.tree.config().default_opts(), every)
    }

    /// As [`Self::subscribe`] with explicit [`QueryOptions`].
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn subscribe_with(
        &mut self,
        query: InnerProductQuery,
        opts: QueryOptions,
        every: u64,
    ) -> SubscriptionId {
        assert!(every > 0, "evaluation period must be positive");
        // Reuse a cancelled slot if one exists.
        if let Some(i) = self.subs.iter().position(|s| !s.active) {
            self.subs[i] = Subscription {
                query,
                opts,
                every,
                active: true,
            };
            return SubscriptionId(i);
        }
        self.subs.push(Subscription {
            query,
            opts,
            every,
            active: true,
        });
        SubscriptionId(self.subs.len() - 1)
    }

    /// Cancel a subscription; returns whether it was active.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        match self.subs.get_mut(id.0) {
            Some(s) if s.active => {
                s.active = false;
                true
            }
            _ => false,
        }
    }

    /// Number of active subscriptions.
    pub fn active_subscriptions(&self) -> usize {
        self.subs.iter().filter(|s| s.active).count()
    }

    /// Feed one value; evaluate and return every subscription due at this
    /// arrival. Subscriptions whose indices the tree cannot cover yet
    /// (warm-up) are silently skipped this round.
    pub fn push(&mut self, value: f64) -> Vec<Notification> {
        self.tree.push(value);
        let t = self.tree.arrivals();
        let mut out = Vec::new();
        for (i, sub) in self.subs.iter().enumerate() {
            if !sub.active || !t.is_multiple_of(sub.every) {
                continue;
            }
            match self.tree.inner_product_with(&sub.query, sub.opts) {
                Ok(answer) => out.push(Notification {
                    id: SubscriptionId(i),
                    at: t,
                    answer,
                }),
                Err(TreeError::Uncovered { .. }) => {} // still warming up
                Err(e) => unreachable!("subscription validated at registration: {e}"),
            }
        }
        out
    }

    /// Serialize the engine: the tree's snapshot plus a checksummed
    /// `SUBS` section carrying the standing-query table — query,
    /// options, cadence, and active flag per slot, so
    /// [`SubscriptionId`]s stay valid across the round trip. The section
    /// is written even when the table is empty: restores require it, so
    /// a truncation can never silently drop the subscriptions.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        snapshot::write_tree_body(self.tree.view(), &mut out);
        {
            let mut sec = Vec::new();
            sec.extend_from_slice(&(self.subs.len() as u64).to_le_bytes());
            for s in &self.subs {
                sec.push(s.active as u8);
                sec.extend_from_slice(&s.every.to_le_bytes());
                sec.push(match s.query.profile() {
                    WeightProfile::General => 0,
                    WeightProfile::Exponential => 1,
                    WeightProfile::Linear => 2,
                });
                sec.extend_from_slice(&s.query.delta().to_le_bytes());
                sec.extend_from_slice(&(s.opts.min_level as u64).to_le_bytes());
                sec.extend_from_slice(&(s.query.len() as u64).to_le_bytes());
                for &idx in s.query.indices() {
                    sec.extend_from_slice(&(idx as u64).to_le_bytes());
                }
                for &w in s.query.weights() {
                    sec.extend_from_slice(&w.to_le_bytes());
                }
            }
            write_frame(&mut out, snapshot::SEC_SUBS, &sec);
        }
        out
    }

    /// Rebuild an engine from [`ContinuousEngine::snapshot`] bytes (for
    /// a plain [`SwatTree::snapshot`], restore the tree and use
    /// [`Self::from_tree`] instead — the engine format requires the
    /// subscription section). Restores validate every subscription as
    /// strictly as [`Self::subscribe_with`] would, so adversarial bytes
    /// yield a typed error, never a panic or an unsound standing query.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn restore(bytes: &[u8]) -> Result<ContinuousEngine, SnapshotError> {
        let mut c = Cursor::new(bytes);
        let tree = snapshot::parse_tree_body(&mut c)?;
        let mut subs = Vec::new();
        {
            let at = c.offset();
            if c.is_empty() {
                return Err(SnapshotError::Invalid {
                    what: "missing SUBS section",
                    offset: at,
                });
            }
            let (tag, mut sec) = c.frame()?;
            if tag != snapshot::SEC_SUBS {
                return Err(SnapshotError::Invalid {
                    what: "expected SUBS section",
                    offset: at,
                });
            }
            let count = sec.u64()? as usize;
            for _ in 0..count {
                let active_at = sec.offset();
                let active = match sec.u8()? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(SnapshotError::Invalid {
                            what: "bad active flag",
                            offset: active_at,
                        })
                    }
                };
                let every_at = sec.offset();
                let every = sec.u64()?;
                if every == 0 {
                    return Err(SnapshotError::Invalid {
                        what: "zero evaluation period",
                        offset: every_at,
                    });
                }
                let profile_at = sec.offset();
                let profile = match sec.u8()? {
                    0 => WeightProfile::General,
                    1 => WeightProfile::Exponential,
                    2 => WeightProfile::Linear,
                    _ => {
                        return Err(SnapshotError::Invalid {
                            what: "bad profile tag",
                            offset: profile_at,
                        })
                    }
                };
                let delta = sec.f64()?;
                let min_level_at = sec.offset();
                let min_level = sec.u64()? as usize;
                if min_level >= tree.config().levels() {
                    return Err(SnapshotError::Invalid {
                        what: "subscription min level out of range",
                        offset: min_level_at,
                    });
                }
                let m_at = sec.offset();
                let m = sec.u64()? as usize;
                let mut indices = Vec::new();
                for _ in 0..m {
                    indices.push(sec.u64()? as usize);
                }
                let mut weights = Vec::new();
                for _ in 0..m {
                    weights.push(sec.f64()?);
                }
                let mut query = InnerProductQuery::new(indices, weights, delta).map_err(|_| {
                    SnapshotError::Invalid {
                        what: "bad subscription query",
                        offset: m_at,
                    }
                })?;
                if !query.try_set_profile(profile) {
                    return Err(SnapshotError::Invalid {
                        what: "profile tag does not match weights",
                        offset: profile_at,
                    });
                }
                subs.push(Subscription {
                    query,
                    opts: QueryOptions { min_level },
                    every,
                    active,
                });
            }
            if !sec.is_empty() {
                return Err(SnapshotError::Invalid {
                    what: "oversized SUBS section",
                    offset: sec.offset(),
                });
            }
            if !c.is_empty() {
                return Err(SnapshotError::Invalid {
                    what: "trailing bytes",
                    offset: c.offset(),
                });
            }
        }
        Ok(ContinuousEngine { tree, subs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(n: usize) -> ContinuousEngine {
        ContinuousEngine::new(SwatConfig::new(n).unwrap())
    }

    #[test]
    fn fires_at_the_subscribed_cadence() {
        let mut e = engine(16);
        let every_1 = e.subscribe(InnerProductQuery::exponential(4, 1e9), 1);
        let every_4 = e.subscribe(InnerProductQuery::linear(4, 1e9), 4);
        // Warm up fully first.
        for i in 0..32 {
            e.push(i as f64);
        }
        let mut fired = (0u32, 0u32);
        for i in 0..16 {
            for n in e.push(i as f64) {
                if n.id == every_1 {
                    fired.0 += 1;
                } else if n.id == every_4 {
                    fired.1 += 1;
                }
                assert!(n.answer.value.is_finite());
            }
        }
        assert_eq!(fired, (16, 4));
    }

    #[test]
    fn warmup_skips_instead_of_failing() {
        let mut e = engine(16);
        e.subscribe(InnerProductQuery::point(15, 1e9), 1);
        // The oldest index is uncovered early on: no notifications, no
        // panics.
        let n: usize = (0..8).map(|i| e.push(i as f64).len()).sum();
        assert_eq!(n, 0);
        // Once warm, it fires every arrival.
        for i in 0..32 {
            e.push(i as f64);
        }
        assert_eq!(e.push(1.0).len(), 1);
    }

    #[test]
    fn unsubscribe_and_slot_reuse() {
        let mut e = engine(8);
        let a = e.subscribe(InnerProductQuery::point(0, 1e9), 1);
        let b = e.subscribe(InnerProductQuery::point(1, 1e9), 1);
        assert_eq!(e.active_subscriptions(), 2);
        assert!(e.unsubscribe(a));
        assert!(!e.unsubscribe(a), "double-cancel reports false");
        assert_eq!(e.active_subscriptions(), 1);
        let c = e.subscribe(InnerProductQuery::point(2, 1e9), 1);
        assert_eq!(c, a, "cancelled slot is reused");
        assert_eq!(e.active_subscriptions(), 2);
        let _ = b;
    }

    #[test]
    fn answers_match_ad_hoc_queries() {
        let mut e = engine(32);
        let q = InnerProductQuery::exponential(8, 1e9);
        e.subscribe(q.clone(), 1);
        for i in 0..64 {
            e.push((i % 7) as f64);
        }
        let notifications = e.push(3.0);
        assert_eq!(notifications.len(), 1);
        let ad_hoc = e.tree().inner_product(&q).unwrap();
        assert_eq!(notifications[0].answer, ad_hoc);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let mut e = engine(8);
        e.subscribe(InnerProductQuery::point(0, 1.0), 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_subscriptions() {
        let mut e = ContinuousEngine::new(SwatConfig::new(32).unwrap().with_min_level(1).unwrap());
        let exp = e.subscribe(InnerProductQuery::exponential(8, 1e9), 1);
        let lin = e.subscribe_with(
            InnerProductQuery::linear(4, 1e9),
            QueryOptions::at_level(2),
            4,
        );
        let cancelled = e.subscribe(InnerProductQuery::point(3, 1e9), 2);
        assert!(e.unsubscribe(cancelled));
        for i in 0..80 {
            e.push((i % 9) as f64);
        }
        let mut restored = ContinuousEngine::restore(&e.snapshot()).unwrap();
        assert_eq!(restored.active_subscriptions(), 2);
        assert_eq!(restored.tree().answers_digest(), e.tree().answers_digest());
        // Both engines keep firing identically, same ids, same answers;
        // the cancelled slot stays reusable.
        for i in 0..16 {
            let a = e.push(i as f64);
            let b = restored.push(i as f64);
            assert_eq!(a, b);
        }
        assert!(e.unsubscribe(exp) && restored.unsubscribe(exp));
        assert!(e.unsubscribe(lin) && restored.unsubscribe(lin));
    }

    #[test]
    fn formats_never_cross_silently() {
        let mut e = engine(16);
        for i in 0..20 {
            e.push(i as f64);
        }
        // An empty-table engine snapshot round-trips.
        let restored = ContinuousEngine::restore(&e.snapshot()).unwrap();
        assert_eq!(restored.active_subscriptions(), 0);
        assert_eq!(restored.tree().answers_digest(), e.tree().answers_digest());
        // A plain tree restore rejects engine snapshots (which carry a
        // subscription section) instead of silently dropping the table...
        let mut e2 = engine(16);
        e2.subscribe(InnerProductQuery::exponential(4, 1e9), 1);
        assert!(matches!(
            SwatTree::restore(&e2.snapshot()),
            Err(SnapshotError::Invalid {
                what: "subscriptions present (use ContinuousEngine::restore)",
                ..
            })
        ));
        // ...and an engine restore rejects plain tree snapshots, because
        // a missing table is indistinguishable from a truncated one.
        assert!(matches!(
            ContinuousEngine::restore(&e.tree().snapshot()),
            Err(SnapshotError::Invalid {
                what: "missing SUBS section",
                ..
            })
        ));
    }

    #[test]
    fn restore_rejects_corrupt_subscription_tables() {
        let mut e = engine(16);
        e.subscribe(InnerProductQuery::exponential(4, 1e9), 1);
        e.subscribe_with(
            InnerProductQuery::new(vec![0, 5, 2], vec![1.0, -2.0, 0.5], 3.0).unwrap(),
            QueryOptions::at_level(1),
            2,
        );
        for i in 0..40 {
            e.push(i as f64);
        }
        let bytes = e.snapshot();
        let reference = ContinuousEngine::restore(&bytes).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                ContinuousEngine::restore(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                if let Ok(r) = ContinuousEngine::restore(&bad) {
                    assert_eq!(
                        r.tree().answers_digest(),
                        reference.tree().answers_digest(),
                        "flip at {byte}.{bit}"
                    );
                }
            }
        }
    }
}
