//! The [`RunMemo`]: simulation outcomes and write streams shared by
//! every [`Lab`](crate::Lab) of one run.
//!
//! Figures overlap heavily (Figures 10, 13, 14 and 18 all need the same
//! fetch-on-write sweeps), and the supervised runner spreads them over
//! a pool of worker labs. One memo behind an `Arc` lets the whole pool,
//! panic rebuilds included, simulate each (workload, configuration)
//! exactly once per run.
//!
//! Each key has one slot that is set once, as in the
//! [`TraceStore`](crate::TraceStore): a lab that finds a key missing
//! *claims* it, simulates, and publishes the value; other labs asking
//! for that key block until it is published rather than duplicate the
//! work. A claim dropped unpublished — its holder panicked — releases
//! the slot, and a lab blocked on it wakes up and claims it itself.
//! Labs never block while they hold a claim (see
//! [`Lab::outcomes_sweep`](crate::Lab::outcomes_sweep)), so claims
//! cannot deadlock.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use cwp_cache::CacheConfig;

use crate::lab::WriteStream;
use crate::sim::SimOutcome;

/// One run's shared memo: outcomes by (workload, configuration) and
/// store streams by workload.
#[derive(Default)]
pub(crate) struct RunMemo {
    pub(crate) outcomes: Memo<(&'static str, CacheConfig), SimOutcome>,
    pub(crate) streams: Memo<&'static str, WriteStream>,
}

/// A key's slot: being computed by a claim holder, or published.
enum Slot<V> {
    Claimed,
    Ready(Arc<V>),
}

/// Set-once values by key, with claims on the missing ones.
pub(crate) struct Memo<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    /// Signalled whenever a claim is published or released.
    settled: Condvar,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            slots: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        // Claim holders never panic with the lock held, so a poisoned
        // map is still consistent.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A claim on `key` if it is missing; `None` if it is published or
    /// another holder's claim is outstanding. Never blocks on a holder.
    pub(crate) fn try_claim(&self, key: &K) -> Option<Claim<'_, K, V>> {
        let mut slots = self.lock();
        if slots.contains_key(key) {
            return None;
        }
        slots.insert(key.clone(), Slot::Claimed);
        Some(Claim::new(self, key.clone()))
    }

    /// The published value, or a claim on a missing key, waiting while
    /// another holder's claim is outstanding. The caller must hold no
    /// claim of its own.
    pub(crate) fn get_or_claim(&self, key: &K) -> Result<Arc<V>, Claim<'_, K, V>> {
        let mut slots = self.lock();
        loop {
            match slots.get(key) {
                Some(Slot::Ready(value)) => return Ok(Arc::clone(value)),
                Some(Slot::Claimed) => {
                    slots = self
                        .settled
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    slots.insert(key.clone(), Slot::Claimed);
                    return Err(Claim::new(self, key.clone()));
                }
            }
        }
    }

    /// Number of published values.
    pub(crate) fn len(&self) -> usize {
        self.lock()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }
}

/// The right to compute one key's value. [`Claim::publish`] sets the
/// slot; dropping the claim unpublished (e.g. unwinding from a panic)
/// empties it again for the next asker.
pub(crate) struct Claim<'m, K: Eq + Hash, V> {
    memo: &'m Memo<K, V>,
    /// `None` once published.
    key: Option<K>,
}

impl<'m, K: Eq + Hash + Clone, V> Claim<'m, K, V> {
    fn new(memo: &'m Memo<K, V>, key: K) -> Self {
        Claim {
            memo,
            key: Some(key),
        }
    }

    /// Sets the claimed slot to `value` and wakes every waiter.
    pub(crate) fn publish(mut self, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let key = self.key.take().expect("a claim publishes once");
        self.memo
            .lock()
            .insert(key, Slot::Ready(Arc::clone(&value)));
        self.memo.settled.notify_all();
        value
    }
}

impl<K: Eq + Hash, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.memo
                .slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&key);
            self.memo.settled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_published_value_is_served_to_every_asker() {
        let memo: Memo<u32, String> = Memo::default();
        let claim = memo.try_claim(&7).expect("a missing key is claimable");
        assert!(memo.try_claim(&7).is_none(), "the key is busy");
        let published = claim.publish("seven".to_string());
        let Ok(got) = memo.get_or_claim(&7) else {
            panic!("a published key is ready");
        };
        assert!(Arc::ptr_eq(&published, &got));
        assert!(memo.try_claim(&7).is_none(), "the key is published");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_waiter_on_a_released_claim_claims_the_key_itself() {
        let memo: Memo<u32, u32> = Memo::default();
        let claim = memo.try_claim(&1).expect("a missing key is claimable");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match memo.get_or_claim(&1) {
                Ok(_) => panic!("nothing was ever published"),
                Err(claim) => *claim.publish(11),
            });
            std::thread::sleep(Duration::from_millis(20));
            // The holder dies without publishing.
            let holder = scope.spawn(move || {
                let _claim = claim;
                panic!("intentional test panic");
            });
            assert!(holder.join().is_err());
            assert_eq!(waiter.join().unwrap(), 11);
        });
        assert_eq!(memo.len(), 1);
    }
}
